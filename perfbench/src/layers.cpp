#include "layers.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

std::vector<LayerSpec> build_catalogue() {
  std::vector<LayerSpec> c = {
      {"tile.build_ms", "ms", "setup_s on spmspv and bfs"},
      {"tile.pack_us", "us", "latency_p50_ms on spmspv"},
      {"tile.side_nnz_share", "ratio", "latency_* on spmspv (side-COO pass)"},
      {"core.multiply_us.csc", "us", "latency_p50_ms on spmspv"},
      {"core.multiply_us.csr", "us", "ops_per_s, latency_p99_ms on spmspv"},
      {"core.multiply_us.dense", "us", "ops_per_s, latency_p99_ms on spmspv"},
      {"core.op_share.csc", "ratio", "input property of spmspv"},
      {"core.op_share.csr", "ratio", "input property of spmspv"},
      {"core.op_share.dense", "ratio", "input property of spmspv"},
      {"core.tile_skip_ratio", "ratio", "ops_per_s on spmspv"},
      {"core.macs_per_op", "count", "ops_per_s on spmspv"},
      {"core.side_mac_share", "ratio", "ops_per_s on spmspv"},
      {"core.gather_slots_per_op", "count", "latency_p50_ms on spmspv"},
      {"core.bytes_per_op", "B", "ops_per_s on spmspv (computed)"},
      {"core.flops_per_byte", "flop/B", "ops_per_s on spmspv (computed)"},
      {"core.batch_lane_macs_per_flush", "count", "loaded_* on serve"},
      {"core.batch_tiles_shared_per_flush", "count", "loaded_* on serve"},
      {"bfs.traverse_ms.high_diam", "ms", "ops_per_s, latency_p99_ms on bfs"},
      {"bfs.traverse_ms.low_diam", "ms", "latency_p50_ms on bfs"},
      {"bfs.iterations_per_op.high_diam", "count", "latency_p99_ms on bfs"},
      {"bfs.iterations_per_op.low_diam", "count", "latency_p50_ms on bfs"},
      {"bfs.kernel_share.push_csc", "ratio", "latency_* on bfs"},
      {"bfs.kernel_share.push_csr", "ratio", "latency_* on bfs"},
      {"bfs.kernel_share.pull_csc", "ratio", "latency_* on bfs"},
      {"bfs.tiles_visited_per_op", "count", "ops_per_s on bfs"},
      {"bfs.frontier_words_per_op", "count", "ops_per_s on bfs"},
      {"bfs.side_edges_per_op", "count", "ops_per_s on bfs"},
      {"bfs.teps.high_diam", "edges/s", "ops_per_s on bfs"},
      {"bfs.teps.low_diam", "edges/s", "ops_per_s on bfs"},
  };
  for (const char* cls : kOpClasses) {
    c.push_back({std::string("parallel.loops_per_op.") + cls, "count",
                 "latency_* on bfs high_diam and sparse spmspv ops"});
  }
  for (const char* cls : kOpClasses) {
    c.push_back({std::string("parallel.chunks_per_op.") + cls, "count",
                 "latency_* on bfs high_diam and sparse spmspv ops"});
  }
  c.push_back({"parallel.busy_share", "ratio", "latency_* on every workload"});
  for (const char* cls : kOpClasses) {
    c.push_back({std::string("parallel.speedup.") + cls, "x",
                 "latency_* of that op class"});
  }
  c.push_back({"serve.request_ms.spmspv", "ms", "latency_*, loaded_* on serve"});
  c.push_back({"serve.request_ms.bfs", "ms", "latency_*, loaded_* on serve"});
  for (int r = 0; r < kRungs; ++r) {
    c.push_back({"serve.gen_lag_ms.r" + std::to_string(r), "ms",
                 "validity of serve latency at that rung"});
  }
  for (int r = 0; r < kRungs; ++r) {
    c.push_back({"serve.batch.mean_k.r" + std::to_string(r), "count",
                 "loaded_*, max_rate_rps on serve"});
  }
  for (int r = 0; r < kRungs; ++r) {
    c.push_back({"serve.batch.batched_share.r" + std::to_string(r), "ratio",
                 "loaded_*, max_rate_rps on serve"});
  }
  for (int r = 0; r < kRungs; ++r) {
    c.push_back({"serve.batch.max_k.r" + std::to_string(r), "count",
                 "loaded_*, max_rate_rps on serve"});
  }
  c.push_back({"serve.overhead_ms", "ms", "latency_p50_ms on serve"});
  c.push_back({"serve.reload_ms", "ms", "loaded_p99_ms, ok_ratio on serve"});
  c.push_back({"serve.load_ms.stream", "ms", "setup_s on serve"});
  c.push_back({"serve.load_ms.ttlf", "ms", "setup_s on serve"});
  c.push_back({"formats.hash_bytes", "B", "setup_s on serve"});
  c.push_back({"serve.store.hit_ratio", "ratio", "latency_* on serve"});
  c.push_back({"trace.overhead_pct", "%", "validity of the traced run"});
  return c;
}

}  // namespace

const std::vector<LayerSpec>& layer_catalogue() {
  static const std::vector<LayerSpec> c = build_catalogue();
  return c;
}

bool serve_layer(const std::string& name) {
  const auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  return starts("serve.") || starts("core.batch_") || starts("formats.") ||
         name == "parallel.loops_per_op.serve" ||
         name == "parallel.chunks_per_op.serve" ||
         name == "parallel.speedup.serve";
}

void LayerValues::set(const std::string& name, double value) {
  for (const LayerSpec& s : layer_catalogue()) {
    if (s.name == name) {
      v_[name] = value;
      return;
    }
  }
  throw std::logic_error("per-layer metric not in the catalogue: " + name);
}

double LayerValues::get(const std::string& name) const {
  const auto it = v_.find(name);
  return it == v_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
