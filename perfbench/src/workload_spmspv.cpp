// `spmspv`: one closed-loop caller issuing SpmspvOperator::multiply on
// three seeded matrices — a banded FEM matrix (clustered dense tiles), a
// power-law web graph (skewed rows, large side-COO share) and an R-MAT
// graph whose tiled form exceeds L2. The vectors are BFS level frontiers
// from seeded sources, the inputs the repo's iterative callers feed
// `multiply`, so the CSC / CSR / dense-SpMV tier mix follows real use.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_stats.hpp"
#include "common.hpp"
#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "core/work_model.hpp"
#include "formats/csc.hpp"
#include "gen/banded.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using tilespmspv::SpmspvKernel;
using tilespmspv::SpmspvOperator;
using tilespmspv::ThreadPool;
using tilespmspv::TileVector;
namespace obs = tilespmspv::obs;

constexpr std::size_t kSourcesPerMatrix = 64;
constexpr std::size_t kInputsPerMatrix = 64;  // frontiers kept per matrix
constexpr std::size_t kWindow = 16;     // ops per timed window
constexpr int kSetupReps = 7;
// Float accumulation order in the CSR, side-COO and CSC kernels still
// depends on the schedule (ROADMAP item 1), so values are compared with
// the same 1e-9 tolerance tests/test_serve.cpp uses, relative to
// magnitude; indices must match exactly.
constexpr double kRelTol = 1e-9;

struct MatrixCase {
  std::string label;
  Csr<value_t> a;
};

struct Input {
  std::size_t m = 0;  // matrix index
  SparseVec<value_t> x;
  SparseVec<value_t> want;
};

enum Tier { kTierCsc = 0, kTierCsr, kTierDense, kTiers };
const char* const kTierName[kTiers] = {"csc", "csr", "dense"};

Tier tier_of(SpmspvKernel k) {
  switch (k) {
    case SpmspvKernel::kCsc:
      return kTierCsc;
    case SpmspvKernel::kDenseSpmv:
      return kTierDense;
    default:
      return kTierCsr;
  }
}

std::vector<MatrixCase> make_matrices(std::uint64_t seed) {
  std::vector<MatrixCase> ms;
  tilespmspv::BandedParams fem;
  fem.n = 8000;
  fem.block = 4;
  fem.band_blocks = 3;
  ms.push_back({"fem", Csr<value_t>::from_coo(
                           tilespmspv::gen_banded(fem, sub_seed(seed, 1)))});
  tilespmspv::PowerlawParams web;
  web.n = 20000;
  web.avg_degree = 8.0;
  web.locality = 0.8;
  web.window = 128;
  web.symmetric = true;
  ms.push_back({"web", Csr<value_t>::from_coo(
                           tilespmspv::gen_powerlaw(web, sub_seed(seed, 2)))});
  tilespmspv::RmatParams rm;
  rm.scale = 16;
  rm.edge_factor = 8;
  ms.push_back({"rmat", Csr<value_t>::from_coo(
                            tilespmspv::gen_rmat(rm, sub_seed(seed, 3)))});
  return ms;
}

bool same_output(const SparseVec<value_t>& y, const SparseVec<value_t>& want) {
  if (y.n != want.n || y.idx != want.idx) return false;
  for (std::size_t i = 0; i < y.vals.size(); ++i) {
    if (!near_rel(y.vals[i], want.vals[i], kRelTol)) return false;
  }
  return true;
}

using Operators = std::vector<std::unique_ptr<SpmspvOperator<value_t>>>;

Operators build_operators(const std::vector<MatrixCase>& ms, ThreadPool* pool) {
  Operators ops;
  for (const MatrixCase& m : ms) {
    ops.push_back(std::make_unique<SpmspvOperator<value_t>>(
        m.a, tilespmspv::SpmspvConfig{}, pool));
  }
  return ops;
}

/// One op as the traced run sees it.
struct OpRecord {
  Tier tier = kTierCsr;
  double pack_us = 0.0;
  double multiply_us = 0.0;
  Counts delta;
  double model_bytes = 0.0;
  double model_flops = 0.0;
};

struct Pass {
  std::vector<double> lat_ms;   // per op
  std::vector<Tier> tiers;      // per op (traced and 1-thread passes)
  double timed_s = 0.0;         // sum of timed windows
  double wall_s = 0.0;
  std::uint64_t wrong = 0;
  std::vector<OpRecord> recs;   // traced pass only
};

/// Round-robin over the matrices, each cycling through its own inputs in
/// a seeded order.
std::vector<std::size_t> op_order(const std::vector<Input>& inputs,
                                  std::size_t nmat, std::uint64_t seed) {
  std::vector<std::vector<std::size_t>> per(nmat);
  for (std::size_t i = 0; i < inputs.size(); ++i) per[inputs[i].m].push_back(i);
  Prng rng(sub_seed(seed, 99));
  for (auto& v : per) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.next_below(i)]);
    }
  }
  std::size_t longest = 0;
  for (const auto& v : per) longest = std::max(longest, v.size());
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < longest; ++k) {
    for (const auto& v : per) {
      if (!v.empty()) order.push_back(v[k % v.size()]);
    }
  }
  return order;
}

// kPlain times multiply(SparseVec) whole; kSplit times packing and the
// multiply apart and classifies the tier; kTraced adds spans and keeps
// per-op counter deltas.
enum class Mode { kPlain, kSplit, kTraced };

Pass run_pass(Operators& ops, const std::vector<Input>& inputs,
              const std::vector<std::size_t>& order, double seconds,
              std::size_t min_ops, Mode mode, SpanTags* tags) {
  Pass p;
  const double t_start = now_s();
  std::size_t next = 0;
  std::vector<SparseVec<value_t>> ys(kWindow);
  std::vector<std::size_t> which(kWindow);
  while (now_s() - t_start < seconds || p.lat_ms.size() < min_ops) {
    const double w0 = now_s();
    for (std::size_t k = 0; k < kWindow; ++k) {
      const std::size_t i = order[next++ % order.size()];
      which[k] = i;
      SpmspvOperator<value_t>& op = *ops[inputs[i].m];
      if (mode == Mode::kPlain) {
        const double t0 = now_s();
        ys[k] = op.multiply(inputs[i].x);
        p.lat_ms.push_back((now_s() - t0) * 1e3);
        continue;
      }
      OpRecord r;
      const std::uint64_t op_id = p.lat_ms.size();
      const Counts c0 = obs::counters_snapshot();
      const double t0 = now_s();
      TileVector<value_t> xt;
      {
        obs::TraceSpan s("bench/tile.pack", "bench",
                         tags != nullptr ? tags->tag(op_id) : nullptr);
        xt = TileVector<value_t>::from_sparse(inputs[i].x, op.matrix().nt);
      }
      const double t1 = now_s();
      r.tier = tier_of(op.select(xt));
      {
        obs::TraceSpan s("bench/core.multiply", "bench",
                         tags != nullptr ? tags->tag(op_id) : nullptr);
        ys[k] = op.multiply(xt);
      }
      const double t2 = now_s();
      r.delta = obs::counters_snapshot() - c0;
      r.pack_us = (t1 - t0) * 1e6;
      r.multiply_us = (t2 - t1) * 1e6;
      p.lat_ms.push_back((t2 - t0) * 1e3);
      p.tiers.push_back(r.tier);
      if (mode == Mode::kTraced) p.recs.push_back(r);
    }
    p.timed_s += now_s() - w0;
    // Outputs are checked after each timed window, off the clock.
    for (std::size_t k = 0; k < kWindow; ++k) {
      if (!same_output(ys[k], inputs[which[k]].want)) ++p.wrong;
    }
  }
  p.wall_s = now_s() - t_start;
  return p;
}

/// Computed (not measured) traffic of one op from the work model.
void add_model(const SpmspvOperator<value_t>& op, const SparseVec<value_t>& x,
               OpRecord* r) {
  const TileVector<value_t> xt =
      TileVector<value_t>::from_sparse(x, op.matrix().nt);
  tilespmspv::SpmspvWork w;
  if (r->tier == kTierCsc) {
    w = tilespmspv::work_tile_spmspv_csc(op.matrix_transposed(), xt);
  } else if (r->tier == kTierDense) {
    w = tilespmspv::work_spmv(op.matrix());
  } else {
    w = tilespmspv::work_tile_spmspv_csr(op.matrix(), xt);
  }
  r->model_bytes = tilespmspv::spmspv_traffic_bytes(w);
  r->model_flops = tilespmspv::spmspv_flops(w);
}

double class_median(const Pass& p, Tier t) {
  std::vector<double> v;
  for (std::size_t i = 0; i < p.tiers.size(); ++i) {
    if (p.tiers[i] == t) v.push_back(p.lat_ms[i]);
  }
  return median(v);
}

}  // namespace

Outcome run_spmspv(const RunOptions& opt) {
  Outcome out;
  // ---- Inputs and oracle (untimed) ------------------------------------
  const std::vector<MatrixCase> ms = make_matrices(opt.seed);
  std::vector<Input> inputs;
  for (std::size_t m = 0; m < ms.size(); ++m) {
    const Csr<value_t> out_edges = ms[m].a.transpose();
    const auto csc = tilespmspv::Csc<value_t>::from_csr(ms[m].a);
    Prng rng(sub_seed(opt.seed, 10 + m));
    for (SparseVec<value_t>& x :
         frontier_sample(out_edges, kSourcesPerMatrix, kInputsPerMatrix, rng)) {
      Input in;
      in.m = m;
      in.want = tilespmspv::spmspv_colwise_reference(csc, x);
      in.x = std::move(x);
      inputs.push_back(std::move(in));
    }
  }
  const std::vector<std::size_t> order = op_order(inputs, ms.size(), opt.seed);

  // ---- Setup: operator construction, repeated, median reported ---------
  ThreadPool pool(opt.threads);
  Operators ops;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ops.clear();
    const double t0 = now_s();
    ops = build_operators(ms, &pool);
    setup_s.push_back(now_s() - t0);
  }

  // ---- Traffic report -------------------------------------------------
  offset_t side = 0, total = 0;
  for (std::size_t m = 0; m < ms.size(); ++m) {
    const auto& t = ops[m]->matrix();
    const auto& tt = ops[m]->matrix_transposed();
    side += t.extracted.nnz();
    total += t.total_nnz();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "traffic: matrix %-5s n=%d nnz=%lld tiles=%d side_share=%.3f "
                  "tiled_bytes=%zu (A + A^T; L2 %zu, LLC %zu) %s L2",
                  ms[m].label.c_str(), ms[m].a.rows,
                  static_cast<long long>(ms[m].a.nnz()), t.num_tiles(),
                  static_cast<double>(t.extracted.nnz()) /
                      static_cast<double>(std::max<offset_t>(1, t.total_nnz())),
                  t.payload_bytes() + tt.payload_bytes(), kL2Bytes,
                  kLlcBytes,
                  t.payload_bytes() + tt.payload_bytes() > kL2Bytes
                      ? "exceeds"
                      : "fits");
    out.note(buf);
  }

  // Warm-up: every distinct input once, checked, untimed.
  for (const Input& in : inputs) {
    if (!same_output(ops[in.m]->multiply(in.x), in.want)) ++out.wrong;
  }
  out.attempted += inputs.size();

  const std::size_t min_ops = samples_needed(99.0);
  if (!opt.trace) {
    const Pass p = run_pass(ops, inputs, order, opt.seconds, min_ops,
                            Mode::kPlain, nullptr);
    out.attempted += p.lat_ms.size();
    out.wrong += p.wrong;
    const double ops_s = static_cast<double>(p.lat_ms.size()) / p.timed_s;
    const double p50 = percentile(p.lat_ms, 50.0);
    const double p99 = block_percentile(p.lat_ms, 99.0, min_ops);
    // One closed-loop caller is always at its own saturation rate: the
    // loaded latency is the latency, and the highest sustained rate is the
    // completed-op rate.
    put_end_to_end(&out, median(setup_s), ops_s, p50, p99, p50, p99, ops_s);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "spmspv: %zu ops (%zu distinct inputs) in %.2f s timed, "
                  "p50 %.4f ms, p99 %.4f ms (%zu samples beyond p99)",
                  p.lat_ms.size(), inputs.size(), p.timed_s, p50, p99,
                  samples_beyond(p.lat_ms.size(), 99.0));
    out.note(buf);
    Pass tiers = run_pass(ops, inputs, order, 0.0, order.size(),
                          Mode::kSplit, nullptr);
    std::size_t count[kTiers] = {};
    for (const Tier t : tiers.tiers) ++count[t];
    const auto cycle = static_cast<double>(tiers.tiers.size());
    std::snprintf(buf, sizeof(buf),
                  "traffic: kernel tier share over the op cycle: csc %.3f "
                  "csr %.3f dense %.3f",
                  static_cast<double>(count[kTierCsc]) / cycle,
                  static_cast<double>(count[kTierCsr]) / cycle,
                  static_cast<double>(count[kTierDense]) / cycle);
    out.note(buf);
    out.attempted += tiers.lat_ms.size();
    out.wrong += tiers.wrong;
    return out;
  }

  // ---- Traced run: untraced / traced / 1-thread thirds ----------------
  const double third = opt.seconds / 3.0;
  const Pass plain =
      run_pass(ops, inputs, order, third, 0, Mode::kSplit, nullptr);
  SpanTags tags;
  trace_arm();
  const Pass traced =
      run_pass(ops, inputs, order, third, 0, Mode::kTraced, &tags);
  const std::vector<TraceEvent> events =
      trace_collect(opt.out_dir + "/trace-spmspv.json");
  ThreadPool pool1(1);
  Operators ops1 = build_operators(ms, &pool1);
  const Pass serial =
      run_pass(ops1, inputs, order, third, 0, Mode::kSplit, nullptr);
  for (const Pass* p : {&plain, &traced, &serial}) {
    out.attempted += p->lat_ms.size();
    out.wrong += p->wrong;
  }

  LayerValues& L = out.layers;
  L.set("tile.build_ms", median(setup_s) * 1e3);
  L.set("tile.side_nnz_share",
        static_cast<double>(side) / static_cast<double>(std::max<offset_t>(1, total)));
  std::vector<double> pack;
  std::vector<double> mult[kTiers];
  Counts sum[kTiers];
  double bytes = 0.0, flops = 0.0;
  std::size_t n[kTiers] = {};
  std::vector<OpRecord> recs = traced.recs;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    OpRecord& r = recs[k];
    const Input& in = inputs[order[k % order.size()]];
    add_model(*ops[in.m], in.x, &r);
    pack.push_back(r.pack_us);
    mult[r.tier].push_back(r.multiply_us);
    add_counts(sum[r.tier], r.delta);
    ++n[r.tier];
    bytes += r.model_bytes;
    flops += r.model_flops;
  }
  const double nops = static_cast<double>(std::max<std::size_t>(1, recs.size()));
  Counts all;
  for (int t = 0; t < kTiers; ++t) {
    add_counts(all, sum[t]);
    const std::string tn = kTierName[t];
    L.set("core.multiply_us." + tn, median(mult[t]));
    L.set("core.op_share." + tn, static_cast<double>(n[t]) / nops);
    const double nt = static_cast<double>(std::max<std::size_t>(1, n[t]));
    L.set("parallel.loops_per_op." + tn,
          static_cast<double>(sum[t][Counter::kPoolLoops]) / nt);
    L.set("parallel.chunks_per_op." + tn,
          static_cast<double>(sum[t][Counter::kPoolChunks]) / nt);
    const double one = class_median(serial, static_cast<Tier>(t));
    const double many = class_median(plain, static_cast<Tier>(t));
    L.set("parallel.speedup." + tn, many > 0.0 ? one / many : 0.0);
  }
  L.set("tile.pack_us", median(pack));
  const auto scanned = static_cast<double>(all[Counter::kTilesScanned]);
  L.set("core.tile_skip_ratio",
        scanned > 0.0
            ? static_cast<double>(all[Counter::kTilesSkippedEmpty]) / scanned
            : 0.0);
  const auto macs = static_cast<double>(all[Counter::kPayloadMacs] +
                                        all[Counter::kSideMacs]);
  L.set("core.macs_per_op", macs / nops);
  L.set("core.side_mac_share",
        macs > 0.0 ? static_cast<double>(all[Counter::kSideMacs]) / macs : 0.0);
  L.set("core.gather_slots_per_op",
        static_cast<double>(all[Counter::kGatherSlots]) / nops);
  L.set("core.bytes_per_op", bytes / nops);
  L.set("core.flops_per_byte", bytes > 0.0 ? flops / bytes : 0.0);
  L.set("parallel.busy_share",
        pool_busy_share(events, traced.wall_s, pool.size() - 1));
  L.set("trace.overhead_pct",
        (mean(traced.lat_ms) / mean(plain.lat_ms) - 1.0) * 100.0);
  note_layer_table(layer_table(events), &out);

  // The serving path (protocol, admission, batch engine, store) is measured
  // here too: the serve workload's open-loop latencies are too unsteady on
  // a shared machine to gate on (see README), but its layers are not.
  const Outcome srv = run_serve(opt);
  for (const LayerSpec& spec : layer_catalogue()) {
    if (serve_layer(spec.name)) L.set(spec.name, srv.layers.get(spec.name));
  }
  out.notes.insert(out.notes.end(), srv.notes.begin(), srv.notes.end());
  out.attempted += srv.attempted;
  out.failed += srv.failed;
  out.wrong += srv.wrong;
  return out;
}

}  // namespace perfbench
