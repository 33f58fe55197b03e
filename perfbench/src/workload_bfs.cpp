// `bfs`: one closed-loop caller issuing TileBfs::run from seeded sources on
// a high-diameter 2-D grid road network (hundreds of levels with tiny
// frontiers: Push-CSC and per-level pool dispatch dominate) and on two
// low-diameter graphs, R-MAT (beyond L2) and power-law (a handful of
// levels: Push-CSR / Pull-CSC and memory traffic dominate).
#include <cstdio>
#include <memory>
#include <string>

#include "baselines/serial_bfs.hpp"
#include "bench_stats.hpp"
#include "bfs/tile_bfs.hpp"
#include "common.hpp"
#include "gen/grid.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using tilespmspv::BfsResult;
using tilespmspv::BfsWorkspace;
using tilespmspv::ThreadPool;
using tilespmspv::TileBfs;
namespace obs = tilespmspv::obs;

constexpr std::size_t kSourcesPerGraph = 6;
constexpr std::size_t kWindow = 8;
constexpr int kSetupReps = 7;

enum Cls { kHigh = 0, kLow, kClasses };
const char* const kClsName[kClasses] = {"high_diam", "low_diam"};

struct Graph {
  std::string label;
  Cls cls = kLow;
  Csr<value_t> a;
};

struct Query {
  std::size_t g = 0;
  index_t source = 0;
  std::vector<index_t> want;
  double edges_reached = 0.0;  // out-edges of reached vertices (TEPS)
  index_t depth = 0;
};

std::vector<Graph> make_graphs(std::uint64_t seed) {
  std::vector<Graph> gs;
  gs.push_back({"grid", kHigh,
                Csr<value_t>::from_coo(tilespmspv::gen_grid2d(
                    200, 200, 0.85, sub_seed(seed, 1)))});
  tilespmspv::RmatParams rm;
  rm.scale = 16;
  rm.edge_factor = 8;
  gs.push_back({"rmat", kLow, Csr<value_t>::from_coo(
                                  tilespmspv::gen_rmat(rm, sub_seed(seed, 2)))});
  tilespmspv::PowerlawParams web;
  web.n = 40000;
  web.avg_degree = 8.0;
  web.locality = 0.8;
  web.window = 128;
  web.symmetric = true;
  gs.push_back({"web", kLow, Csr<value_t>::from_coo(tilespmspv::gen_powerlaw(
                                 web, sub_seed(seed, 3)))});
  return gs;
}

using Engines = std::vector<std::unique_ptr<TileBfs>>;

Engines build_engines(const std::vector<Graph>& gs, ThreadPool* pool) {
  Engines es;
  for (const Graph& g : gs) {
    es.push_back(std::make_unique<TileBfs>(g.a, tilespmspv::TileBfsConfig{},
                                           pool));
  }
  return es;
}

struct OpRecord {
  Cls cls = kLow;
  double ms = 0.0;
  std::size_t iterations = 0;
  double teps = 0.0;
  Counts delta;
};

struct Pass {
  std::vector<double> lat_ms;
  std::vector<OpRecord> recs;
  double timed_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t wrong = 0;
};

Pass run_pass(const Engines& es, std::vector<BfsWorkspace>& ws,
              const std::vector<Query>& qs, const std::vector<Graph>& gs,
              double seconds, std::size_t min_ops, bool traced,
              SpanTags* tags) {
  Pass p;
  const double t_start = now_s();
  std::size_t next = 0;
  std::vector<BfsResult> rs(kWindow);
  std::vector<std::size_t> which(kWindow);
  while (now_s() - t_start < seconds || p.lat_ms.size() < min_ops) {
    const double w0 = now_s();
    for (std::size_t k = 0; k < kWindow; ++k) {
      const std::size_t i = next++ % qs.size();
      which[k] = i;
      const Query& q = qs[i];
      const Counts c0 = obs::counters_snapshot();
      const double t0 = now_s();
      if (traced) {
        obs::TraceSpan s("bench/bfs.run", "bench",
                         tags->tag(p.lat_ms.size()));
        rs[k] = es[q.g]->run(q.source, ws[q.g]);
      } else {
        rs[k] = es[q.g]->run(q.source, ws[q.g]);
      }
      const double dt = now_s() - t0;
      p.lat_ms.push_back(dt * 1e3);
      OpRecord r;
      r.cls = gs[q.g].cls;
      r.ms = dt * 1e3;
      r.iterations = rs[k].iterations.size();
      r.teps = q.edges_reached / dt;
      r.delta = obs::counters_snapshot() - c0;
      p.recs.push_back(r);
    }
    p.timed_s += now_s() - w0;
    // Levels are canonical: checked exactly, after the window.
    for (std::size_t k = 0; k < kWindow; ++k) {
      if (rs[k].levels != qs[which[k]].want) ++p.wrong;
    }
  }
  p.wall_s = now_s() - t_start;
  return p;
}

double class_median(const Pass& p, Cls c, double OpRecord::*field) {
  std::vector<double> v;
  for (const OpRecord& r : p.recs) {
    if (r.cls == c) v.push_back(r.*field);
  }
  return median(v);
}

}  // namespace

Outcome run_bfs(const RunOptions& opt) {
  Outcome out;
  // ---- Inputs and oracle (untimed) ------------------------------------
  const std::vector<Graph> gs = make_graphs(opt.seed);
  std::vector<Query> qs;
  {
    std::vector<std::vector<Query>> per(gs.size());
    for (std::size_t g = 0; g < gs.size(); ++g) {
      const Csr<value_t> out_edges = gs[g].a.transpose();
      Prng rng(sub_seed(opt.seed, 10 + g));
      for (std::size_t s = 0; s < kSourcesPerGraph; ++s) {
        Query q;
        q.g = g;
        q.source = pick_source(out_edges, rng);
        q.want = tilespmspv::serial_bfs(out_edges, q.source);
        for (index_t v = 0; v < out_edges.rows; ++v) {
          const index_t l = q.want[static_cast<std::size_t>(v)];
          if (l < 0) continue;
          q.edges_reached += static_cast<double>(out_edges.row_nnz(v));
          q.depth = std::max(q.depth, l);
        }
        per[g].push_back(std::move(q));
      }
    }
    // Round-robin over the graphs.
    for (std::size_t s = 0; s < kSourcesPerGraph; ++s) {
      for (auto& v : per) qs.push_back(std::move(v[s]));
    }
  }

  // ---- Setup: TileBfs construction, repeated, median reported ---------
  ThreadPool pool(opt.threads);
  Engines es;
  std::vector<double> setup_s, build_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    es.clear();
    const double t0 = now_s();
    es = build_engines(gs, &pool);
    setup_s.push_back(now_s() - t0);
    double pre = 0.0;
    for (const auto& e : es) pre += e->preprocess_ms();
    build_ms.push_back(pre);
  }
  std::vector<BfsWorkspace> ws(gs.size());

  // ---- Traffic report -------------------------------------------------
  for (std::size_t g = 0; g < gs.size(); ++g) {
    const TileBfs& e = *es[g];
    const auto nt = static_cast<std::size_t>(e.tile_size());
    // Computed: one bit per tile cell plus 8 B per side edge.
    const std::size_t bytes =
        static_cast<std::size_t>(e.num_tiles()) * nt * nt / 8 +
        static_cast<std::size_t>(e.side_edge_count()) * 8;
    double depth = 0.0;
    std::size_t nq = 0;
    for (const Query& q : qs) {
      if (q.g != g) continue;
      depth += q.depth;
      ++nq;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "traffic: graph %-4s (%s) n=%d edges=%lld nt=%zu tiles=%d "
                  "side_edges=%lld mean_levels=%.1f mask_bytes~%zu (computed; "
                  "L2 %zu, LLC %zu) %s L2",
                  gs[g].label.c_str(), kClsName[gs[g].cls], gs[g].a.rows,
                  static_cast<long long>(e.edges()), nt, e.num_tiles(),
                  static_cast<long long>(e.side_edge_count()),
                  depth / static_cast<double>(std::max<std::size_t>(1, nq)) +
                      1.0,
                  bytes, kL2Bytes, kLlcBytes,
                  bytes > kL2Bytes ? "exceeds" : "fits");
    out.note(buf);
  }

  // Warm-up: every query once, checked, untimed.
  for (const Query& q : qs) {
    if (es[q.g]->run(q.source, ws[q.g]).levels != q.want) ++out.wrong;
  }
  out.attempted += qs.size();

  auto note_kernels = [&](const Pass& p) {
    for (int c = 0; c < kClasses; ++c) {
      Counts sum;
      for (const OpRecord& r : p.recs) {
        if (r.cls == c) add_counts(sum, r.delta);
      }
      const auto it = static_cast<double>(sum[Counter::kBfsIterPushCsc] +
                                          sum[Counter::kBfsIterPushCsr] +
                                          sum[Counter::kBfsIterPullCsc]);
      char buf[200];
      std::snprintf(
          buf, sizeof(buf),
          "traffic: %s kernel share push_csc %.3f push_csr %.3f pull_csc "
          "%.3f, p50 %.3f ms",
          kClsName[c],
          it > 0 ? static_cast<double>(sum[Counter::kBfsIterPushCsc]) / it : 0.0,
          it > 0 ? static_cast<double>(sum[Counter::kBfsIterPushCsr]) / it : 0.0,
          it > 0 ? static_cast<double>(sum[Counter::kBfsIterPullCsc]) / it : 0.0,
          class_median(p, static_cast<Cls>(c), &OpRecord::ms));
      out.note(buf);
    }
  };

  const std::size_t min_ops = samples_needed(99.0);
  if (!opt.trace) {
    const Pass p = run_pass(es, ws, qs, gs, opt.seconds, min_ops, false,
                            nullptr);
    out.attempted += p.lat_ms.size();
    out.wrong += p.wrong;
    const double ops_s = static_cast<double>(p.lat_ms.size()) / p.timed_s;
    const double p50 = percentile(p.lat_ms, 50.0);
    const double p99 = block_percentile(p.lat_ms, 99.0, min_ops);
    // Closed loop, one caller: loaded == unloaded, max rate == op rate.
    put_end_to_end(&out, median(setup_s), ops_s, p50, p99, p50, p99, ops_s);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "bfs: %zu ops in %.2f s timed, p50 %.4f ms, p99 %.4f ms "
                  "(%zu samples beyond p99)",
                  p.lat_ms.size(), p.timed_s, p50, p99,
                  samples_beyond(p.lat_ms.size(), 99.0));
    out.note(buf);
    note_kernels(p);
    return out;
  }

  // ---- Traced run: untraced / traced / 1-thread thirds ----------------
  const double third = opt.seconds / 3.0;
  const Pass plain = run_pass(es, ws, qs, gs, third, 0, false, nullptr);
  SpanTags tags;
  trace_arm();
  const Pass traced = run_pass(es, ws, qs, gs, third, 0, true, &tags);
  const std::vector<TraceEvent> events = trace_collect(
      opt.out_dir + "/trace-bfs.json");
  ThreadPool pool1(1);
  const Engines es1 = build_engines(gs, &pool1);
  const Pass serial = run_pass(es1, ws, qs, gs, third, 0, false, nullptr);
  for (const Pass* p : {&plain, &traced, &serial}) {
    out.attempted += p->lat_ms.size();
    out.wrong += p->wrong;
  }
  note_kernels(traced);

  LayerValues& L = out.layers;
  L.set("tile.build_ms", median(build_ms));
  Counts all;
  Counts per[kClasses];
  std::size_t n[kClasses] = {};
  for (const OpRecord& r : traced.recs) {
    add_counts(all, r.delta);
    add_counts(per[r.cls], r.delta);
    ++n[r.cls];
  }
  for (int c = 0; c < kClasses; ++c) {
    const std::string cn = kClsName[c];
    const auto cls = static_cast<Cls>(c);
    const double nc = static_cast<double>(std::max<std::size_t>(1, n[c]));
    L.set("bfs.traverse_ms." + cn, class_median(traced, cls, &OpRecord::ms));
    std::vector<double> iters;
    for (const OpRecord& r : traced.recs) {
      if (r.cls == cls) iters.push_back(static_cast<double>(r.iterations));
    }
    L.set("bfs.iterations_per_op." + cn, mean(iters));
    L.set("bfs.teps." + cn, class_median(traced, cls, &OpRecord::teps));
    L.set("parallel.loops_per_op." + cn,
          static_cast<double>(per[c][Counter::kPoolLoops]) / nc);
    L.set("parallel.chunks_per_op." + cn,
          static_cast<double>(per[c][Counter::kPoolChunks]) / nc);
    const double one = class_median(serial, cls, &OpRecord::ms);
    const double many = class_median(plain, cls, &OpRecord::ms);
    L.set("parallel.speedup." + cn, many > 0.0 ? one / many : 0.0);
  }
  const auto it = static_cast<double>(all[Counter::kBfsIterPushCsc] +
                                      all[Counter::kBfsIterPushCsr] +
                                      all[Counter::kBfsIterPullCsc]);
  if (it > 0.0) {
    L.set("bfs.kernel_share.push_csc",
          static_cast<double>(all[Counter::kBfsIterPushCsc]) / it);
    L.set("bfs.kernel_share.push_csr",
          static_cast<double>(all[Counter::kBfsIterPushCsr]) / it);
    L.set("bfs.kernel_share.pull_csc",
          static_cast<double>(all[Counter::kBfsIterPullCsc]) / it);
  }
  const double nops =
      static_cast<double>(std::max<std::size_t>(1, traced.recs.size()));
  L.set("bfs.tiles_visited_per_op",
        static_cast<double>(all[Counter::kBfsTilesVisited]) / nops);
  L.set("bfs.frontier_words_per_op",
        static_cast<double>(all[Counter::kBfsFrontierWords]) / nops);
  L.set("bfs.side_edges_per_op",
        static_cast<double>(all[Counter::kBfsSideEdges]) / nops);
  L.set("parallel.busy_share",
        pool_busy_share(events, traced.wall_s, pool.size() - 1));
  L.set("trace.overhead_pct",
        (mean(traced.lat_ms) / mean(plain.lat_ms) - 1.0) * 100.0);
  note_layer_table(layer_table(events), &out);
  return out;
}

}  // namespace perfbench
