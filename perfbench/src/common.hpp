// Shared plumbing of the three workloads: run options, the result every
// workload returns, clocks, seeded input helpers and the traced-run
// plumbing (benchmark spans on the program's trace clock, counter deltas,
// per-layer self-time table).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "obs/counters.hpp"
#include "util/prng.hpp"
#include "util/types.hpp"
#include "layers.hpp"

namespace perfbench {

using tilespmspv::Csr;
using tilespmspv::index_t;
using tilespmspv::offset_t;
using tilespmspv::Prng;
using tilespmspv::SparseVec;
using tilespmspv::value_t;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::size_t threads = 0;  // resolved to nproc by main
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: correctness tallies, the metrics
/// of the requested mode, and report lines printed ahead of the result.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed + refused + wrong outputs
  std::uint64_t wrong = 0;   // wrong outputs alone (any makes exit != 0)
  std::vector<Metric> metrics;  // end-to-end (untraced run)
  LayerValues layers;            // per-layer (traced run)
  std::vector<std::string> notes;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// getrusage max RSS of this process, MiB.
double peak_rss_mb();

/// Stated cache sizes the traffic report compares working sets against:
/// the 2 MiB per-core L2 and 300 MiB shared LLC of the Xeon VM the
/// benchmark was built on. (Stated, not probed: the benchmark reads only
/// inside its checkout.)
inline constexpr std::size_t kL2Bytes = std::size_t{2} << 20;
inline constexpr std::size_t kLlcBytes = std::size_t{300} << 20;

/// Derives an independent stream seed for one input of a run.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  Prng p(seed * 0x9e3779b97f4a7c15ull + tag);
  return p.next_u64();
}

/// Seeded BFS source with a nonzero out-degree that reaches at least half
/// of the graph (tries candidates in seeded order; falls back to the one
/// reaching most). `out_edges` lists each vertex's out-neighbours: the
/// transpose of the adjacency matrix, whose A[i][j] != 0 is edge j -> i.
index_t pick_source(const Csr<value_t>& out_edges, Prng& rng);

/// BFS level frontiers as SpMSpV inputs with seeded values in [0.5, 1.5):
/// what sssp/ppr/algebraic_bfs feed `multiply`. Every level of a BFS from
/// each of `sources` seeded sources is a candidate; `keep` of them are
/// taken at evenly spaced quantiles of frontier size, so the density mix
/// follows the pooled levels of many sources rather than the few a seed
/// happens to draw.
std::vector<SparseVec<value_t>> frontier_sample(const Csr<value_t>& out_edges,
                                                std::size_t sources,
                                                std::size_t keep, Prng& rng);

/// Counter deltas the per-layer metrics read around each call.
using Counts = tilespmspv::obs::CounterSnapshot;
using tilespmspv::obs::Counter;

inline void add_counts(Counts& into, const Counts& d) {
  for (std::size_t k = 0; k < into.v.size(); ++k) into.v[k] += d.v[k];
}

/// Benchmark spans for the traced run: recorded through the program's own
/// trace ring (obs::TraceSpan) so they share its clock and thread ids, and
/// tagged with the op id in the event's detail.
class SpanTags {
 public:
  /// Stable C string "op=<id>" for the span detail (the ring stores
  /// pointers, so the strings live as long as this object).
  const char* tag(std::uint64_t op_id);

 private:
  std::mutex mu_;
  std::deque<std::string> tags_;
};

/// One exported trace event.
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
};

/// Arms the program's spans (convert/*, spmspv/*, bfs/*, pool/*) and the
/// benchmark's own.
void trace_arm();

/// Stops recording, writes the Chrome trace to `path` and returns the
/// events for the per-layer table.
std::vector<TraceEvent> trace_collect(const std::string& path);

struct LayerRow {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-span-name count / total / self time, self time being each span's
/// duration minus the part covered by spans nested inside it on the same
/// thread.
std::vector<LayerRow> layer_table(const std::vector<TraceEvent>& events);

/// Formats the table as report lines.
void note_layer_table(const std::vector<LayerRow>& rows, Outcome* out);

/// Share of worker-thread time spent running pool tasks over the traced
/// window: sum of pool/task durations / (window x workers).
double pool_busy_share(const std::vector<TraceEvent>& events,
                       double window_s, std::size_t workers);

/// Adds every end-to-end metric's unit in one place so the three
/// workloads spell them alike.
void put_end_to_end(Outcome* out, double setup_s, double ops_per_s,
                    double p50_ms, double p99_ms, double loaded_p50_ms,
                    double loaded_p99_ms, double max_rate_rps);

}  // namespace perfbench
