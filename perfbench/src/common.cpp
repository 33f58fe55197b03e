#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "baselines/serial_bfs.hpp"
#include "bench_stats.hpp"
#include "obs/json_value.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

index_t pick_source(const Csr<value_t>& out_edges, Prng& rng) {
  index_t best = 0;
  index_t best_reached = -1;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto v = static_cast<index_t>(
        rng.next_below(static_cast<std::uint64_t>(out_edges.rows)));
    if (out_edges.row_nnz(v) == 0) continue;
    const std::vector<index_t> lv = tilespmspv::serial_bfs(out_edges, v);
    const auto reached = static_cast<index_t>(
        std::count_if(lv.begin(), lv.end(), [](index_t l) { return l >= 0; }));
    if (reached > best_reached) {
      best = v;
      best_reached = reached;
    }
    if (2 * reached >= out_edges.rows) break;
  }
  return best;
}

std::vector<SparseVec<value_t>> frontier_sample(const Csr<value_t>& out_edges,
                                                std::size_t sources,
                                                std::size_t keep, Prng& rng) {
  struct Candidate {
    std::size_t size = 0, source = 0;
    index_t level = 0;
  };
  std::vector<std::vector<index_t>> levels;
  std::vector<Candidate> cands;
  for (std::size_t s = 0; s < sources; ++s) {
    levels.push_back(
        tilespmspv::serial_bfs(out_edges, pick_source(out_edges, rng)));
    std::vector<std::size_t> sizes;
    for (const index_t l : levels.back()) {
      if (l < 0) continue;
      if (static_cast<std::size_t>(l) >= sizes.size()) sizes.resize(l + 1, 0);
      ++sizes[static_cast<std::size_t>(l)];
    }
    for (std::size_t l = 0; l < sizes.size(); ++l) {
      cands.push_back({sizes[l], s, static_cast<index_t>(l)});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.size != b.size) return a.size < b.size;
              if (a.source != b.source) return a.source < b.source;
              return a.level < b.level;
            });
  std::vector<SparseVec<value_t>> out;
  for (std::size_t i = 0; i < keep && !cands.empty(); ++i) {
    const Candidate& c = cands[(2 * i + 1) * cands.size() / (2 * keep)];
    const std::vector<index_t>& lv = levels[c.source];
    SparseVec<value_t> x(out_edges.rows);
    for (index_t v = 0; v < out_edges.rows; ++v) {
      if (lv[static_cast<std::size_t>(v)] == c.level) {
        x.push(v, rng.next_double(0.5, 1.5));
      }
    }
    out.push_back(std::move(x));
  }
  return out;
}

const char* SpanTags::tag(std::uint64_t op_id) {
  std::lock_guard<std::mutex> g(mu_);
  tags_.push_back("op=" + std::to_string(op_id));
  return tags_.back().c_str();
}

void trace_arm() {
  // Sized for the traced window: the BFS workload's grid graph records a
  // few thousand pool spans per traversal.
  tilespmspv::obs::trace_enable(std::size_t{1} << 19);
}

std::vector<TraceEvent> trace_collect(const std::string& path) {
  namespace obs = tilespmspv::obs;
  obs::trace_disable();
  std::ostringstream os;
  obs::trace_write_chrome_json(os);
  const std::string text = os.str();
  {
    std::ofstream f(path);
    f << text;
  }
  std::vector<TraceEvent> events;
  obs::JsonValue doc;
  if (!obs::json_parse_value(text, &doc)) return events;
  const obs::JsonValue* evs = doc.find("traceEvents");
  if (evs == nullptr || !evs->is_array()) return events;
  for (const obs::JsonValue& e : evs->arr) {
    if (e.string_or("ph", "") != "X") continue;
    TraceEvent t;
    t.name = e.string_or("name", "");
    t.ts_us = e.number_or("ts", 0.0);
    t.dur_us = e.number_or("dur", 0.0);
    t.tid = static_cast<int>(e.number_or("tid", 0.0));
    events.push_back(std::move(t));
  }
  obs::trace_clear();
  return events;
}

std::vector<LayerRow> layer_table(const std::vector<TraceEvent>& events) {
  // Group by thread, then walk each thread's spans in start order with a
  // stack of open ancestors: a span's children are the spans nested in it.
  std::map<int, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(&e);
  std::map<std::string, LayerRow> rows;
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;  // parent before child
              });
    std::vector<std::vector<Interval>> children(evs.size());
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const double b = evs[i]->ts_us;
      while (!stack.empty() &&
             evs[stack.back()]->ts_us + evs[stack.back()]->dur_us <= b) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        children[stack.back()].push_back({b, b + evs[i]->dur_us});
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const Interval span{evs[i]->ts_us, evs[i]->ts_us + evs[i]->dur_us};
      LayerRow& r = rows[evs[i]->name];
      r.name = evs[i]->name;
      ++r.count;
      r.total_ms += evs[i]->dur_us / 1e3;
      r.self_ms += self_time(span, children[i]) / 1e3;
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, r] : rows) out.push_back(r);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

void note_layer_table(const std::vector<LayerRow>& rows, Outcome* out) {
  out->note("per-layer spans (self = span minus same-thread nested spans):");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-32s %10s %12s %12s", "span", "count",
                "total_ms", "self_ms");
  out->note(buf);
  for (const LayerRow& r : rows) {
    std::snprintf(buf, sizeof(buf), "  %-32s %10llu %12.3f %12.3f",
                  r.name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ms, r.self_ms);
    out->note(buf);
  }
}

double pool_busy_share(const std::vector<TraceEvent>& events,
                       double window_s, std::size_t workers) {
  if (window_s <= 0.0 || workers == 0) return 0.0;
  double busy_us = 0.0;
  for (const TraceEvent& e : events) {
    if (e.name == "pool/task") busy_us += e.dur_us;
  }
  return busy_us / (window_s * 1e6 * static_cast<double>(workers));
}

void put_end_to_end(Outcome* out, double setup_s, double ops_per_s,
                    double p50_ms, double p99_ms, double loaded_p50_ms,
                    double loaded_p99_ms, double max_rate_rps) {
  out->put("setup_s", setup_s, "s");
  out->put("ops_per_s", ops_per_s, "1/s");
  out->put("latency_p50_ms", p50_ms, "ms");
  out->put("latency_p99_ms", p99_ms, "ms");
  out->put("loaded_p50_ms", loaded_p50_ms, "ms");
  out->put("loaded_p99_ms", loaded_p99_ms, "ms");
  out->put("max_rate_rps", max_rate_rps, "1/s");
}

}  // namespace perfbench
