// `serve`: an in-process serve::Server with the shipped ServeConfig
// defaults (batch_k and the admission deadline are not pinned), driven over
// its unix-socket transport by nproc serve::Client connections. Setup admits
// two square matrices from files written untimed: one TTLF v2 tile file
// (mmap + hash verify) and one MatrixMarket stream (parse + validate +
// tile). Load is an open loop of Poisson arrivals stepped through a fixed
// ladder of rates; the mix is spmspv (BFS frontier vectors) and bfs
// queries plus a reload of the tile file at a fixed interval (an epoch
// swap under query traffic). Latency is timed from each request's due
// time.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "baselines/serial_bfs.hpp"
#include "bench_stats.hpp"
#include "bfs/tile_bfs.hpp"
#include "common.hpp"
#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "formats/csc.hpp"
#include "formats/mm_io.hpp"
#include "formats/tile_file.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "obs/json.hpp"
#include "obs/json_value.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tile/tile_matrix.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using tilespmspv::TileMatrix;
namespace obs = tilespmspv::obs;
namespace serve = tilespmspv::serve;

// The ladder of offered rates (requests/s). The lowest rung is where
// requests rarely share a flush (the admission deadline is paid alone);
// the top rung is where flushes batch most often — about a third carry
// k > 1 on a 4-vCPU VM, whose daemon saturates before most would. The end
// rungs carry three p99 blocks each (see block_percentile), the middle
// ones one.
constexpr double kRates[kRungs] = {100.0, 133.0, 166.0, 200.0};
constexpr std::size_t kRungBlocks[kRungs] = {3, 1, 1, 3};
// Each rung is split into this many segments, stepped through in cycles.
constexpr int kCycles = 4;
// max_rate_rps counts a rung only if its p99 latency-from-due stays
// within this limit and its backlog does not grow.
constexpr double kP99LimitMs = 50.0;
constexpr double kBfsShare = 0.1;  // rest are spmspv queries
constexpr double kReloadEveryS = 10.0;  // tile-file reload interval
constexpr std::size_t kBfsSources = 8;
constexpr std::size_t kFrontierSources = 32;
constexpr std::size_t kFrontiers = 64;
constexpr int kSetupReps = 7;
constexpr double kRelTol = 1e-9;  // see workload_spmspv.cpp

enum Kind { kSpmspv = 0, kBfs, kReload };

struct ServeMatrix {
  std::string alias;
  std::string path;
  Csr<value_t> a;
};

/// One distinct query and its oracle.
struct Query {
  Kind kind = kSpmspv;
  std::size_t m = 0;
  std::string line;               // request line
  SparseVec<value_t> x;           // spmspv input (direct runs)
  index_t source = 0;             // bfs input
  SparseVec<value_t> want_y;      // spmspv oracle
  std::vector<index_t> want_levels;  // bfs oracle
};

struct Scheduled {
  double due_s = 0.0;  // offset from rung start
  Kind kind = kSpmspv;
  std::size_t q = 0;   // index into queries (unused for reloads)
};

/// Outcome of checking one response: ok + output matches.
enum class Verdict { kOk, kFailed, kWrong };

struct Done {
  DueTimed t;
  Verdict verdict = Verdict::kFailed;
  Kind kind = kSpmspv;
  std::size_t q = 0;
  bool transport_ok = false;
  std::string resp;
};

std::string spmspv_line(const std::string& alias, const SparseVec<value_t>& x) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("op").value("spmspv");
  w.key("matrix").value(alias);
  w.key("indices").begin_array();
  for (const index_t i : x.idx) w.value(static_cast<std::int64_t>(i));
  w.end_array();
  w.key("values").begin_array();
  for (const value_t v : x.vals) w.value(static_cast<double>(v));
  w.end_array();
  w.end_object();
  return os.str();
}


Verdict check(const Done& d, const std::vector<Query>& qs) {
  if (!d.transport_ok) return Verdict::kFailed;
  obs::JsonValue v;
  if (!obs::json_parse_value(d.resp, &v) || !v.is_object()) {
    return Verdict::kFailed;
  }
  const obs::JsonValue* ok = v.find("ok");
  if (ok == nullptr || ok->kind != obs::JsonValue::Kind::kBool || !ok->b) {
    return Verdict::kFailed;
  }
  if (d.kind == kReload) return Verdict::kOk;
  const Query& q = qs[d.q];
  if (d.kind == kBfs) {
    const obs::JsonValue* lv = v.find("levels");
    if (lv == nullptr || !lv->is_array() ||
        lv->arr.size() != q.want_levels.size()) {
      return Verdict::kWrong;
    }
    for (std::size_t i = 0; i < lv->arr.size(); ++i) {
      if (lv->arr[i].num != static_cast<double>(q.want_levels[i])) {
        return Verdict::kWrong;
      }
    }
    return Verdict::kOk;
  }
  const obs::JsonValue* idx = v.find("indices");
  const obs::JsonValue* vals = v.find("values");
  if (idx == nullptr || vals == nullptr || !idx->is_array() ||
      !vals->is_array() || idx->arr.size() != q.want_y.idx.size() ||
      vals->arr.size() != q.want_y.vals.size()) {
    return Verdict::kWrong;
  }
  for (std::size_t i = 0; i < idx->arr.size(); ++i) {
    if (idx->arr[i].num != static_cast<double>(q.want_y.idx[i]) ||
        !near_rel(vals->arr[i].num, q.want_y.vals[i], kRelTol)) {
      return Verdict::kWrong;
    }
  }
  return Verdict::kOk;
}

/// Batcher / store / counter state read around a rung.
struct Snap {
  double queries = 0, flushes = 0, batched = 0, max_k = 0;
  double hits = 0, misses = 0;
  Counts counters;
};

Snap read_stats(serve::Client& c) {
  Snap s;
  s.counters = obs::counters_snapshot();
  std::string resp, err;
  if (!c.request("{\"op\":\"stats\"}", &resp, &err)) return s;
  obs::JsonValue v;
  if (!obs::json_parse_value(resp, &v)) return s;
  const obs::JsonValue* m = v.find("metrics");
  if (m == nullptr) return s;
  s.queries = m->number_or("serve.batch.spmspv_queries", 0) +
              m->number_or("serve.batch.bfs_queries", 0);
  s.flushes = m->number_or("serve.batch.flushes", 0);
  s.batched = m->number_or("serve.batch.batched_flushes", 0);
  s.max_k = m->number_or("serve.batch.max_flush_k", 0);
  s.hits = m->number_or("serve.store.hits", 0);
  s.misses = m->number_or("serve.store.misses", 0);
  return s;
}

/// One rung's requests and the daemon's counters over them, summed over
/// the rung's segments (the ladder is stepped through in cycles, so every
/// rung samples the same stretch of machine conditions).
struct Rung {
  double rate = 0.0;
  std::vector<Done> done;
  double span_s = 0.0;  // summed segment spans
  std::size_t segments = 0, growing = 0;
  std::uint64_t failed = 0, wrong = 0;
  double flushes = 0, batched = 0, queries = 0, hits = 0, lookups = 0;
  double max_k = 0;  // running maximum reported by the daemon
  Counts counters;

  double achieved_rps() const {
    std::size_t q = 0;
    for (const Done& d : done) q += d.kind != kReload ? 1 : 0;
    return span_s > 0 ? static_cast<double>(q) / span_s : 0.0;
  }
  /// A rung's backlog grows when it grew in most of its segments.
  bool backlog() const { return 2 * growing > segments; }

  void add(const Rung& seg) {
    done.insert(done.end(), seg.done.begin(), seg.done.end());
    span_s += seg.span_s;
    segments += seg.segments;
    growing += seg.growing;
    failed += seg.failed;
    wrong += seg.wrong;
    flushes += seg.flushes;
    batched += seg.batched;
    queries += seg.queries;
    hits += seg.hits;
    lookups += seg.lookups;
    max_k = std::max(max_k, seg.max_k);
    add_counts(counters, seg.counters);
  }
};

/// Seeded open-loop schedule of one segment: Poisson query arrivals at
/// `rate` plus reloads every kReloadEveryS.
std::vector<Scheduled> make_schedule(double rate, std::size_t nq,
                                     const std::vector<Query>& qs,
                                     const std::vector<std::size_t>& spm,
                                     const std::vector<std::size_t>& bfs,
                                     Prng& rng, double* next_reload_s) {
  std::vector<Scheduled> s;
  double t = 0.0;
  for (std::size_t i = 0; i < nq; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    Scheduled e;
    e.due_s = t;
    const bool is_bfs = rng.next_bool(kBfsShare);
    const auto& pool = is_bfs ? bfs : spm;
    e.q = pool[rng.next_below(pool.size())];
    e.kind = qs[e.q].kind;
    s.push_back(e);
  }
  // The reload clock runs across segments: `next_reload_s` is how far
  // into this segment the next reload falls.
  double r = *next_reload_s;
  for (; r < t; r += kReloadEveryS) {
    Scheduled e;
    e.due_s = r;
    e.kind = kReload;
    s.push_back(e);
  }
  *next_reload_s = r - t;
  std::sort(s.begin(), s.end(), [](const Scheduled& a, const Scheduled& b) {
    return a.due_s < b.due_s;
  });
  return s;
}

class LoadGen {
 public:
  LoadGen(std::string socket, std::size_t conns, const std::vector<Query>& qs,
         std::string reload_line)
      : socket_(std::move(socket)),
        conns_(conns),
        qs_(qs),
        reload_line_(std::move(reload_line)) {}

  /// Runs one segment: `conns` worker connections claim scheduled requests in
  /// due order, wait for the due time, send and record.
  Rung run(double rate, const std::vector<Scheduled>& sched,
           serve::Client& control, SpanTags* tags) {
    Rung r;
    r.rate = rate;
    r.segments = 1;
    r.done.resize(sched.size());
    const Snap before = read_stats(control);
    std::atomic<std::size_t> next{0};
    const double t0 = now_s() + 0.005;
    std::vector<std::thread> ths;
    for (std::size_t w = 0; w < conns_; ++w) {
      ths.emplace_back([&] {
        serve::Client c;
        std::string err;
        const bool up = c.connect(socket_, &err);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= sched.size()) break;
          const Scheduled& e = sched[i];
          Done& d = r.done[i];
          d.kind = e.kind;
          d.q = e.q;
          d.t.due_s = t0 + e.due_s;
          const double wait = d.t.due_s - now_s();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          d.t.sent_s = now_s();
          const std::string& line =
              e.kind == kReload ? reload_line_ : qs_[e.q].line;
          if (tags != nullptr) {
            obs::TraceSpan s(e.kind == kReload  ? "bench/serve.reload"
                             : e.kind == kBfs ? "bench/serve.bfs"
                                              : "bench/serve.spmspv",
                             "bench", tags->tag(i));
            d.transport_ok = up && c.request(line, &d.resp, &err);
          } else {
            d.transport_ok = up && c.request(line, &d.resp, &err);
          }
          d.t.done_s = now_s();
          // Checked as soon as the reply is in, off the request's clock, so
          // replies are not held: peak memory stays independent of the mix.
          d.verdict = check(d, qs_);
          d.resp.clear();
          d.resp.shrink_to_fit();
        }
      });
    }
    for (auto& t : ths) t.join();
    const Snap after = read_stats(control);
    r.flushes = after.flushes - before.flushes;
    r.batched = after.batched - before.batched;
    r.queries = after.queries - before.queries;
    r.hits = after.hits - before.hits;
    r.lookups = r.hits + (after.misses - before.misses);
    r.max_k = after.max_k;
    r.counters = after.counters - before.counters;
    double last = t0;
    std::vector<DueTimed> times;
    for (const Done& d : r.done) {
      last = std::max(last, d.t.done_s);
      if (d.kind != kReload) times.push_back(d.t);
      if (d.verdict == Verdict::kFailed) ++r.failed;
      if (d.verdict == Verdict::kWrong) ++r.wrong;
    }
    r.span_s = last - t0;
    r.growing = backlog_growing(times) ? 1 : 0;
    return r;
  }

 private:
  std::string socket_;
  std::size_t conns_;
  const std::vector<Query>& qs_;
  std::string reload_line_;
};

std::vector<double> query_lat(const Rung& r, double (DueTimed::*f)() const,
                              int kind = -1) {
  std::vector<double> v;
  for (const Done& d : r.done) {
    if (d.kind == kReload) continue;
    if (kind >= 0 && d.kind != kind) continue;
    v.push_back((d.t.*f)());
  }
  return v;
}

struct SetupResult {
  std::unique_ptr<serve::Server> server;
  double setup_s = 0.0;
  double load_ttlf_ms = 0.0;
  double load_stream_ms = 0.0;
  double hash_bytes = 0.0;
};

SetupResult set_up(const std::string& socket,
                   const std::vector<ServeMatrix>& ms, std::size_t threads) {
  SetupResult s;
  const Counts c0 = obs::counters_snapshot();
  const double t0 = now_s();
  serve::ServeConfig cfg;  // shipped defaults; only the socket is ours
  cfg.socket_path = socket;
  cfg.threads = threads;
  s.server = std::make_unique<serve::Server>(cfg);
  std::string err;
  if (!s.server->start(&err)) {
    throw std::runtime_error("serve: cannot start transport: " + err);
  }
  serve::Client c;
  if (!c.connect(socket, &err)) {
    throw std::runtime_error("serve: cannot connect: " + err);
  }
  for (std::size_t m = 0; m < ms.size(); ++m) {
    const double l0 = now_s();
    std::string resp;
    const std::string line = "{\"op\":\"load\",\"path\":\"" + ms[m].path +
                             "\",\"alias\":\"" + ms[m].alias + "\"}";
    if (!c.request(line, &resp, &err) ||
        resp.rfind("{\"ok\":true", 0) != 0) {
      throw std::runtime_error("serve: load of " + ms[m].path +
                               " failed: " + err + resp);
    }
    (m == 0 ? s.load_ttlf_ms : s.load_stream_ms) = (now_s() - l0) * 1e3;
  }
  s.setup_s = now_s() - t0;
  s.hash_bytes =
      static_cast<double>((obs::counters_snapshot() - c0)[Counter::kHashBytes]);
  return s;
}

/// Queries in a rung: its p99 blocks of the samples p99 needs, or more
/// when the run is long. `scale` shortens the traced run's ladders.
std::size_t rung_queries(int r, double seconds, double scale) {
  const auto blocks = static_cast<double>(
      kRungBlocks[r] * samples_needed(99.0));
  return static_cast<std::size_t>(
      std::ceil(std::max(blocks, kRates[r] * seconds / kRungs) * scale));
}

}  // namespace

Outcome run_serve(const RunOptions& opt) {
  Outcome out;
  // ---- Inputs, files and oracle (untimed) -----------------------------
  std::vector<ServeMatrix> ms(2);
  {
    tilespmspv::PowerlawParams web;
    web.n = 4096;
    web.avg_degree = 8.0;
    web.locality = 0.8;
    web.window = 128;
    web.symmetric = true;
    ms[0].alias = "web";
    ms[0].path = opt.out_dir + "/serve-web-" + std::to_string(getpid()) +
                 ".ttlf";
    ms[0].a = Csr<value_t>::from_coo(
        tilespmspv::gen_powerlaw(web, sub_seed(opt.seed, 1)));
    const tilespmspv::SpmspvConfig dflt;
    const auto t = TileMatrix<value_t>::from_csr(ms[0].a, dflt.nt,
                                                 dflt.extract_threshold);
    const auto tt = TileMatrix<value_t>::from_csr(
        ms[0].a.transpose(), dflt.nt, dflt.extract_threshold);
    tilespmspv::write_tile_matrix_file_v2(ms[0].path, t, &tt);

    tilespmspv::RmatParams rm;
    rm.scale = 12;
    rm.edge_factor = 8;
    const auto coo = tilespmspv::gen_rmat(rm, sub_seed(opt.seed, 2));
    ms[1].alias = "rmat";
    ms[1].path = opt.out_dir + "/serve-rmat-" + std::to_string(getpid()) +
                 ".mtx";
    ms[1].a = Csr<value_t>::from_coo(coo);
    std::ofstream f(ms[1].path);
    tilespmspv::write_matrix_market(f, coo);
  }
  // spmspv queries go to the tile-file matrix (the one reloaded under
  // them), bfs queries to the stream-loaded one: two admission queues, so
  // concurrent requests can share a flush.
  std::vector<Query> qs;
  std::vector<std::size_t> spm, bfs;
  {
    const Csr<value_t> out_edges = ms[0].a.transpose();
    const auto csc = tilespmspv::Csc<value_t>::from_csr(ms[0].a);
    Prng rng(sub_seed(opt.seed, 10));
    for (SparseVec<value_t>& x :
         frontier_sample(out_edges, kFrontierSources, kFrontiers, rng)) {
      Query q;
      q.kind = kSpmspv;
      q.m = 0;
      q.line = spmspv_line(ms[0].alias, x);
      q.want_y = tilespmspv::spmspv_colwise_reference(csc, x);
      q.x = std::move(x);
      spm.push_back(qs.size());
      qs.push_back(std::move(q));
    }
  }
  {
    const Csr<value_t> out_edges = ms[1].a.transpose();
    Prng rng(sub_seed(opt.seed, 11));
    for (std::size_t s = 0; s < kBfsSources; ++s) {
      Query b;
      b.kind = kBfs;
      b.m = 1;
      b.source = pick_source(out_edges, rng);
      b.want_levels = tilespmspv::serial_bfs(out_edges, b.source);
      b.line = "{\"op\":\"bfs\",\"matrix\":\"" + ms[1].alias +
               "\",\"source\":" + std::to_string(b.source) + "}";
      bfs.push_back(qs.size());
      qs.push_back(std::move(b));
    }
  }
  const std::string reload_line = "{\"op\":\"reload\",\"path\":\"" +
                                  ms[0].path + "\",\"alias\":\"" +
                                  ms[0].alias + "\"}";
  const std::string socket =
      opt.out_dir + "/serve-" + std::to_string(getpid()) + ".sock";

  // ---- Setup: server start + both loads, repeated, median reported ----
  std::vector<double> setup_s, load_ttlf, load_stream;
  SetupResult live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live = SetupResult{};  // stops the previous server first
    live = set_up(socket, ms, opt.threads);
    setup_s.push_back(live.setup_s);
    load_ttlf.push_back(live.load_ttlf_ms);
    load_stream.push_back(live.load_stream_ms);
  }
  for (std::size_t m = 0; m < ms.size(); ++m) {
    const std::size_t bytes =
        m == 0 ? static_cast<std::size_t>(
                     std::ifstream(ms[m].path, std::ios::ate | std::ios::binary)
                         .tellg())
               : static_cast<std::size_t>(ms[m].a.nnz()) * 17;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "traffic: serve matrix %-4s n=%d nnz=%lld %s ~%zu B "
                  "(L2 %zu, LLC %zu)",
                  ms[m].alias.c_str(), ms[m].a.rows,
                  static_cast<long long>(ms[m].a.nnz()),
                  m == 0 ? "TTLF file" : "tiled (computed 17 B/nnz)", bytes,
                  kL2Bytes, kLlcBytes);
    out.note(buf);
  }

  serve::Client control;
  {
    std::string err;
    if (!control.connect(socket, &err)) {
      throw std::runtime_error("serve: control connection: " + err);
    }
  }
  LoadGen loadgen(socket, opt.threads, qs, reload_line);
  Prng sched_rng(sub_seed(opt.seed, 50));

  auto ladder = [&](double scale, SpanTags* tags) {
    std::vector<Rung> rungs(kRungs);
    // Each rung keeps its own reload clock, so every rung sees the same
    // number of reloads per second of its schedule.
    std::vector<double> next_reload(kRungs, kReloadEveryS / 2);
    for (int c = 0; c < kCycles; ++c) {
      for (int r = 0; r < kRungs; ++r) {
        const std::size_t n =
            (rung_queries(r, opt.seconds, scale) + kCycles - 1) / kCycles;
        const auto sched =
            make_schedule(kRates[r], n, qs, spm, bfs, sched_rng,
                          &next_reload[static_cast<std::size_t>(r)]);
        rungs[static_cast<std::size_t>(r)].rate = kRates[r];
        rungs[static_cast<std::size_t>(r)].add(
            loadgen.run(kRates[r], sched, control, tags));
      }
    }
    return rungs;
  };
  auto tally = [&](const std::vector<Rung>& rungs) {
    for (const Rung& r : rungs) {
      out.attempted += r.done.size();
      out.failed += r.failed;
      out.wrong += r.wrong;
    }
  };
  auto note_rungs = [&](const std::vector<Rung>& rungs) {
    for (int r = 0; r < kRungs; ++r) {
      const Rung& g = rungs[static_cast<std::size_t>(r)];
      const double fl = g.flushes;
      const double bat = g.batched;
      const double q = g.queries;
      const std::vector<double> lat = query_lat(g, &DueTimed::latency_ms);
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "traffic: rung r%d offered %.0f/s achieved %.1f/s n=%zu p50 %.3f ms "
          "p99 %.3f ms backlog %s | flush-k histogram: k=1 %.0f, k>1 %.0f "
          "(mean k of those %.2f), max k so far %.0f",
          r, g.rate, g.achieved_rps(), lat.size(), percentile(lat, 50.0),
          block_percentile(lat, 99.0, samples_needed(99.0)),
          g.backlog() ? "growing" : "steady", fl - bat, bat,
          bat > 0 ? (q - (fl - bat)) / bat : 0.0, g.max_k);
      out.note(buf);
    }
  };

  if (!opt.trace) {
    const std::vector<Rung> rungs = ladder(1.0, nullptr);
    tally(rungs);
    note_rungs(rungs);
    const Rung& low = rungs.front();
    const Rung& top = rungs.back();
    const std::vector<double> low_lat = query_lat(low, &DueTimed::latency_ms);
    const std::vector<double> top_lat = query_lat(top, &DueTimed::latency_ms);
    double max_rate = 0.0;
    double total_q = 0.0, total_s = 0.0;
    for (const Rung& r : rungs) {
      const std::vector<double> lat = query_lat(r, &DueTimed::latency_ms);
      total_q += static_cast<double>(lat.size());
      total_s += r.span_s;
      if (block_percentile(lat, 99.0, samples_needed(99.0)) <= kP99LimitMs &&
          !r.backlog() && r.failed == 0) {
        max_rate = std::max(max_rate, r.achieved_rps());
      }
    }
    put_end_to_end(&out, median(setup_s), total_q / total_s,
                   percentile(low_lat, 50.0),
                   block_percentile(low_lat, 99.0, samples_needed(99.0)),
                   percentile(top_lat, 50.0),
                   block_percentile(top_lat, 99.0, samples_needed(99.0)),
                   max_rate);
    std::remove(ms[0].path.c_str());
    std::remove(ms[1].path.c_str());
    return out;
  }

  // ---- Traced run: short untraced ladder, traced ladder, 1 thread -----
  const double scale = 0.25;
  const std::vector<Rung> plain = ladder(scale, nullptr);
  SpanTags tags;
  trace_arm();
  const double tr0 = now_s();
  const std::vector<Rung> traced = ladder(scale, &tags);
  const double traced_wall = now_s() - tr0;
  const std::vector<TraceEvent> events = trace_collect(
      opt.out_dir + "/trace-serve.json");
  tally(plain);
  tally(traced);
  note_rungs(traced);

  LayerValues& L = out.layers;
  std::vector<double> req_spm, req_bfs, reload, all_req;
  for (const Rung& r : traced) {
    for (const Done& d : r.done) {
      (d.kind == kReload ? reload : d.kind == kBfs ? req_bfs : req_spm)
          .push_back(d.t.request_ms());
      if (d.kind != kReload) all_req.push_back(d.t.request_ms());
    }
  }
  L.set("serve.request_ms.spmspv", median(req_spm));
  L.set("serve.request_ms.bfs", median(req_bfs));
  L.set("serve.reload_ms", median(reload));
  double flushes = 0.0, queries = 0.0, hits = 0.0, lookups = 0.0;
  Counts delta;
  for (int r = 0; r < kRungs; ++r) {
    const Rung& g = traced[static_cast<std::size_t>(r)];
    const std::string rn = ".r" + std::to_string(r);
    L.set("serve.gen_lag_ms" + rn, mean(query_lat(g, &DueTimed::gen_lag_ms)));
    L.set("serve.batch.mean_k" + rn, g.flushes > 0 ? g.queries / g.flushes : 0.0);
    L.set("serve.batch.batched_share" + rn,
          g.flushes > 0 ? g.batched / g.flushes : 0.0);
    L.set("serve.batch.max_k" + rn, g.max_k);
    flushes += g.flushes;
    queries += g.queries;
    hits += g.hits;
    lookups += g.lookups;
    add_counts(delta, g.counters);
  }
  L.set("core.batch_lane_macs_per_flush",
        flushes > 0 ? static_cast<double>(delta[Counter::kBatchLaneMacs]) / flushes
                    : 0.0);
  L.set("core.batch_tiles_shared_per_flush",
        flushes > 0
            ? static_cast<double>(delta[Counter::kBatchTilesShared]) / flushes
            : 0.0);
  L.set("parallel.loops_per_op.serve",
        queries > 0 ? static_cast<double>(delta[Counter::kPoolLoops]) / queries
                    : 0.0);
  L.set("parallel.chunks_per_op.serve",
        queries > 0 ? static_cast<double>(delta[Counter::kPoolChunks]) / queries
                    : 0.0);
  L.set("serve.store.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  L.set("serve.load_ms.stream", median(load_stream));
  L.set("serve.load_ms.ttlf", median(load_ttlf));
  L.set("formats.hash_bytes", live.hash_bytes);
  L.set("parallel.busy_share",
        pool_busy_share(events, traced_wall, opt.threads - 1));
  std::vector<double> plain_req;
  for (const Rung& r : plain) {
    for (const double v : query_lat(r, &DueTimed::request_ms)) {
      plain_req.push_back(v);
    }
  }
  L.set("trace.overhead_pct", (mean(all_req) / mean(plain_req) - 1.0) * 100.0);

  // serve.overhead_ms: lowest-rung serve latency minus the same inputs run
  // directly through SpmspvOperator / TileBfs on the same pool size.
  {
    tilespmspv::ThreadPool pool(opt.threads);
    std::vector<std::unique_ptr<tilespmspv::SpmspvOperator<value_t>>> ops;
    std::vector<std::unique_ptr<tilespmspv::TileBfs>> bfss;
    for (const ServeMatrix& m : ms) {
      ops.push_back(std::make_unique<tilespmspv::SpmspvOperator<value_t>>(
          m.a, tilespmspv::SpmspvConfig{}, &pool));
      bfss.push_back(std::make_unique<tilespmspv::TileBfs>(
          m.a, tilespmspv::TileBfsConfig{}, &pool));
    }
    std::vector<double> direct;
    for (const Done& d : plain.front().done) {
      if (d.kind == kReload) continue;
      const Query& q = qs[d.q];
      const double t0 = now_s();
      if (q.kind == kBfs) {
        (void)bfss[q.m]->run(q.source);
      } else {
        (void)ops[q.m]->multiply(q.x);
      }
      direct.push_back((now_s() - t0) * 1e3);
    }
    L.set("serve.overhead_ms",
          median(query_lat(plain.front(), &DueTimed::latency_ms)) -
              median(direct));
  }

  // parallel.speedup.serve: the lowest rung again on a 1-thread server.
  {
    live = SetupResult{};
    SetupResult one = set_up(socket, ms, 1);
    serve::Client c1;
    std::string err;
    if (!c1.connect(socket, &err)) {
      throw std::runtime_error("serve: control connection: " + err);
    }
    double next_reload = kReloadEveryS;
    const auto sched =
        make_schedule(kRates[0], rung_queries(0, opt.seconds, scale), qs, spm,
                      bfs, sched_rng, &next_reload);
    const Rung r1 = loadgen.run(kRates[0], sched, c1, nullptr);
    out.attempted += r1.done.size();
    out.failed += r1.failed;
    out.wrong += r1.wrong;
    const double many = median(query_lat(plain.front(), &DueTimed::request_ms));
    const double single = median(query_lat(r1, &DueTimed::request_ms));
    L.set("parallel.speedup.serve", many > 0 ? single / many : 0.0);
  }
  note_layer_table(layer_table(events), &out);
  std::remove(ms[0].path.c_str());
  std::remove(ms[1].path.c_str());
  return out;
}

}  // namespace perfbench
