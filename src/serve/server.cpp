#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "formats/validate.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace tilespmspv::serve {

namespace {

std::string error_line(const std::string& op, const std::string& msg) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("ok").value(false);
  if (!op.empty()) w.key("op").value(op);
  w.key("error").value(msg);
  w.end_object();
  return os.str();
}

/// Pulls a sparse vector out of a spmspv request's "indices"/"values"
/// arrays and validates it against the snapshot's column count — client
/// input is untrusted, so this is a trust boundary like the
/// deserializers.
SparseVec<value_t> parse_vector(const obs::JsonValue& req, index_t n) {
  const obs::JsonValue* idx = req.find("indices");
  const obs::JsonValue* vals = req.find("values");
  if (idx == nullptr || !idx->is_array()) {
    throw std::invalid_argument("missing 'indices' array");
  }
  SparseVec<value_t> x(n);
  x.reserve(idx->arr.size());
  for (std::size_t i = 0; i < idx->arr.size(); ++i) {
    if (!idx->arr[i].is_number()) {
      throw std::invalid_argument("'indices' must be numbers");
    }
    const double di = idx->arr[i].num;
    const auto ii = static_cast<index_t>(di);
    if (static_cast<double>(ii) != di || ii < 0 || ii >= n) {
      throw std::invalid_argument("index out of range for matrix columns");
    }
    value_t v = value_t{1};
    if (vals != nullptr && vals->is_array()) {
      if (vals->arr.size() != idx->arr.size()) {
        throw std::invalid_argument("'values' length must match 'indices'");
      }
      if (!vals->arr[i].is_number()) {
        throw std::invalid_argument("'values' must be numbers");
      }
      v = static_cast<value_t>(vals->arr[i].num);
    }
    x.idx.push_back(ii);
    x.vals.push_back(v);
  }
  const ValidationResult vr = validate_sparse_vec(x);
  if (!vr.ok()) {
    throw std::invalid_argument("vector failed validation: " + vr.message());
  }
  return x;
}

}  // namespace

void ServerStats::record(const std::string& op, double ms, bool ok) {
  std::lock_guard<std::mutex> g(mu_);
  OpStats* s = nullptr;
  for (auto& o : ops_) {
    if (o.op == op) {
      s = &o;
      break;
    }
  }
  if (s == nullptr) {
    ops_.push_back({op, 0, 0, {}});
    s = &ops_.back();
  }
  ++s->requests;
  if (!ok) ++s->errors;
  s->latency.add(ms);
}

void ServerStats::fill(obs::MetricsRegistry* reg) const {
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& o : ops_) {
    const std::string p = "serve.op." + o.op + ".";
    reg->put_int(p + "requests", static_cast<std::int64_t>(o.requests));
    reg->put_int(p + "errors", static_cast<std::int64_t>(o.errors));
    if (o.latency.count() > 0) {
      reg->put_double(p + "p50_ms", o.latency.percentile(50.0));
      reg->put_double(p + "p95_ms", o.latency.percentile(95.0));
      reg->put_double(p + "p99_ms", o.latency.percentile(99.0));
    }
  }
}

Server::Server(const ServeConfig& cfg)
    : cfg_(cfg),
      pool_(cfg.threads),
      store_(cfg.cache_bytes),
      batcher_(BatchConfig{cfg.batch_k, cfg.deadline_ms}, &pool_) {}

Server::~Server() { stop(); }

std::string Server::handle_line(const std::string& line) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string op = "?";
  std::string resp;
  try {
    obs::JsonValue req;
    if (!obs::json_parse_value(line, &req) || !req.is_object()) {
      resp = error_line("", "malformed JSON request");
    } else {
      op = req.string_or("op", "");
      if (op == "ping") {
        resp = "{\"ok\":true,\"op\":\"ping\"}";
      } else if (op == "load" || op == "reload") {
        resp = do_load(req);
      } else if (op == "unload") {
        resp = do_unload(req);
      } else if (op == "list") {
        resp = do_list();
      } else if (op == "spmspv") {
        resp = do_spmspv(req);
      } else if (op == "bfs") {
        resp = do_bfs(req);
      } else if (op == "stats") {
        resp = do_stats();
      } else if (op == "shutdown") {
        {
          std::lock_guard<std::mutex> g(mu_);
          shutdown_requested_ = true;
        }
        resp = "{\"ok\":true,\"op\":\"shutdown\"}";
      } else {
        resp = error_line(op, "unknown op '" + op + "'");
      }
    }
  } catch (const std::exception& e) {
    resp = error_line(op, e.what());
  } catch (...) {
    resp = error_line(op, "unknown error");
  }
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  const bool ok = resp.rfind("{\"ok\":true", 0) == 0;
  stats_.record(op.empty() ? "?" : op, ms, ok);
  return resp;
}

std::string Server::do_load(const obs::JsonValue& req) {
  const std::string path = req.string_or("path", "");
  const std::string suite = req.string_or("suite", "");
  const std::string alias = req.string_or("alias", "");
  if ((path.empty()) == (suite.empty())) {
    throw std::invalid_argument("load needs exactly one of 'path'/'suite'");
  }
  const std::shared_ptr<MatrixSnapshot> snap =
      path.empty() ? load_snapshot_suite(suite, alias, cfg_.spmspv)
                   : load_snapshot_file(path, alias, cfg_.spmspv);
  std::vector<std::string> evicted;
  // put() stamps the epoch on this same snapshot (bumped on a reload).
  const std::string key = store_.put(snap, &evicted);
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("ok").value(true);
  w.key("op").value("load");
  w.key("key").value(key);
  if (!alias.empty()) w.key("alias").value(alias);
  w.key("rows").value(static_cast<std::int64_t>(snap->rows));
  w.key("cols").value(static_cast<std::int64_t>(snap->cols));
  w.key("nnz").value(static_cast<std::int64_t>(snap->nnz));
  w.key("bytes").value(static_cast<std::uint64_t>(snap->bytes));
  w.key("epoch").value(snap->epoch);
  w.key("evicted").begin_array();
  for (const auto& k : evicted) w.value(k);
  w.end_array();
  w.end_object();
  return os.str();
}

std::string Server::do_unload(const obs::JsonValue& req) {
  const std::string name = req.string_or("matrix", "");
  if (name.empty()) throw std::invalid_argument("unload needs 'matrix'");
  if (!store_.erase(name)) {
    return error_line("unload", "matrix '" + name + "' is not resident");
  }
  return "{\"ok\":true,\"op\":\"unload\"}";
}

std::string Server::do_list() {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("ok").value(true);
  w.key("op").value("list");
  w.key("matrices").begin_array();
  for (const auto& m : store_.list()) {
    w.begin_object();
    w.key("key").value(m.key);
    w.key("alias").value(m.alias);
    w.key("source").value(m.source);
    w.key("rows").value(static_cast<std::int64_t>(m.rows));
    w.key("cols").value(static_cast<std::int64_t>(m.cols));
    w.key("nnz").value(static_cast<std::int64_t>(m.nnz));
    w.key("bytes").value(static_cast<std::uint64_t>(m.bytes));
    w.key("epoch").value(m.epoch);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

std::string Server::do_spmspv(const obs::JsonValue& req) {
  const std::string name = req.string_or("matrix", "");
  SnapshotPtr snap = store_.get(name);
  if (!snap) {
    return error_line("spmspv", "matrix '" + name + "' is not resident");
  }
  SparseVec<value_t> x = parse_vector(req, snap->cols);
  // Admission: the future resolves when the batch containing this query
  // flushes (k reached or deadline hit).
  const std::uint64_t epoch = snap->epoch;
  SparseVec<value_t> y =
      batcher_.submit_spmspv(std::move(snap), std::move(x)).get();
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("ok").value(true);
  w.key("op").value("spmspv");
  w.key("epoch").value(epoch);
  w.key("n").value(static_cast<std::int64_t>(y.n));
  w.key("nnz").value(static_cast<std::int64_t>(y.nnz()));
  w.key("indices").begin_array();
  for (const index_t i : y.idx) w.value(static_cast<std::int64_t>(i));
  w.end_array();
  w.key("values").begin_array();
  for (const value_t v : y.vals) w.value(static_cast<double>(v));
  w.end_array();
  w.end_object();
  return os.str();
}

std::string Server::do_bfs(const obs::JsonValue& req) {
  const std::string name = req.string_or("matrix", "");
  SnapshotPtr snap = store_.get(name);
  if (!snap) {
    return error_line("bfs", "matrix '" + name + "' is not resident");
  }
  const double ds = req.number_or("source", -1.0);
  const auto source = static_cast<index_t>(ds);
  if (static_cast<double>(source) != ds) {
    throw std::invalid_argument("bfs needs an integer 'source'");
  }
  const std::uint64_t epoch = snap->epoch;
  std::vector<index_t> levels =
      batcher_.submit_bfs(std::move(snap), source).get();
  index_t reached = 0;
  for (const index_t l : levels) reached += (l >= 0) ? 1 : 0;
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("ok").value(true);
  w.key("op").value("bfs");
  w.key("epoch").value(epoch);
  w.key("n").value(static_cast<std::int64_t>(levels.size()));
  w.key("reached").value(static_cast<std::int64_t>(reached));
  w.key("levels").begin_array();
  for (const index_t l : levels) w.value(static_cast<std::int64_t>(l));
  w.end_array();
  w.end_object();
  return os.str();
}

std::string Server::do_stats() {
  obs::MetricsRegistry reg;
  const MatrixStore::Stats ss = store_.stats();
  reg.put_int("serve.store.entries", static_cast<std::int64_t>(ss.entries));
  reg.put_int("serve.store.resident_bytes",
              static_cast<std::int64_t>(ss.resident_bytes));
  reg.put_int("serve.store.hits", static_cast<std::int64_t>(ss.hits));
  reg.put_int("serve.store.misses", static_cast<std::int64_t>(ss.misses));
  reg.put_int("serve.store.evictions",
              static_cast<std::int64_t>(ss.evictions));
  reg.put_int("serve.store.swaps", static_cast<std::int64_t>(ss.swaps));
  const Batcher::Stats bs = batcher_.stats();
  reg.put_int("serve.batch.spmspv_queries",
              static_cast<std::int64_t>(bs.spmspv_queries));
  reg.put_int("serve.batch.bfs_queries",
              static_cast<std::int64_t>(bs.bfs_queries));
  reg.put_int("serve.batch.flushes", static_cast<std::int64_t>(bs.flushes));
  reg.put_int("serve.batch.batched_flushes",
              static_cast<std::int64_t>(bs.batched_flushes));
  reg.put_int("serve.batch.max_flush_k",
              static_cast<std::int64_t>(bs.max_flush_k));
  reg.put_int("serve.batch.errors", static_cast<std::int64_t>(bs.errors));
  stats_.fill(&reg);
  reg.add_counters(obs::counters_snapshot());
  std::ostringstream metrics;
  reg.write_json(metrics);
  // The registry pretty-prints; the NDJSON framing needs one physical
  // line. Newlines only ever appear between JSON tokens (string values
  // escape them), so dropping them is safe.
  std::string flat = metrics.str();
  std::erase_if(flat, [](char c) { return c == '\n' || c == '\r'; });
  std::ostringstream os;
  os << "{\"ok\":true,\"op\":\"stats\",\"metrics\":" << flat << "}";
  return os.str();
}

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> g(mu_);
  return shutdown_requested_;
}

bool Server::start(std::string* err) {
  std::lock_guard<std::mutex> g(mu_);
  if (transport_running_) return true;
  if (cfg_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    if (err != nullptr) *err = "socket path too long";
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err != nullptr) *err = std::strerror(errno);
    return false;
  }
  ::unlink(cfg_.socket_path.c_str());  // stale socket from a prior run
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    if (err != nullptr) *err = std::strerror(errno);
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  transport_running_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::stop() {
  std::vector<std::thread> to_join;
  std::thread accept_join;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!transport_running_) return;
    transport_running_ = false;
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    to_join.swap(conn_threads_);
    accept_join = std::move(accept_thread_);
  }
  if (accept_join.joinable()) accept_join.join();
  for (auto& t : to_join) {
    if (t.joinable()) t.join();
  }
  ::unlink(cfg_.socket_path.c_str());
}

void Server::accept_loop() {
  for (;;) {
    int fd = -1;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!transport_running_) return;
      fd = listen_fd_;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (pr < 0 && errno != EINTR) return;
    if (pr <= 0) continue;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed by stop()
    }
    std::lock_guard<std::mutex> g(mu_);
    if (!transport_running_) {
      ::close(conn);
      return;
    }
    conn_fds_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { connection_loop(conn); });
  }
}

void Server::connection_loop(int fd) {
  std::string buf;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(r));
    std::size_t nl = 0;
    while (alive && (nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string resp = handle_line(line);
      resp.push_back('\n');
      std::size_t sent = 0;
      while (sent < resp.size()) {
        const ssize_t wr =
            ::send(fd, resp.data() + sent, resp.size() - sent, MSG_NOSIGNAL);
        if (wr <= 0) {
          alive = false;
          break;
        }
        sent += static_cast<std::size_t>(wr);
      }
    }
  }
  // Deregister before closing so stop() never shutdown()s a recycled fd
  // number: fds in conn_fds_ are always still open.
  std::lock_guard<std::mutex> g(mu_);
  for (auto it = conn_fds_.begin(); it != conn_fds_.end(); ++it) {
    if (*it == fd) {
      conn_fds_.erase(it);
      break;
    }
  }
  ::close(fd);
}

}  // namespace tilespmspv::serve
