// The benchmark's own statistics: the percentile rule, due-time latency
// for the open loop, backlog detection and span self-time arithmetic,
// pinned on hand-made samples by tests/test_bench_stats.cpp. Percentiles
// interpolate linearly between order statistics (util/stats.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using tilespmspv::mean;
using tilespmspv::percentile;

/// Samples a percentile leaves above itself: n minus the nearest-rank
/// position of p. p99 of 1000 samples leaves 10; of 999, only 9.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9);
  const auto r = static_cast<std::size_t>(std::max(0.0, rank));
  return r >= n ? 0 : n - r;
}

/// The percentile rule: a tail percentile is reported only when at least
/// `min_beyond` samples lie beyond it.
inline bool percentile_supported(std::size_t n, double p,
                                 std::size_t min_beyond = 10) {
  return samples_beyond(n, p) >= min_beyond;
}

/// Samples needed before p is supported (1000 for p99).
inline std::size_t samples_needed(double p, std::size_t min_beyond = 10) {
  std::size_t n = min_beyond;
  while (!percentile_supported(n, p, min_beyond)) ++n;
  return n;
}

inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

/// Tail percentile robust to a burst of machine noise: the samples (in
/// the order they were taken) are cut into consecutive blocks of `block`
/// samples, each block's p-th percentile is taken, and the median of
/// those is returned. A trailing partial block is folded into the last
/// full one; under two blocks' worth it is the plain percentile.
inline double block_percentile(const std::vector<double>& xs, double p,
                               std::size_t block) {
  if (block == 0 || xs.size() < 2 * block) return percentile(xs, p);
  const std::size_t blocks = xs.size() / block;
  std::vector<double> per;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = xs.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks
                          ? xs.end()
                          : first + static_cast<std::ptrdiff_t>(block);
    per.push_back(percentile(std::vector<double>(first, last), p));
  }
  return median(per);
}

/// One open-loop request on the benchmark's clock (seconds): when it was
/// due, when the generator actually sent it, and when its reply arrived.
struct DueTimed {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;

  /// What a user waits: from the due time, so a stalled generator or a
  /// full connection set charges the wait to every request behind it.
  double latency_ms() const { return (done_s - due_s) * 1e3; }
  /// Send to reply, without the generator's lateness.
  double request_ms() const { return (done_s - sent_s) * 1e3; }
  /// How late the generator sent.
  double gen_lag_ms() const { return (sent_s - due_s) * 1e3; }
};

/// A backlog grows when requests finish later and later behind their due
/// times: the median latency-from-due of the last third of the schedule
/// exceeds the first third's by both `ratio` and `min_ms`. A queue that
/// holds steady keeps the thirds equal however long it is.
inline bool backlog_growing(const std::vector<DueTimed>& reqs,
                            double ratio = 2.0, double min_ms = 5.0) {
  if (reqs.size() < 6) return false;
  std::vector<DueTimed> by_due = reqs;
  std::sort(by_due.begin(), by_due.end(),
            [](const DueTimed& a, const DueTimed& b) {
              return a.due_s < b.due_s;
            });
  const std::size_t third = by_due.size() / 3;
  std::vector<double> head, tail;
  for (std::size_t i = 0; i < third; ++i) {
    head.push_back(by_due[i].latency_ms());
    tail.push_back(by_due[by_due.size() - 1 - i].latency_ms());
  }
  const double h = median(head);
  const double t = median(tail);
  return t > h * ratio && t - h > min_ms;
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of `parent` covered by the union of `children` (clipped to the
/// parent; overlapping children count once).
inline double covered_length(std::vector<Interval> children,
                             const Interval& parent) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::erase_if(children, [](const Interval& c) { return c.end <= c.begin; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double run_begin = 0.0, run_end = -1.0;
  bool open = false;
  for (const Interval& c : children) {
    if (open && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

/// Self time: the span's duration minus the part its children cover.
inline double self_time(const Interval& parent,
                        const std::vector<Interval>& children) {
  return (parent.end - parent.begin) - covered_length(children, parent);
}

/// True when two values agree within a relative tolerance (absolute near
/// zero): the SpMSpV output check.
inline bool near_rel(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::max(1.0, std::fabs(want));
}

}  // namespace perfbench
