// The benchmark's own statistics: the percentile rule, due-time latency,
// backlog detection and self-time arithmetic.
#include <gtest/gtest.h>

#include "bench_stats.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, P99NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_EQ(samples_needed(99.0), 1000u);
  EXPECT_EQ(samples_needed(50.0), 20u);
  EXPECT_EQ(samples_needed(99.9), 10000u);
}

TEST(PercentileRule, InterpolatesBetweenOrderStatistics) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 50.5);
  EXPECT_NEAR(percentile(xs, 99.0), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(PercentileRule, BlockPercentileTakesTheMedianBlock) {
  // Three blocks of 1000; the middle one has a burst of slow samples.
  std::vector<double> xs;
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < 1000; ++i) {
      xs.push_back(b == 1 && i >= 900 ? 100.0 : 1.0 + i * 1e-3);
    }
  }
  const double p99 = block_percentile(xs, 99.0, 1000);
  EXPECT_LT(p99, 2.0);                  // the burst block is the outlier
  EXPECT_GT(percentile(xs, 99.0), 50);  // the pooled p99 is not robust
  // Under two blocks' worth, it is the plain percentile.
  const std::vector<double> few(xs.begin(), xs.begin() + 1500);
  EXPECT_DOUBLE_EQ(block_percentile(few, 99.0, 1000), percentile(few, 99.0));
}

TEST(DueTime, LatencyCountsTheGeneratorsLateness) {
  DueTimed t;
  t.due_s = 10.000;
  t.sent_s = 10.004;  // connection set was busy for 4 ms
  t.done_s = 10.006;
  EXPECT_NEAR(t.latency_ms(), 6.0, 1e-9);
  EXPECT_NEAR(t.request_ms(), 2.0, 1e-9);
  EXPECT_NEAR(t.gen_lag_ms(), 4.0, 1e-9);
}

std::vector<DueTimed> schedule(int n, double lateness_growth_ms) {
  std::vector<DueTimed> v;
  for (int i = 0; i < n; ++i) {
    DueTimed t;
    t.due_s = i * 0.001;
    t.sent_s = t.due_s;
    t.done_s = t.due_s + 0.002 + i * lateness_growth_ms * 1e-3;
    v.push_back(t);
  }
  return v;
}

TEST(Backlog, SteadyQueueIsNotGrowing) {
  EXPECT_FALSE(backlog_growing(schedule(300, 0.0)));
}

TEST(Backlog, LatenessThatKeepsRisingIsGrowing) {
  EXPECT_TRUE(backlog_growing(schedule(300, 0.1)));
}

TEST(Backlog, SmallDriftUnderTheFloorIsNotGrowing) {
  // Tail median 2.0 + 0.2*... stays within the 5 ms floor.
  EXPECT_FALSE(backlog_growing(schedule(300, 0.005)));
}

TEST(Backlog, OrderOfRecordsDoesNotMatter) {
  std::vector<DueTimed> v = schedule(300, 0.1);
  std::reverse(v.begin(), v.end());
  EXPECT_TRUE(backlog_growing(v));
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const Interval parent{0.0, 10.0};
  EXPECT_DOUBLE_EQ(self_time(parent, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time(parent, {{1.0, 3.0}, {5.0, 6.0}}), 7.0);
  // Overlapping children count once.
  EXPECT_DOUBLE_EQ(self_time(parent, {{1.0, 4.0}, {2.0, 5.0}}), 6.0);
  // Children clipped to the parent.
  EXPECT_DOUBLE_EQ(self_time(parent, {{-2.0, 1.0}, {9.0, 12.0}}), 8.0);
  // A child outside the parent covers nothing.
  EXPECT_DOUBLE_EQ(self_time(parent, {{11.0, 12.0}}), 10.0);
  // Nested children (grandchildren already inside a child) add nothing.
  EXPECT_DOUBLE_EQ(self_time(parent, {{2.0, 8.0}, {3.0, 4.0}}), 4.0);
}

TEST(OutputCheck, RelativeToleranceScalesWithMagnitude) {
  EXPECT_TRUE(near_rel(1e6 + 1e-4, 1e6, 1e-9));
  EXPECT_FALSE(near_rel(1e6 + 1e-2, 1e6, 1e-9));
  EXPECT_TRUE(near_rel(1e-12, 0.0, 1e-9));
  EXPECT_FALSE(near_rel(1e-8, 0.0, 1e-9));
}

}  // namespace
}  // namespace perfbench
