// Tests for the thread-pool substrate: loop coverage, reductions, atomic
// helpers, and reuse across many dispatches (the BFS loop dispatches the
// pool once per kernel per level, so epoch handling must be airtight).
// The dispatch-protocol tests below also run under ThreadSanitizer in CI:
// their chunk bodies write plain memory that the caller reads after the
// dispatch returns, so a missing happens-before edge is a reported race.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace tilespmspv {
namespace {

class ThreadPoolSizes : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolSizes, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  const index_t n = 10007;  // prime, not a chunk multiple
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](index_t i) { hits[i].fetch_add(1); }, &pool);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ThreadPoolSizes, ParallelForRangesPartitions) {
  ThreadPool pool(GetParam());
  const index_t n = 5000;
  std::atomic<index_t> total{0};
  parallel_for_ranges(
      n, [&](index_t b, index_t e) { total.fetch_add(e - b); }, &pool,
      /*chunk=*/37);
  EXPECT_EQ(total.load(), n);
}

TEST_P(ThreadPoolSizes, ParallelReduceSum) {
  ThreadPool pool(GetParam());
  const index_t n = 12345;
  const long long got = parallel_reduce<long long>(
      n, 0LL, [](index_t i) { return static_cast<long long>(i); },
      [](long long a, long long b) { return a + b; }, &pool);
  EXPECT_EQ(got, static_cast<long long>(n) * (n - 1) / 2);
}

TEST_P(ThreadPoolSizes, ManySequentialDispatches) {
  ThreadPool pool(GetParam());
  // The BFS drivers re-enter the pool hundreds of times; make sure epochs
  // never deadlock or drop work.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    parallel_for(100, [&](index_t) { count.fetch_add(1); }, &pool,
                 /*chunk=*/7);
    ASSERT_EQ(count.load(), 100);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ThreadPoolSizes,
                         ::testing::Values(1, 2, 4, 8));

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(4);
  bool ran = false;
  parallel_for(0, [&](index_t) { ran = true; }, &pool);
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SizeReportsCallerPlusWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, SharedPoolWorks) {
  std::atomic<int> count{0};
  parallel_for(50, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(Atomics, AtomicOrAccumulates) {
  std::uint32_t w = 0;
  atomic_or(&w, 0x1u);
  atomic_or(&w, 0x80000000u);
  EXPECT_EQ(w, 0x80000001u);
}

TEST(Atomics, AtomicOrConcurrent) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> words(64, 0);
  parallel_for(
      64 * 64,
      [&](index_t i) {
        atomic_or(&words[i / 64], std::uint64_t{1} << (i % 64));
      },
      &pool, /*chunk=*/3);
  for (const auto w : words) EXPECT_EQ(w, ~std::uint64_t{0});
}

TEST(Atomics, AtomicLoadSeesStores) {
  std::uint32_t w = 0;
  atomic_or(&w, 42u);
  EXPECT_EQ(atomic_load(&w), 42u);
}

TEST(ThreadPool, TwoPoolsOperateIndependently) {
  ThreadPool a(3), b(2);
  std::atomic<int> ca{0}, cb{0};
  parallel_for(1000, [&](index_t) { ca.fetch_add(1); }, &a, 13);
  parallel_for(500, [&](index_t) { cb.fetch_add(1); }, &b, 7);
  parallel_for(1000, [&](index_t) { ca.fetch_add(1); }, &a, 13);
  EXPECT_EQ(ca.load(), 2000);
  EXPECT_EQ(cb.load(), 500);
}

TEST(ThreadPool, OffPoolThreadSeesSentinelSlot) {
  // Threads that are not inside any dispatch carry the -1 sentinel;
  // scratch_slot() folds it into the always-present caller bucket so
  // per-slot workspaces stay in bounds when kernels run off-pool (the
  // serving daemon's request threads are exactly this case).
  int slot = -2, scratch = -2;
  std::thread t([&] {
    slot = ThreadPool::current_slot();
    scratch = ThreadPool::scratch_slot();
  });
  t.join();
  EXPECT_EQ(slot, -1);
  EXPECT_EQ(scratch, 0);
}

TEST(ThreadPool, SlotsAreDenseWithinDispatch) {
  ThreadPool pool(4);
  std::atomic<int> out_of_range{0};
  parallel_for(
      4096,
      [&](index_t) {
        const int s = ThreadPool::current_slot();
        if (s < 0 || s >= static_cast<int>(pool.size())) {
          out_of_range.fetch_add(1);
        }
      },
      &pool, /*chunk=*/1);
  EXPECT_EQ(out_of_range.load(), 0);
}

TEST(ThreadPool, NestedDispatchOntoSmallerPoolRebindsSlot) {
  // Regression: a worker of a 4-thread pool used to keep its own slot
  // (1..3) while executing a body dispatched through a 1-thread pool,
  // indexing that pool's per-slot buffers out of bounds. The dispatch must
  // bind the thread to the small pool's caller slot and restore the worker
  // slot afterwards.
  ThreadPool big(4);
  ThreadPool small(1);
  std::atomic<int> bad_inner{0}, bad_restore{0};
  parallel_for(
      64,
      [&](index_t) {
        const int before = ThreadPool::current_slot();
        small.parallel_ranges(8, /*chunk=*/64, [&](index_t, index_t) {
          const int s = ThreadPool::current_slot();
          if (s < 0 || s >= static_cast<int>(small.size())) {
            bad_inner.fetch_add(1);
          }
        });
        if (ThreadPool::current_slot() != before) bad_restore.fetch_add(1);
      },
      &big, /*chunk=*/1);
  EXPECT_EQ(bad_inner.load(), 0);
  EXPECT_EQ(bad_restore.load(), 0);
}

TEST(ThreadPool, LargeChunkRunsSerially) {
  ThreadPool pool(4);
  // n <= chunk takes the serial fast path; verify order is sequential.
  std::vector<index_t> order;
  parallel_for_ranges(
      10, [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) order.push_back(i);
      },
      &pool, /*chunk=*/100);
  std::vector<index_t> expect(10);
  std::iota(expect.begin(), expect.end(), index_t{0});
  EXPECT_EQ(order, expect);
}

// Sleeps long enough that every idle worker outlasts its spin window and
// parks on the pool's condition variable.
void let_workers_park() {
  static_assert(ThreadPool::kSpinWindow < std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

// Dispatches pool.size() single-index chunks whose bodies each wait until
// every chunk has started. No thread can hold two chunks, so the loop
// completes only if every worker woke and took part (the caller alone
// cannot finish it). Returns false if that did not happen within a
// timeout far beyond any wake-up latency, instead of hanging.
bool dispatch_needing_every_worker(ThreadPool& pool) {
  const auto n = static_cast<index_t>(pool.size());
  std::atomic<index_t> arrived{0};
  std::atomic<bool> all_arrived{true};
  pool.parallel_ranges(n, /*chunk=*/1, [&](index_t, index_t) {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (arrived.load() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        all_arrived.store(false);
        return;
      }
      std::this_thread::yield();
    }
  });
  return all_arrived.load();
}

TEST(PoolProtocol, BackToBackTinyDispatchesCoverExactly) {
  // 100k dispatches in all, each just over one chunk so it takes the
  // parallel path: workers are mostly still spinning from the previous
  // dispatch when the next one is published.
  for (const int threads : {2, 4, 8, 16}) {
    ThreadPool pool(threads);
    const index_t n = 3;
    std::vector<int> hits(n, 0);  // plain: written only inside chunks
    for (int round = 1; round <= 25000; ++round) {
      pool.parallel_ranges(n, /*chunk=*/1, [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
      });
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)], round)
            << "threads=" << threads << " index " << i;
      }
    }
  }
}

TEST(PoolProtocol, DispatchAfterWorkersParkedWakesThemAll) {
  // Lost-wakeup check: the caller notifies only when it sees a parked
  // worker, so a worker parking while a dispatch is being published must
  // still be woken.
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const obs::CounterSnapshot before = obs::counters_snapshot();
    for (int round = 0; round < 10; ++round) {
      let_workers_park();
      ASSERT_TRUE(dispatch_needing_every_worker(pool))
          << "threads=" << threads << " round " << round;
    }
    if (obs::counters_enabled()) {
      const obs::CounterSnapshot d = obs::counters_snapshot() - before;
      EXPECT_GE(d[obs::Counter::kPoolParks], 1u) << "threads=" << threads;
    }
    // And straight after, with the workers still spinning.
    for (int round = 0; round < 10; ++round) {
      ASSERT_TRUE(dispatch_needing_every_worker(pool))
          << "threads=" << threads << " spinning round " << round;
    }
  }
}

TEST(PoolProtocol, ConstructDestroyWithWorkersSpinningOrParked) {
  for (int round = 0; round < 60; ++round) {
    ThreadPool pool(1 + round % 6);
    std::vector<int> hits(64, 0);
    parallel_for(
        64, [&](index_t i) { ++hits[static_cast<std::size_t>(i)]; }, &pool,
        /*chunk=*/5);
    for (const int h : hits) ASSERT_EQ(h, 1) << "round " << round;
    // Odd rounds destroy the pool with its workers parked, even rounds
    // while they are still spinning after the dispatch.
    if (round % 2 == 1) let_workers_park();
  }
  // Pools that never dispatched, destroyed with their workers still
  // spinning and after they parked without ever seeing a task.
  for (const bool park : {false, true}) {
    ThreadPool idle(4);
    if (park) let_workers_park();
  }
}

TEST(PoolProtocol, ShardedDispatchesCoverEveryIndexOnItsShard) {
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    pool.configure_shards(4, /*pin_threads=*/false);
    constexpr index_t kN = 1000;
    const std::vector<index_t> bounds{0, 100, 450, 460, kN};
    std::vector<int> hits(kN, 0);
    std::vector<int> shard_of(kN, -1);
    for (int round = 1; round <= 200; ++round) {
      pool.parallel_shard_ranges(bounds, 9, [&](index_t b, index_t e) {
        const int s = ThreadPool::current_shard();
        for (index_t i = b; i < e; ++i) {
          ++hits[static_cast<std::size_t>(i)];
          shard_of[static_cast<std::size_t>(i)] = s;
        }
      });
      for (int s = 0; s < 4; ++s) {
        for (index_t i = bounds[s]; i < bounds[s + 1]; ++i) {
          ASSERT_EQ(hits[static_cast<std::size_t>(i)], round) << "index " << i;
          ASSERT_EQ(shard_of[static_cast<std::size_t>(i)], s) << "index " << i;
        }
      }
    }
  }
}

TEST(PoolProtocol, PlainChunkWritesVisibleAfterReturn) {
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr index_t kN = 4096;
    std::vector<std::uint64_t> out(kN, 0);
    for (std::uint64_t round = 1; round <= 300; ++round) {
      pool.parallel_ranges(kN, /*chunk=*/17, [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) {
          out[static_cast<std::size_t>(i)] =
              round * kN + static_cast<std::uint64_t>(i);
        }
      });
      for (index_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(i)],
                  round * kN + static_cast<std::uint64_t>(i));
      }
      if (round % 100 == 0) let_workers_park();
    }
  }
}

TEST(PoolProtocol, ChunkCounterLandsBeforeReturn) {
  if (!obs::counters_enabled()) GTEST_SKIP() << "counters compiled out";
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    for (const index_t chunk : {1, 3, 64}) {
      for (const index_t n : {chunk + 1, 5 * chunk, 1000}) {
        const obs::CounterSnapshot before = obs::counters_snapshot();
        pool.parallel_ranges(n, chunk, [](index_t, index_t) {});
        const obs::CounterSnapshot d = obs::counters_snapshot() - before;
        EXPECT_EQ(d[obs::Counter::kPoolChunks],
                  static_cast<std::uint64_t>((n + chunk - 1) / chunk))
            << "threads=" << threads << " n=" << n << " chunk=" << chunk;
        EXPECT_EQ(d[obs::Counter::kPoolLoops], 1u);
      }
    }
  }
}

TEST(PoolProtocol, WorkerSpansLandBeforeReturn) {
  if (!obs::counters_enabled()) GTEST_SKIP() << "tracing compiled out";
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    obs::trace_enable();
    if (round % 2 == 1) let_workers_park();
    ASSERT_TRUE(dispatch_needing_every_worker(pool));
    // Read straight after return: every worker took part, so each one's
    // pool/task span must already be recorded.
    int tasks = 0, joins = 0, loops = 0;
    for (const obs::TraceSample& t : obs::trace_samples()) {
      tasks += t.name == "pool/task" ? 1 : 0;
      joins += t.name == "pool/join" ? 1 : 0;
      loops += t.name == "pool/parallel_ranges" ? 1 : 0;
    }
    obs::trace_disable();
    EXPECT_EQ(tasks, 3) << "round " << round;
    EXPECT_EQ(joins, 1) << "round " << round;
    EXPECT_EQ(loops, 1) << "round " << round;
  }
  obs::trace_clear();
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait ~2ms of wall clock.
  volatile double sink = 0.0;
  while (t.elapsed_ms() < 2.0) sink = sink + 1.0;
  EXPECT_GE(t.elapsed_ms(), 2.0);
  EXPECT_GT(t.elapsed_s(), 0.0);
  t.reset();
  EXPECT_LT(t.elapsed_ms(), 2.0);
  (void)sink;
}

TEST(Timer, TimeBestRunsWarmupPlusIters) {
  int calls = 0;
  const double best = time_best_ms([&] { ++calls; }, 5);
  EXPECT_EQ(calls, 6);  // 1 warm-up + 5 timed
  EXPECT_GE(best, 0.0);
}

}  // namespace
}  // namespace tilespmspv
