// Privatized CSC scatter/merge under contention. The CSC kernel replaced
// its per-value atomics with per-slot buckets merged during the gather;
// these tests hammer that path with many tile columns scattering into few
// output tiles on pools of several sizes, so a data race in the bucket
// ownership or the merge hand-off is visible to ThreadSanitizer (CI runs
// this binary under TSan) and any lost update breaks the exact-value
// checks below. Semiring multiplies (SemiringOperator) run the same kernel
// and are held to the same bitwise checks.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "core/tile_spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/vector_gen.hpp"

namespace tilespmspv {
namespace {

// Tall-thin transpose: many active tile rows of Aᵀ all scatter into the
// same few output tiles — the worst case for the old atomic scheme and
// the maximum-contention case for the bucket merge.
TEST(CscMerge, ManyColumnsFewOutputTilesAllPoolSizes) {
  const index_t rows = 64;     // 4 output tiles at nt = 16
  const index_t cols = 2048;   // 128 active tile rows of At
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(rows, cols, 0.05, 42));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  const SparseVec<value_t> x = gen_sparse_vector(cols, 0.8, 7);
  const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  const SparseVec<value_t> expect = spmspv_rowwise_reference(a, x);

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    SpmspvWorkspace<value_t> ws;
    for (int rep = 0; rep < 8; ++rep) {
      const SparseVec<value_t> y = tile_spmspv_csc(at, xt, ws, &pool);
      ASSERT_TRUE(approx_equal(y, expect))
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

// Bitwise reproducibility: buckets are keyed by a static range index, so
// the summation order depends only on the pool size. Repeating one
// multiply on one pool must give identical bits however the ranges were
// scheduled onto threads. The tall-thin shape makes many partial sums
// meet in each output tile, and the side COO part is exercised too.
TEST(CscMerge, RepeatedMultiplyIsBitwiseIdenticalOnOnePool) {
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(64, 2048, 0.02, 42));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 4);
  ASSERT_GT(at.extracted.nnz(), 0);
  ASSERT_GT(at.tiled_nnz(), 0);
  const SparseVec<value_t> x = gen_sparse_vector(2048, 0.8, 7);
  const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    SpmspvWorkspace<value_t> ws;
    const SparseVec<value_t> first = tile_spmspv_csc(at, xt, ws, &pool);
    for (int rep = 0; rep < 50; ++rep) {
      const SparseVec<value_t> y = tile_spmspv_csc(at, xt, ws, &pool);
      ASSERT_EQ(y.idx, first.idx) << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(y.vals, first.vals) << "threads=" << threads << " rep=" << rep;
    }
  }
}

// The semiring operator runs the same CSC kernel: under plus-times it must
// reproduce the numeric kCsc tier bit for bit on every pool size (same
// buckets, same merge order), with and without a side COO part.
TEST(CscMerge, PlusTimesSemiringEqualsCscKernelAllPoolSizes) {
  const Csr<value_t> thin =
      Csr<value_t>::from_coo(gen_erdos_renyi(64, 2048, 0.02, 42));
  const Csr<value_t> square =
      Csr<value_t>::from_coo(gen_erdos_renyi(1500, 1500, 0.004, 43));
  for (const Csr<value_t>* a : {&thin, &square}) {
    SCOPED_TRACE("rows=" + std::to_string(a->rows));
    for (const index_t extract : {index_t{0}, index_t{4}}) {
      const SparseVec<value_t> x = gen_sparse_vector(a->cols, 0.3, 7);
      for (const int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        SpmspvConfig cfg;
        cfg.extract_threshold = extract;
        cfg.kernel = SpmspvKernel::kCsc;
        SpmspvOperator<value_t> numeric(*a, cfg, &pool);
        SemiringOperator<PlusTimes<value_t>> semiring(*a, cfg.nt, extract,
                                                      &pool);
        const SparseVec<value_t> want = numeric.multiply(x);
        const SparseVec<value_t> got = semiring.multiply(x);
        EXPECT_EQ(got.idx, want.idx)
            << "extract=" << extract << " threads=" << threads;
        EXPECT_EQ(got.vals, want.vals)
            << "extract=" << extract << " threads=" << threads;
      }
    }
  }
}

// Semiring multiplies inherit the kernel's schedule independence: one
// multiply repeated on one pool gives identical bits every time.
TEST(CscMerge, RepeatedSemiringMultiplyIsBitwiseIdenticalOnOnePool) {
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(64, 2048, 0.02, 42));
  const SparseVec<value_t> x = gen_sparse_vector(2048, 0.8, 7);
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    SemiringOperator<PlusTimes<value_t>> op(a, 16, /*extract_threshold=*/4,
                                            &pool);
    const SparseVec<value_t> first = op.multiply(x);
    for (int rep = 0; rep < 50; ++rep) {
      const SparseVec<value_t> y = op.multiply(x);
      ASSERT_EQ(y.idx, first.idx) << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(y.vals, first.vals) << "threads=" << threads << " rep=" << rep;
    }
  }
}

// The workspace invariant the kernel relies on: every privatized buffer is
// all-zero between calls, so a stale value from a racy or skipped clear
// would poison the next multiply. Alternating two different vectors on one
// workspace catches exactly that.
TEST(CscMerge, WorkspaceBucketsAreCleanBetweenCalls) {
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(300, 300, 0.03, 11));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 32, 2);
  ThreadPool pool(4);
  SpmspvWorkspace<value_t> ws;
  for (int rep = 0; rep < 6; ++rep) {
    const SparseVec<value_t> x =
        gen_sparse_vector(300, rep % 2 ? 0.5 : 0.02, 100 + rep);
    const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 32);
    ASSERT_TRUE(
        approx_equal(tile_spmspv_csc(at, xt, ws, &pool),
                     spmspv_rowwise_reference(a, x)))
        << "rep=" << rep;
    for (const value_t v : ws.priv_vals) ASSERT_EQ(v, value_t{});
    for (const unsigned char t : ws.priv_touched) ASSERT_EQ(t, 0);
    for (const auto& list : ws.priv_list) ASSERT_TRUE(list.empty());
  }
}

// Concurrent multiplies from two submitting threads, each with its own
// pool and workspace (the pool is single-submitter by design): the
// thread_local slot bookkeeping and the privatized buckets of the two
// calls must stay fully independent — TSan flags any cross-talk.
TEST(CscMerge, ConcurrentCallsOnSeparatePoolsStayIndependent) {
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(400, 400, 0.04, 5));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  const SparseVec<value_t> x1 = gen_sparse_vector(400, 0.3, 21);
  const SparseVec<value_t> x2 = gen_sparse_vector(400, 0.3, 22);
  const TileVector<value_t> xt1 = TileVector<value_t>::from_sparse(x1, 16);
  const TileVector<value_t> xt2 = TileVector<value_t>::from_sparse(x2, 16);
  const SparseVec<value_t> e1 = spmspv_rowwise_reference(a, x1);
  const SparseVec<value_t> e2 = spmspv_rowwise_reference(a, x2);

  ThreadPool pool_a(4);
  ThreadPool pool_b(4);
  for (int rep = 0; rep < 4; ++rep) {
    SparseVec<value_t> y1, y2;
    std::thread t1([&] {
      SpmspvWorkspace<value_t> ws;
      y1 = tile_spmspv_csc(at, xt1, ws, &pool_a);
    });
    std::thread t2([&] {
      SpmspvWorkspace<value_t> ws;
      y2 = tile_spmspv_csc(at, xt2, ws, &pool_b);
    });
    t1.join();
    t2.join();
    ASSERT_TRUE(approx_equal(y1, e1)) << "rep=" << rep;
    ASSERT_TRUE(approx_equal(y2, e2)) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace tilespmspv
