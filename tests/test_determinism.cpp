// Bitwise reproducibility of the row-driven kernels: the CSR-form
// tile_spmspv (masked or not), the dense-tier tile_spmv and the block
// engine tile_spmspm. Each output value is summed by the one task that
// owns its tile row, tiles first and then the row's extracted side
// entries, in a fixed order. So on a side-heavy matrix the results must be
// identical (EXPECT_EQ, not NEAR) across pool sizes, repeated runs and
// heap vs mapped storage.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/tile_spmv.hpp"
#include "core/spmspv_reference.hpp"
#include "core/tile_spmspm.hpp"
#include "core/tile_spmspv.hpp"
#include "formats/csr.hpp"
#include "formats/tile_file.hpp"
#include "gen/suite.hpp"
#include "gen/vector_gen.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector_block.hpp"

namespace tilespmspv {
namespace {

using Outputs = std::vector<SparseVec<value_t>>;

const Csr<value_t>& side_heavy_csr() {
  static const Csr<value_t> a =
      Csr<value_t>::from_coo(suite_matrix("rmat-small"));
  return a;
}

std::vector<SparseVec<value_t>> inputs(index_t n) {
  std::vector<SparseVec<value_t>> xs;
  unsigned seed = 1601;
  for (const double sparsity : {0.002, 0.02, 0.2}) {
    xs.push_back(gen_sparse_vector(n, sparsity, seed++));
    xs.push_back(gen_sparse_vector(n, sparsity, seed++));
  }
  return xs;
}

/// Every row-driven kernel on every input, in a fixed order: per input the
/// CSR form, the masked CSR form and the dense tier, then one block of all
/// inputs through the block engine.
Outputs run_all(const TileMatrix<value_t>& a,
                const std::vector<SparseVec<value_t>>& xs, ThreadPool& pool) {
  std::vector<bool> mask(static_cast<std::size_t>(a.rows));
  for (std::size_t r = 0; r < mask.size(); ++r) mask[r] = r % 3 == 0;
  Outputs out;
  SpmspvWorkspace<value_t> ws;
  std::vector<TileVector<value_t>> txs;
  for (const SparseVec<value_t>& x : xs) {
    txs.push_back(TileVector<value_t>::from_sparse(x, a.nt));
    out.push_back(tile_spmspv(a, txs.back(), ws, &pool));
    out.push_back(tile_spmspv(a, txs.back(), ws, &pool, &mask, true));
    out.push_back(tile_spmv(a, x, &pool));
  }
  const auto block = TileVectorBlock<value_t>::from_tiled(txs, &pool);
  SpmspmWorkspace<value_t> bws;
  for (SparseVec<value_t>& y : tile_spmspm(a, block, bws, &pool)) {
    out.push_back(std::move(y));
  }
  return out;
}

void expect_bitwise_equal(const Outputs& got, const Outputs& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].idx, want[i].idx) << what << ", output " << i;
    EXPECT_EQ(got[i].vals, want[i].vals) << what << ", output " << i;
  }
}

class Determinism : public ::testing::Test {
 protected:
  void SetUp() override {
    m_ = TileMatrix<value_t>::from_csr(side_heavy_csr(), 16, 2);
    xs_ = inputs(m_.cols);
    ThreadPool one(1);
    want_ = run_all(m_, xs_, one);
  }
  TileMatrix<value_t> m_;
  std::vector<SparseVec<value_t>> xs_;
  Outputs want_;
};

TEST_F(Determinism, FixtureIsSideHeavyAndResultsAreCorrect) {
  // At least a fifth of the nonzeros live in the side part, so most output
  // rows mix tile sums with side entries.
  ASSERT_GT(5 * m_.extracted.nnz(), m_.total_nnz());
  const Csr<value_t>& a = side_heavy_csr();
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const SparseVec<value_t> ref = spmspv_rowwise_reference(a, xs_[i]);
    ASSERT_GT(ref.nnz(), 0) << "input " << i;
    EXPECT_TRUE(approx_equal(want_[3 * i], ref)) << "input " << i;
    EXPECT_TRUE(approx_equal(want_[3 * i + 2], ref)) << "input " << i;
    EXPECT_TRUE(approx_equal(want_[3 * xs_.size() + i], ref)) << "lane " << i;
  }
}

TEST_F(Determinism, BitwiseEqualAcrossPoolSizesAndRepeats) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (int rep = 0; rep < 3; ++rep) {
      expect_bitwise_equal(run_all(m_, xs_, pool), want_,
                           "pool " + std::to_string(threads) + ", repeat " +
                               std::to_string(rep));
    }
  }
}

TEST_F(Determinism, MappedMatchesHeapBitwise) {
  const std::string path = "/tmp/tilespmspv_determinism_mapped.bin";
  write_tile_matrix_file_v2(path, m_);
  const MappedTileMatrix mm = map_tile_matrix_file(path, true, true);
  ASSERT_EQ(mm.tiled.placed, Placement::kMapped);
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    expect_bitwise_equal(run_all(mm.tiled, xs_, pool), want_,
                         "mapped, pool " + std::to_string(threads));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tilespmspv
