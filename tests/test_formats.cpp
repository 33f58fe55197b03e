// Tests for the COO/CSR/CSC formats and Matrix Market I/O: round trips,
// duplicate handling, transposition, and parser edge cases.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "formats/coo.hpp"
#include "formats/csc.hpp"
#include "formats/csr.hpp"
#include "formats/mm_io.hpp"
#include "formats/sparse_vector.hpp"
#include "gen/erdos_renyi.hpp"

namespace tilespmspv {
namespace {

Coo<value_t> small_matrix() {
  // Paper Fig. 1: a 6x6 matrix with scattered entries.
  Coo<value_t> m(6, 6);
  m.push(0, 1, 1.0);
  m.push(0, 4, 2.0);
  m.push(2, 0, 3.0);
  m.push(3, 3, 4.0);
  m.push(4, 2, 5.0);
  m.push(5, 5, 6.0);
  return m;
}

TEST(Coo, SortRowMajorOrders) {
  Coo<value_t> m(4, 4);
  m.push(3, 1, 1.0);
  m.push(0, 2, 2.0);
  m.push(0, 1, 3.0);
  m.sort_row_major();
  EXPECT_EQ(m.row_idx, (std::vector<index_t>{0, 0, 3}));
  EXPECT_EQ(m.col_idx, (std::vector<index_t>{1, 2, 1}));
  EXPECT_EQ(m.vals, (std::vector<value_t>{3.0, 2.0, 1.0}));
}

TEST(Coo, SumDuplicates) {
  Coo<value_t> m(3, 3);
  m.push(1, 1, 2.0);
  m.push(1, 1, 3.0);
  m.push(2, 0, 1.0);
  m.sort_row_major();
  m.sum_duplicates();
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.vals[0], 5.0);
}

TEST(Coo, SymmetrizeMirrorsOffDiagonal) {
  Coo<value_t> m(3, 3);
  m.push(0, 1, 1.0);
  m.push(2, 2, 4.0);
  m.symmetrize();
  EXPECT_EQ(m.nnz(), 3);  // (0,1), (1,0), (2,2)
  Csr<value_t> a = Csr<value_t>::from_coo(m);
  EXPECT_EQ(a.row_nnz(0), 1);
  EXPECT_EQ(a.row_nnz(1), 1);
  EXPECT_EQ(a.col_idx[a.row_ptr[1]], 0);
}

TEST(Csr, FromCooRoundTrip) {
  Coo<value_t> m = small_matrix();
  Csr<value_t> a = Csr<value_t>::from_coo(m);
  Coo<value_t> back = a.to_coo();
  m.sort_row_major();
  EXPECT_EQ(back.row_idx, m.row_idx);
  EXPECT_EQ(back.col_idx, m.col_idx);
  EXPECT_EQ(back.vals, m.vals);
}

TEST(Csr, RowNnz) {
  Csr<value_t> a = Csr<value_t>::from_coo(small_matrix());
  EXPECT_EQ(a.row_nnz(0), 2);
  EXPECT_EQ(a.row_nnz(1), 0);
  EXPECT_EQ(a.nnz(), 6);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  Coo<value_t> coo = gen_erdos_renyi(200, 150, 0.02, 5);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  Csr<value_t> att = a.transpose().transpose();
  EXPECT_EQ(att.rows, a.rows);
  EXPECT_EQ(att.cols, a.cols);
  EXPECT_EQ(att.row_ptr, a.row_ptr);
  EXPECT_EQ(att.col_idx, a.col_idx);
  EXPECT_EQ(att.vals, a.vals);
}

TEST(Csr, TransposeMovesEntries) {
  Csr<value_t> a = Csr<value_t>::from_coo(small_matrix());
  Csr<value_t> t = a.transpose();
  // (0,1)=1.0 becomes (1,0)=1.0
  bool found = false;
  for (offset_t i = t.row_ptr[1]; i < t.row_ptr[2]; ++i) {
    if (t.col_idx[i] == 0) {
      EXPECT_DOUBLE_EQ(t.vals[i], 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Csc, MatchesTransposedCsr) {
  Coo<value_t> coo = gen_erdos_renyi(100, 80, 0.05, 6);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  Csc<value_t> c = Csc<value_t>::from_csr(a);
  EXPECT_EQ(c.rows, a.rows);
  EXPECT_EQ(c.cols, a.cols);
  EXPECT_EQ(c.nnz(), a.nnz());
  // Column j of the CSC must hold exactly the entries (r, j) of the CSR.
  for (index_t j = 0; j < c.cols; ++j) {
    for (offset_t i = c.col_ptr[j]; i < c.col_ptr[j + 1]; ++i) {
      const index_t r = c.row_idx[i];
      bool found = false;
      for (offset_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        if (a.col_idx[k] == j && a.vals[k] == c.vals[i]) found = true;
      }
      ASSERT_TRUE(found) << "entry (" << r << "," << j << ")";
    }
  }
}

TEST(SparseVec, DenseRoundTrip) {
  SparseVec<value_t> x(10);
  x.push(2, 1.5);
  x.push(7, -3.0);
  const auto d = x.to_dense();
  EXPECT_DOUBLE_EQ(d[2], 1.5);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  const auto back = SparseVec<value_t>::from_dense(d);
  EXPECT_EQ(back.idx, x.idx);
  EXPECT_EQ(back.vals, x.vals);
}

TEST(SparseVec, ApproxEqualToleratesRounding) {
  SparseVec<value_t> a(4), b(4);
  a.push(1, 1.0);
  b.push(1, 1.0 + 1e-13);
  EXPECT_TRUE(approx_equal(a, b));
  b.vals[0] = 1.1;
  EXPECT_FALSE(approx_equal(a, b));
}

TEST(SparseVec, SortOrdersEntries) {
  SparseVec<value_t> x(10);
  x.push(7, 1.0);
  x.push(2, 2.0);
  x.sort();
  EXPECT_EQ(x.idx, (std::vector<index_t>{2, 7}));
  EXPECT_EQ(x.vals, (std::vector<value_t>{2.0, 1.0}));
}

TEST(MatrixMarket, ParsesGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 2\n"
      "1 1 2.5\n"
      "3 4 -1\n");
  Coo<value_t> m = read_matrix_market(in);
  EXPECT_EQ(m.rows, 3);
  EXPECT_EQ(m.cols, 4);
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.row_idx[0], 0);
  EXPECT_EQ(m.col_idx[0], 0);
  EXPECT_DOUBLE_EQ(m.vals[1], -1.0);
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5\n"
      "3 3 7\n");
  Coo<value_t> m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 3);  // (1,0), (0,1), (2,2)
}

TEST(MatrixMarket, PatternGetsUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 2\n");
  Coo<value_t> m = read_matrix_market(in);
  ASSERT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.vals[0], 1.0);
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::istringstream in("%%NotMatrixMarket x y z w\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, BadBannerErrorQuotesOnlyAPrefix) {
  // A megabyte without a newline is one "banner line"; the error quotes a
  // short prefix of it, not the whole line.
  std::istringstream in(std::string(1000000, 'x'));
  try {
    read_matrix_market(in);
    FAIL() << "a banner of x's was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("matrix market: bad banner: xxxx", 0), 0u) << what;
    EXPECT_LT(what.size(), 128u);
  }
}

TEST(MatrixMarket, RejectsOutOfRangeIndex) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, ParsesCrlfLineEndings) {
  // Files written on Windows carry \r\n; the parser must strip the \r
  // instead of folding it into the last token ("2.5\r" -> parse error, or
  // worse, a banner keyword that never matches).
  std::istringstream crlf(
      "%%MatrixMarket matrix coordinate real general\r\n"
      "% a comment\r\n"
      "3 4 2\r\n"
      "1 1 2.5\r\n"
      "3 4 -1\r\n");
  Coo<value_t> m = read_matrix_market(crlf);
  std::istringstream lf(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 2\n"
      "1 1 2.5\n"
      "3 4 -1\n");
  Coo<value_t> want = read_matrix_market(lf);
  EXPECT_EQ(m.rows, want.rows);
  EXPECT_EQ(m.cols, want.cols);
  EXPECT_EQ(m.row_idx, want.row_idx);
  EXPECT_EQ(m.col_idx, want.col_idx);
  EXPECT_EQ(m.vals, want.vals);
}

TEST(MatrixMarket, RejectsDimsOutOfIndexRange) {
  // Dims that overflow index_t must throw, not truncate to 32 bits.
  std::istringstream rows_big(
      "%%MatrixMarket matrix coordinate real general\n"
      "99999999999 3 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(rows_big), std::runtime_error);
  std::istringstream cols_big(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 99999999999 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(cols_big), std::runtime_error);
}

TEST(MatrixMarket, RejectsNegativeSizeLine) {
  std::istringstream neg_rows(
      "%%MatrixMarket matrix coordinate real general\n"
      "-3 3 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(neg_rows), std::runtime_error);
  std::istringstream neg_entries(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 -1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(neg_entries), std::runtime_error);
}

TEST(MatrixMarket, RejectsEntryCountExceedingStream) {
  // An entry count far beyond what the remaining bytes could encode must
  // be rejected before the arrays are reserved (pre-allocation DoS).
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 888888888888\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  Coo<value_t> m = gen_erdos_renyi(50, 40, 0.05, 7);
  std::ostringstream out;
  write_matrix_market(out, m);
  std::istringstream in(out.str());
  Coo<value_t> back = read_matrix_market(in);
  EXPECT_EQ(back.rows, m.rows);
  EXPECT_EQ(back.row_idx, m.row_idx);
  EXPECT_EQ(back.col_idx, m.col_idx);
  for (index_t i = 0; i < m.nnz(); ++i) {
    EXPECT_NEAR(back.vals[i], m.vals[i], 1e-6);
  }
}

}  // namespace
}  // namespace tilespmspv
