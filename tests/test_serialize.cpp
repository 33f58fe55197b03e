// Tests for the binary CSR stream: byte-exact round trips, rejection of
// corrupt or mismatched streams, and magic-word classification.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "formats/serialize.hpp"
#include "formats/tile_file.hpp"
#include "gen/erdos_renyi.hpp"
#include "tile/tile_matrix.hpp"

namespace tilespmspv {
namespace {

/// The bytes of a TTLF tile file holding `a` tiled at nt 16.
std::string tile_file_bytes(const Csr<value_t>& a) {
  const std::string path = "/tmp/tilespmspv_serialize_test.ttlf";
  write_tile_matrix_file_v2(path, TileMatrix<value_t>::from_csr(a, 16, 2));
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

TEST(SerializeCsr, RoundTripExact) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(300, 250, 0.02, 1501));
  std::stringstream ss;
  write_csr(ss, a);
  Csr<value_t> b = read_csr(ss);
  EXPECT_EQ(b.rows, a.rows);
  EXPECT_EQ(b.cols, a.cols);
  EXPECT_EQ(b.row_ptr, a.row_ptr);
  EXPECT_EQ(b.col_idx, a.col_idx);
  EXPECT_EQ(b.vals, a.vals);  // bitwise: binary format
}

TEST(SerializeCsr, EmptyMatrix) {
  Csr<value_t> a(5, 7);
  std::stringstream ss;
  write_csr(ss, a);
  Csr<value_t> b = read_csr(ss);
  EXPECT_EQ(b.rows, 5);
  EXPECT_EQ(b.cols, 7);
  EXPECT_EQ(b.nnz(), 0);
}

TEST(Serialize, RejectsWrongMagic) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(50, 50, 0.1, 1504));
  // Reading a TTLF tile file as a CSR stream must fail cleanly.
  std::stringstream ss(tile_file_bytes(a));
  EXPECT_THROW(read_csr(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(50, 50, 0.1, 1505));
  std::stringstream ss;
  write_csr(ss, a);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_csr(cut), std::runtime_error);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss("not a csr matrix at all");
  EXPECT_THROW(read_csr(ss), std::runtime_error);
}

/// Returns `bytes` with the little-endian i64 at `offset` replaced by `v`.
std::string patch_i64(std::string bytes, std::size_t offset, std::int64_t v) {
  std::memcpy(&bytes[offset], &v, sizeof(v));
  return bytes;
}

TEST(Serialize, RejectsOversizedArrayLength) {
  Csr<value_t> a = Csr<value_t>::from_coo(gen_erdos_renyi(50, 50, 0.1, 1507));
  std::stringstream ss;
  write_csr(ss, a);
  const std::string base = ss.str();
  // Byte 24 holds the first array's length prefix. A length claiming far
  // more elements than the stream has bytes must be rejected *before* any
  // allocation, not discovered via bad_alloc or a truncated read.
  for (const std::int64_t huge :
       {std::int64_t{1} << 39, std::int64_t{1} << 60,
        std::numeric_limits<std::int64_t>::max()}) {
    std::stringstream bad(patch_i64(base, 24, huge));
    EXPECT_THROW(read_csr(bad), std::runtime_error) << huge;
  }
}

TEST(Serialize, RejectsOutOfRangeDims) {
  Csr<value_t> a = Csr<value_t>::from_coo(gen_erdos_renyi(50, 50, 0.1, 1508));
  std::stringstream ss;
  write_csr(ss, a);
  const std::string base = ss.str();
  // rows is the i64 at byte 8, cols at byte 16. Values outside index_t
  // must throw instead of silently truncating through a 32-bit cast.
  for (const std::size_t offset : {std::size_t{8}, std::size_t{16}}) {
    for (const std::int64_t v :
         {std::int64_t{1} << 40, std::int64_t{-1},
          std::numeric_limits<std::int64_t>::min()}) {
      std::stringstream bad(patch_i64(base, offset, v));
      EXPECT_THROW(read_csr(bad), std::runtime_error)
          << "offset=" << offset << " v=" << v;
    }
  }
}

TEST(Serialize, ProbeIdentifiesKinds) {
  Csr<value_t> a = Csr<value_t>::from_coo(gen_erdos_renyi(30, 30, 0.1, 1510));
  std::stringstream cs;
  write_csr(cs, a);
  EXPECT_EQ(probe_serialized_kind(cs), SerializedKind::kCsr);
  std::stringstream ts(tile_file_bytes(a));
  EXPECT_EQ(probe_serialized_kind(ts), SerializedKind::kTileFile);
  std::stringstream junk("%%MatrixMarket matrix coordinate real general\n");
  EXPECT_EQ(probe_serialized_kind(junk), SerializedKind::kUnknown);
  std::stringstream empty;
  EXPECT_EQ(probe_serialized_kind(empty), SerializedKind::kUnknown);
}

}  // namespace
}  // namespace tilespmspv
