// v2 tile-file (TTLF) round-trip tests: write_tile_matrix_file_v2 /
// map_tile_matrix_file and the BitTileGraph pair must reproduce the in-
// memory structures exactly — the mapped views are compared field by field
// AND differentially through the kernels (SpMSpV results and BFS levels
// must be bit-identical between the owned and the mapped structure).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/tile_spmv.hpp"
#include "bfs/tile_bfs.hpp"
#include "core/spmspv.hpp"
#include "formats/csr.hpp"
#include "formats/tile_file.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/vector_gen.hpp"
#include "tile/bit_tile_graph.hpp"
#include "tile/tile_matrix.hpp"
#include "util/types.hpp"

namespace tilespmspv {
namespace {

std::string tmp_path(const char* tag) {
  return std::string("/tmp/tilespmspv_tile_file_test_") + tag + ".bin";
}

/// Removes the temp file on scope exit so failed assertions don't leak.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

void expect_tile_matrix_eq(const TileMatrix<value_t>& a,
                           const TileMatrix<value_t>& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.nt, b.nt);
  EXPECT_TRUE(a.tile_row_ptr == b.tile_row_ptr);
  EXPECT_TRUE(a.tile_col_id == b.tile_col_id);
  EXPECT_TRUE(a.tile_nnz_ptr == b.tile_nnz_ptr);
  EXPECT_TRUE(a.intra_row_ptr == b.intra_row_ptr);
  EXPECT_TRUE(a.local_col == b.local_col);
  EXPECT_TRUE(a.vals == b.vals);
  EXPECT_EQ(a.extracted.row_idx, b.extracted.row_idx);
  EXPECT_EQ(a.extracted.col_idx, b.extracted.col_idx);
  EXPECT_EQ(a.extracted.vals, b.extracted.vals);
  EXPECT_TRUE(a.side_row_ptr == b.side_row_ptr);
}

TEST(TileFile, HeaderAndProbe) {
  const FileGuard f{tmp_path("header")};
  const auto a = Csr<value_t>::from_coo(gen_erdos_renyi(200, 180, 0.03, 11));
  const auto m = TileMatrix<value_t>::from_csr(a, 16, 2);
  const std::uint64_t hash = write_tile_matrix_file_v2(f.path, m);
  EXPECT_TRUE(is_tile_file(f.path));
  const TileFileHeader h = read_tile_file_header(f.path);
  EXPECT_EQ(h.magic, kTileFileMagic);
  EXPECT_EQ(h.version, kTileFileVersion);
  EXPECT_EQ(h.kind, static_cast<std::uint32_t>(TileFileKind::kTileMatrix));
  EXPECT_EQ(h.rows, 200);
  EXPECT_EQ(h.cols, 180);
  EXPECT_EQ(h.nt, 16);
  EXPECT_EQ(h.payload_hash, hash);
  EXPECT_EQ(h.flags & kTileFileHasTranspose, 0u);
  EXPECT_GT(h.file_bytes, sizeof(TileFileHeader));
}

// Builds a matrix whose last tile column holds only isolated entries, so
// extraction reliably produces a non-empty side COO at every tile size.
Coo<value_t> matrix_with_sparse_fringe() {
  Coo<value_t> coo = gen_erdos_renyi(150, 120, 0.03, 1506);
  coo.cols = 140;
  coo.push(7, 130, 1.0);
  coo.push(64, 125, -0.5);
  coo.push(101, 139, 2.0);
  coo.push(149, 121, 3.0);
  return coo;
}

TEST(TileFile, MatrixRoundTripAcrossTileSizes) {
  // The ER input has no extracted entries at nt 64; the sparse-fringe input
  // has some at every tile size, so the side COO round-trips too.
  const Csr<value_t> inputs[] = {
      Csr<value_t>::from_coo(gen_erdos_renyi(500, 460, 0.02, 42)),
      Csr<value_t>::from_coo(matrix_with_sparse_fringe())};
  for (const Csr<value_t>& a : inputs) {
    const bool fringe = &a == &inputs[1];
    SCOPED_TRACE(fringe ? "sparse-fringe input" : "erdos-renyi input");
    const auto at = a.transpose();
    const SparseVec<value_t> x = gen_sparse_vector(a.cols, 0.05, 7);
    for (const index_t nt : {index_t{16}, index_t{32}, index_t{64}}) {
      const FileGuard f{tmp_path("roundtrip")};
      const auto m = TileMatrix<value_t>::from_csr(a, nt, 2);
      const auto mt = TileMatrix<value_t>::from_csr(at, nt, 2);
      if (fringe) {
        ASSERT_GT(m.extracted.nnz(), 0) << "nt " << nt;
      }
      const std::uint64_t hash = write_tile_matrix_file_v2(f.path, m, &mt);
      // Strict load: payload hash verified, structural validators run.
      MappedTileMatrix mm = map_tile_matrix_file(f.path, /*verify_hash=*/true,
                                                 /*deep_validate=*/true);
      ASSERT_TRUE(mm.has_transpose) << "nt " << nt;
      EXPECT_EQ(mm.tiled.placed, Placement::kMapped);
      EXPECT_TRUE(mm.tiled.vals.is_view());
      expect_tile_matrix_eq(m, mm.tiled);
      expect_tile_matrix_eq(mt, mm.tiled_t);

      // Rewriting the mapped matrix must reproduce the payload exactly: the
      // file is a fixed point of write(map(file)).
      const FileGuard rewrite{tmp_path("rewrite")};
      EXPECT_EQ(write_tile_matrix_file_v2(rewrite.path, mm.tiled, &mm.tiled_t),
                hash)
          << "nt " << nt;

      // Differential: the same multiply through the owned and the mapped
      // structure must be bit-identical (same kernel on both sides).
      SpmspvConfig cfg;
      cfg.nt = nt;
      cfg.kernel = SpmspvKernel::kCsr;
      SpmspvOperator<value_t> ref(a, cfg);
      SpmspvOperator<value_t> map_op(std::move(mm.tiled),
                                     std::move(mm.tiled_t), cfg);
      const SparseVec<value_t> y_ref = ref.multiply(x);
      const SparseVec<value_t> y_map = map_op.multiply(x);
      EXPECT_EQ(y_ref.idx, y_map.idx) << "nt " << nt;
      EXPECT_EQ(y_ref.vals, y_map.vals) << "nt " << nt;

      // The CSC (vector-driven) kernel reads the mapped transpose.
      cfg.kernel = SpmspvKernel::kCsc;
      SpmspvOperator<value_t> ref_csc(a, cfg);
      MappedTileMatrix mm2 = map_tile_matrix_file(f.path);
      SpmspvOperator<value_t> map_csc(std::move(mm2.tiled),
                                      std::move(mm2.tiled_t), cfg);
      const SparseVec<value_t> z_ref = ref_csc.multiply(x);
      const SparseVec<value_t> z_map = map_csc.multiply(x);
      EXPECT_EQ(z_ref.idx, z_map.idx) << "nt " << nt;
      EXPECT_EQ(z_ref.vals, z_map.vals) << "nt " << nt;
    }
  }
}

TEST(TileFile, RetiredSideSectionsAreIgnored) {
  // Files written before the side part lost its column-major copy carry
  // that copy in sections 10-12 (retired ids). Such a file still maps, and
  // every row-driven kernel multiplies bitwise equal to the heap matrix.
  const FileGuard f{tmp_path("retired")};
  const auto a = Csr<value_t>::from_coo(matrix_with_sparse_fringe());
  const auto m = TileMatrix<value_t>::from_csr(a, 16, 2);
  const index_t side = m.extracted.nnz();
  ASSERT_GT(side, 0);
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(m.cols) + 1, 0);
  for (const index_t c : m.extracted.col_idx) ++col_ptr[c + 1];
  for (index_t c = 0; c < m.cols; ++c) col_ptr[c + 1] += col_ptr[c];
  std::vector<index_t> row_idx(static_cast<std::size_t>(side));
  std::vector<value_t> vals(static_cast<std::size_t>(side));
  std::vector<offset_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  for (index_t i = 0; i < side; ++i) {
    const offset_t pos = cursor[m.extracted.col_idx[i]]++;
    row_idx[pos] = m.extracted.row_idx[i];
    vals[pos] = m.extracted.vals[i];
  }

  TileFileHeader h;
  h.kind = static_cast<std::uint32_t>(TileFileKind::kTileMatrix);
  h.rows = m.rows;
  h.cols = m.cols;
  h.nt = m.nt;
  h.edges = static_cast<std::int64_t>(m.total_nnz());
  namespace ts = tf_section;
  TileFileWriter w(h);
  w.add(ts::kTileRowPtr, m.tile_row_ptr);
  w.add(ts::kTileColId, m.tile_col_id);
  w.add(ts::kTileNnzPtr, m.tile_nnz_ptr);
  w.add(ts::kIntraRowPtr, m.intra_row_ptr);
  w.add(ts::kLocalCol, m.local_col);
  w.add(ts::kVals, m.vals);
  w.add(ts::kExtRowIdx, m.extracted.row_idx);
  w.add(ts::kExtColIdx, m.extracted.col_idx);
  w.add(ts::kExtVals, m.extracted.vals);
  w.add(10, col_ptr);
  w.add(11, row_idx);
  w.add(12, vals);
  w.add(ts::kSideRowPtr, m.side_row_ptr);
  w.add(ts::kRowChunkPtr, m.row_chunk_ptr);
  w.add(ts::kRunPtr, m.run_ptr);
  w.add(ts::kRowRuns, m.row_runs);
  w.add(ts::kTileStrategy, m.tile_strategy);
  w.write(f.path);

  const MappedTileMatrix mm = map_tile_matrix_file(f.path, true, true);
  expect_tile_matrix_eq(m, mm.tiled);
  ThreadPool pool(4);
  SpmspvWorkspace<value_t> ws;
  for (const double sparsity : {0.02, 0.3}) {
    const SparseVec<value_t> x = gen_sparse_vector(a.cols, sparsity, 17);
    const auto tx = TileVector<value_t>::from_sparse(x, m.nt);
    const SparseVec<value_t> y_heap = tile_spmspv(m, tx, ws, &pool);
    const SparseVec<value_t> y_map = tile_spmspv(mm.tiled, tx, ws, &pool);
    EXPECT_EQ(y_heap.idx, y_map.idx) << sparsity;
    EXPECT_EQ(y_heap.vals, y_map.vals) << sparsity;
    const SparseVec<value_t> d_heap = tile_spmv(m, x, &pool);
    const SparseVec<value_t> d_map = tile_spmv(mm.tiled, x, &pool);
    EXPECT_EQ(d_heap.idx, d_map.idx) << sparsity;
    EXPECT_EQ(d_heap.vals, d_map.vals) << sparsity;
  }
}

TEST(TileFile, GraphRoundTripAndBfsLevels) {
  const FileGuard f{tmp_path("graph")};
  // Structured graph: grid locality keeps tiles stored (not extracted).
  const auto a = Csr<value_t>::from_coo(gen_grid2d(48, 48));
  const auto g = BitTileGraph<32>::from_csr(a, 2);
  write_bit_tile_graph_file<32>(f.path, g);
  const TileFileHeader h = read_tile_file_header(f.path);
  EXPECT_EQ(h.kind, static_cast<std::uint32_t>(TileFileKind::kBitTileGraph));
  EXPECT_EQ(h.nt, 32);
  EXPECT_EQ(h.rows, a.rows);
  EXPECT_EQ(h.edges, g.edges);

  const auto gm = map_bit_tile_graph_file<32>(f.path, /*verify_hash=*/true,
                                              /*deep_validate=*/true);
  EXPECT_EQ(gm.placed, Placement::kMapped);
  EXPECT_EQ(gm.n, g.n);
  EXPECT_EQ(gm.edges, g.edges);
  EXPECT_EQ(gm.shared_masks, g.shared_masks);
  EXPECT_TRUE(gm.csr_tile_ptr == g.csr_tile_ptr);
  EXPECT_TRUE(gm.csr_tile_col == g.csr_tile_col);
  EXPECT_TRUE(gm.csr_masks == g.csr_masks);
  EXPECT_TRUE(gm.side_dst == g.side_dst);

  // Differential BFS: the file-backed traversal engine must produce the
  // exact levels of the in-memory build.
  TileBfsConfig bcfg;
  bcfg.forced_tile_size = 32;
  const TileBfs mem(a, bcfg);
  const TileBfs mapped(f.path);
  const BfsResult r1 = mem.run(0);
  const BfsResult r2 = mapped.run(0);
  EXPECT_EQ(r1.levels, r2.levels);
}

/// A directed graph whose sparse tiles leave edges in both side indexes.
BitTileGraph<32> directed_side_graph() {
  const auto a = Csr<value_t>::from_coo(gen_erdos_renyi(300, 300, 0.01, 6));
  auto g = BitTileGraph<32>::from_csr(a, 2);
  EXPECT_FALSE(g.shared_masks);
  EXPECT_GT(g.side_edge_count(), 0);
  return g;
}

TEST(TileFile, GraphSideIndexesRoundTrip) {
  const FileGuard f{tmp_path("graph_side")};
  const auto a = Csr<value_t>::from_coo(gen_erdos_renyi(300, 300, 0.01, 6));
  const auto g = directed_side_graph();
  write_bit_tile_graph_file<32>(f.path, g);
  const auto gm = map_bit_tile_graph_file<32>(f.path, /*verify_hash=*/true,
                                              /*deep_validate=*/true);
  EXPECT_TRUE(gm.side_ptr == g.side_ptr);
  EXPECT_TRUE(gm.side_dst == g.side_dst);
  EXPECT_TRUE(gm.side_in_ptr == g.side_in_ptr);
  EXPECT_TRUE(gm.side_src == g.side_src);
  EXPECT_TRUE(gm.csr_chunk_ptr == g.csr_chunk_ptr);

  // Every kernel reads a side index: the mapped engine must match the
  // in-memory one with each kernel forced.
  for (unsigned mask : {1u, 2u, 4u}) {
    TileBfsConfig bcfg;
    bcfg.forced_tile_size = 32;
    bcfg.kernel_mask = mask;
    const TileBfs mem(a, bcfg);
    const TileBfs mapped(f.path, bcfg);
    EXPECT_EQ(mem.run(3).levels, mapped.run(3).levels) << "mask=" << mask;
  }
}

TEST(TileFile, GraphWithoutDestinationSideIndexFailsToMap) {
  // A graph file that lacks section 14 or 15 (as written before the
  // destination-indexed side list existed) must not map; the error names
  // the missing section. Relabelling a section-table entry drops the
  // section without touching any payload.
  const FileGuard f{tmp_path("graph_no_side_in")};
  write_bit_tile_graph_file<32>(f.path, directed_side_graph());
  std::string base;
  {
    std::ifstream in(f.path, std::ios::binary);
    base.assign(std::istreambuf_iterator<char>(in), {});
  }
  TileFileHeader h;
  std::memcpy(&h, base.data(), sizeof(h));
  for (const std::uint32_t id :
       {tf_section::kSideInPtr, tf_section::kSideSrc}) {
    std::string s = base;
    bool found = false;
    for (std::uint32_t i = 0; i < h.section_count; ++i) {
      const std::size_t at = sizeof(TileFileHeader) + i * sizeof(TileFileSection);
      std::uint32_t sid = 0;
      std::memcpy(&sid, &s[at], sizeof(sid));
      if (sid != id) continue;
      const std::uint32_t unused = 0xBEEF;
      std::memcpy(&s[at], &unused, sizeof(unused));
      found = true;
    }
    ASSERT_TRUE(found) << "section " << id;
    {
      std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
      out.write(s.data(), static_cast<std::streamsize>(s.size()));
    }
    try {
      map_bit_tile_graph_file<32>(f.path);
      ADD_FAILURE() << "mapped a graph file without section " << id;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("missing section " +
                                           std::to_string(id)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TileFile, WrongKindAndMissingFileThrow) {
  const FileGuard f{tmp_path("kind")};
  const auto a = Csr<value_t>::from_coo(gen_erdos_renyi(100, 100, 0.03, 5));
  const auto g = BitTileGraph<32>::from_csr(a, 2);
  write_bit_tile_graph_file<32>(f.path, g);
  // A graph file is not a matrix file, and NT must match the header.
  EXPECT_THROW(map_tile_matrix_file(f.path), std::runtime_error);
  EXPECT_THROW(map_bit_tile_graph_file<16>(f.path), std::runtime_error);
  EXPECT_THROW(map_tile_matrix_file("/nonexistent/no.ttlf"),
               std::runtime_error);
  EXPECT_FALSE(is_tile_file("/nonexistent/no.ttlf"));
}

}  // namespace
}  // namespace tilespmspv
