// Numeric tiled sparse matrix (paper §3.2.1).
//
// The matrix is partitioned into nt×nt tiles; non-empty tiles are the
// "nonzeros" of a CSR over the tile grid (tile_row_ptr / tile_col_id).
// Inside a tile only the actual nonzeros are kept, in a tile-local CSR:
// a (nt+1)-entry row pointer, 8-bit local column indices and the values.
// Tiles with at most `extract_threshold` nonzeros are *extracted* into a
// side COO matrix so their tile metadata is never paid for (§3.2.1).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/validate.hpp"
#include "obs/trace.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_chunks.hpp"
#include "util/types.hpp"

namespace tilespmspv {

template <typename T = value_t>
struct TileMatrix {
  /// Largest supported tile size: local column indices are stored as one
  /// byte (`local_col`), so a tile edge may not exceed 256.
  static constexpr index_t kMaxNt = 256;
  static_assert(kMaxNt - 1 <= std::numeric_limits<std::uint8_t>::max(),
                "local column indices must fit the 8-bit intra-tile format");

  index_t rows = 0;
  index_t cols = 0;
  index_t nt = 16;
  index_t tile_rows = 0;  // ceil(rows/nt)
  index_t tile_cols = 0;  // ceil(cols/nt)

  // Every heavy array is an ArrayBuf (parallel/arena.hpp): owned heap
  // vectors by default, rebindable as views into an arena or an mmapped
  // tile file with the kernels none the wiser (they read through the same
  // data()/operator[] surface).

  // CSR over the tile grid.
  ArrayBuf<offset_t> tile_row_ptr;  // length tile_rows + 1
  ArrayBuf<index_t> tile_col_id;    // per non-empty tile

  // Per-tile intra storage, concatenated. Tile t's local row pointer lives
  // at intra_row_ptr[t*(nt+1) .. t*(nt+1)+nt]; its entries start at
  // tile_nnz_ptr[t].
  ArrayBuf<offset_t> tile_nnz_ptr;        // length ntiles + 1
  ArrayBuf<std::uint16_t> intra_row_ptr;  // ntiles * (nt+1)
  ArrayBuf<std::uint8_t> local_col;       // per entry, < nt (nt <= 256)
  ArrayBuf<T> vals;

  // Nonzeros extracted from very sparse tiles (empty when extraction off).
  Coo<T> extracted;

  // Row pointer into `extracted` (which from_csr builds row-major sorted):
  // the one side index. Row-driven kernels finish a tile row's side rows in
  // the task that owns the tile row; the CSC form reads it as the
  // transposed view's column index.
  ArrayBuf<offset_t> side_row_ptr;  // length rows + 1

  // Work-balanced tile-row chunk boundaries (see tile/tile_chunks.hpp):
  // scheduling chunk c covers tile rows [row_chunk_ptr[c], row_chunk_ptr[c+1]).
  // Built once at conversion so every multiply reuses the same balance.
  // Stays a plain vector: the kernels' chunk-pointer fallback logic takes
  // its address, and it is small enough that placement never matters.
  std::vector<index_t> row_chunk_ptr;

  // Compact non-empty-row runs per tile, derived from the intra-tile CSR:
  // tile t's runs are the byte triples (local_row, count - 1, contiguous)
  // at row_runs[3*run_ptr[t] .. 3*run_ptr[t+1]), in local-row order. The
  // CSR kernels iterate runs instead of all nt local rows, so sparse tiles
  // never scan their empty rows (the dominant overhead on road-network
  // matrices where tiles hold a handful of nonzeros). The third byte marks
  // rows whose local columns are consecutive (the banded/FEM regime),
  // letting the micro-kernel use contiguous loads instead of gathers.
  ArrayBuf<offset_t> run_ptr;       // length ntiles + 1
  ArrayBuf<std::uint8_t> row_runs;  // 3 bytes per run

  // Per-tile micro-kernel choice, decided once from the run shape (see
  // build_row_runs): tiles keep the strategy that their run-length and
  // contiguity statistics favor, so the multiply's inner loop carries no
  // per-tile heuristics.
  static constexpr std::uint8_t kRunFlat = 0;      // flat gather + segment sums
  static constexpr std::uint8_t kRunDispatch = 1;  // per-run contig/gather dots
  static constexpr std::uint8_t kRunTiny = 2;  // plain scalar
  ArrayBuf<std::uint8_t> tile_strategy;        // length ntiles

  // Where the heavy arrays live, and the owner keeping view-backed storage
  // alive (an Arena for first-touch placement, a MappedFile for zero-copy
  // loads). Unused (null) for plain heap matrices. Copies share the owner.
  Placement placed = Placement::kHeap;
  std::shared_ptr<const void> storage;

  index_t num_tiles() const {
    return static_cast<index_t>(tile_col_id.size());
  }
  offset_t tiled_nnz() const { return static_cast<offset_t>(vals.size()); }
  offset_t total_nnz() const { return tiled_nnz() + extracted.nnz(); }

  /// Fraction of grid positions occupied by stored (non-extracted) tiles.
  double tile_occupancy() const {
    const double grid = static_cast<double>(tile_rows) * tile_cols;
    return grid == 0.0 ? 0.0 : num_tiles() / grid;
  }

  /// Partitions `a` into nt×nt tiles. Tiles with nnz <= extract_threshold
  /// are moved to the side COO matrix (0 disables extraction).
  static TileMatrix from_csr(const Csr<T>& a, index_t nt,
                             index_t extract_threshold = 0) {
    assert(nt > 0 && nt <= 256);
    obs::TraceSpan span("convert/tile_matrix", "convert");
    TileMatrix m;
    m.rows = a.rows;
    m.cols = a.cols;
    m.nt = nt;
    m.tile_rows = ceil_div(a.rows, nt);
    m.tile_cols = ceil_div(a.cols, nt);
    m.tile_row_ptr.assign(m.tile_rows + 1, 0);
    m.extracted = Coo<T>(a.rows, a.cols);

    // Dense per-tile-row scratch, reused across tile rows.
    std::vector<offset_t> tile_nnz(m.tile_cols, 0);
    std::vector<index_t> touched;       // tile cols seen in this tile row
    std::vector<index_t> slot_of(m.tile_cols, kEmptyTile);

    // Pass 1 per tile row: count nnz per tile, decide which tiles are kept
    // vs extracted, and lay out the global arrays.
    std::vector<index_t> kept_cols;        // tile col ids of kept tiles
    std::vector<offset_t> kept_tile_nnz;   // nnz of each kept tile
    for (index_t tr = 0; tr < m.tile_rows; ++tr) {
      touched.clear();
      const index_t r_begin = tr * nt;
      const index_t r_end = std::min<index_t>(r_begin + nt, a.rows);
      for (index_t r = r_begin; r < r_end; ++r) {
        for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          const index_t tc = a.col_idx[i] / nt;
          if (tile_nnz[tc] == 0) touched.push_back(tc);
          ++tile_nnz[tc];
        }
      }
      std::sort(touched.begin(), touched.end());
      for (index_t tc : touched) {
        if (tile_nnz[tc] > extract_threshold) {
          kept_cols.push_back(tc);
          kept_tile_nnz.push_back(tile_nnz[tc]);
          ++m.tile_row_ptr[tr + 1];
        }
        tile_nnz[tc] = 0;  // reset scratch
      }
    }
    for (index_t tr = 0; tr < m.tile_rows; ++tr) {
      m.tile_row_ptr[tr + 1] += m.tile_row_ptr[tr];
    }
    const index_t ntiles = static_cast<index_t>(kept_cols.size());
    m.tile_col_id = std::move(kept_cols);
    m.tile_nnz_ptr.assign(ntiles + 1, 0);
    for (index_t t = 0; t < ntiles; ++t) {
      m.tile_nnz_ptr[t + 1] = m.tile_nnz_ptr[t] + kept_tile_nnz[t];
    }
    m.intra_row_ptr.assign(static_cast<std::size_t>(ntiles) * (nt + 1), 0);
    m.local_col.resize(m.tile_nnz_ptr[ntiles]);
    m.vals.resize(m.tile_nnz_ptr[ntiles]);

    // Pass 2: fill per-tile CSR. Rows are visited in order inside each tile
    // row, so entries arrive tile-row-major and the intra row pointer can
    // be built with running cursors.
    std::vector<offset_t> cursor;  // per kept tile in this tile row
    for (index_t tr = 0; tr < m.tile_rows; ++tr) {
      const offset_t t_begin = m.tile_row_ptr[tr];
      const offset_t t_end = m.tile_row_ptr[tr + 1];
      for (offset_t t = t_begin; t < t_end; ++t) {
        slot_of[m.tile_col_id[t]] = static_cast<index_t>(t);
      }
      cursor.assign(static_cast<std::size_t>(t_end - t_begin), 0);
      const index_t r_begin = tr * nt;
      const index_t r_end = std::min<index_t>(r_begin + nt, a.rows);
      for (index_t r = r_begin; r < r_end; ++r) {
        const index_t lr = r - r_begin;
        for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          const index_t c = a.col_idx[i];
          const index_t t = slot_of[c / nt];
          if (t == kEmptyTile) {
            m.extracted.push(r, c, a.vals[i]);
            continue;
          }
          const offset_t pos = m.tile_nnz_ptr[t] + cursor[t - t_begin]++;
          m.local_col[pos] = static_cast<std::uint8_t>(c % nt);
          m.vals[pos] = a.vals[i];
          // intra_row_ptr counts per local row first; prefix-summed below.
          ++m.intra_row_ptr[t * (nt + 1) + lr + 1];
        }
      }
      for (offset_t t = t_begin; t < t_end; ++t) {
        slot_of[m.tile_col_id[t]] = kEmptyTile;
        std::uint16_t* p = &m.intra_row_ptr[t * (nt + 1)];
        for (index_t lr = 0; lr < nt; ++lr) {
          p[lr + 1] = static_cast<std::uint16_t>(p[lr + 1] + p[lr]);
        }
      }
    }
    m.build_side_index();
    m.build_row_chunks();
    m.build_row_runs();
    TILESPMSPV_POSTCONDITION(validate_tile_matrix(m), "TileMatrix::from_csr");
    return m;
  }

  /// (Re)builds the per-tile non-empty-row run lists from intra_row_ptr
  /// and local_col (called by from_csr; a mapped TTLF file stores them).
  /// Re-call after mutating the intra-tile structure manually in tests.
  void build_row_runs() {
    const index_t ntiles = num_tiles();
    run_ptr.assign(ntiles + 1, 0);
    row_runs.clear();
    row_runs.reserve(vals.size());  // <= 3 bytes per stored entry
    tile_strategy.assign(ntiles, kRunFlat);
    for (index_t t = 0; t < ntiles; ++t) {
      const std::uint16_t* p =
          &intra_row_ptr[static_cast<std::size_t>(t) * (nt + 1)];
      const offset_t base = tile_nnz_ptr[t];
      const int tile_nnz = p[nt];
      int nruns = 0;
      int contig_covered = 0;  // entries in contiguous runs of length >= 2
      for (index_t lr = 0; lr < nt; ++lr) {
        const int c = p[lr + 1] - p[lr];
        if (c <= 0) continue;
        const std::uint8_t* rc = &local_col[base + p[lr]];
        std::uint8_t contig = 1;
        for (int i = 1; i < c; ++i) {
          if (rc[i] != static_cast<std::uint8_t>(rc[0] + i)) {
            contig = 0;
            break;
          }
        }
        if (contig && c >= 2) contig_covered += c;
        row_runs.push_back(static_cast<std::uint8_t>(lr));
        row_runs.push_back(static_cast<std::uint8_t>(c - 1));
        row_runs.push_back(contig);
        ++nruns;
      }
      run_ptr[t + 1] = static_cast<offset_t>(row_runs.size() / 3);
      // Tiny tiles: scalar beats any SIMD entry overhead. Band/FEM tiles
      // (mostly contiguous columns) and dense tiles (long rows) win with
      // per-run dots; everything else keeps the flat gather + segment sums
      // whose 4-wide product loop amortizes over short scattered runs.
      if (tile_nnz <= 8) {
        tile_strategy[t] = kRunTiny;
      } else if (2 * contig_covered >= tile_nnz ||
                 (nruns > 0 && tile_nnz >= 8 * nruns)) {
        tile_strategy[t] = kRunDispatch;
      }
    }
  }

  /// (Re)builds the work-balanced scheduling chunks from the current tile
  /// layout (called by from_csr; a mapped TTLF file stores them). Re-call
  /// after mutating the tile structure manually in tests.
  /// Each tile row is charged its side entries too, since the task that
  /// owns a tile row also finishes its side rows.
  void build_row_chunks() {
    const bool side = side_row_ptr.size() == static_cast<std::size_t>(rows) + 1;
    row_chunk_ptr = tilespmspv::build_row_chunks(
        tile_rows, tile_row_ptr, tile_nnz_ptr, [&](index_t tr) -> offset_t {
          if (!side) return 0;
          const index_t r_end = std::min<index_t>((tr + 1) * nt, rows);
          return side_row_ptr[r_end] - side_row_ptr[tr * nt];
        });
  }

  /// Builds the row pointer over the extracted part (called by from_csr;
  /// re-call after mutating `extracted` manually in tests).
  void build_side_index() {
    side_row_ptr.assign(rows + 1, 0);
    for (index_t r : extracted.row_idx) {
      ++side_row_ptr[r + 1];
    }
    for (index_t r = 0; r < rows; ++r) {
      side_row_ptr[r + 1] += side_row_ptr[r];
    }
  }

  /// Updates the value of an existing nonzero in place (dynamic-graph /
  /// iterative-solver support: edge reweighting without retiling).
  /// Returns false if (r, c) is not a stored nonzero — the tiled layout
  /// cannot grow a pattern in place; pattern changes require a rebuild.
  bool update_value(index_t r, index_t c, T v) {
    assert(r >= 0 && r < rows && c >= 0 && c < cols);
    // Locate the tile via binary search in the tile row.
    const index_t tr = r / nt;
    const index_t tc = c / nt;
    const index_t* begin = tile_col_id.data() + tile_row_ptr[tr];
    const index_t* end = tile_col_id.data() + tile_row_ptr[tr + 1];
    const index_t* it = std::lower_bound(begin, end, tc);
    if (it != end && *it == tc) {
      const offset_t t = tile_row_ptr[tr] + (it - begin);
      const std::uint16_t* p = &intra_row_ptr[t * (nt + 1)];
      const index_t lr = r % nt;
      const auto lc = static_cast<std::uint8_t>(c % nt);
      const offset_t base = tile_nnz_ptr[t];
      // Local columns are sorted within the row.
      const auto* cb = local_col.data() + base + p[lr];
      const auto* ce = local_col.data() + base + p[lr + 1];
      const auto* ci = std::lower_bound(cb, ce, lc);
      if (ci != ce && *ci == lc) {
        vals[base + p[lr] + (ci - cb)] = v;
        return true;
      }
      return false;
    }
    // Not in a kept tile: the entry may live in the extracted part.
    const offset_t k = find_side(r, c);
    if (k < 0) return false;
    extracted.vals[k] = v;
    return true;
  }

  /// Reads the stored value at (r, c); returns T{} when not present
  /// (matching the mathematical matrix).
  T value_at(index_t r, index_t c) const {
    const index_t tr = r / nt;
    const index_t tc = c / nt;
    const index_t* begin = tile_col_id.data() + tile_row_ptr[tr];
    const index_t* end = tile_col_id.data() + tile_row_ptr[tr + 1];
    const index_t* it = std::lower_bound(begin, end, tc);
    if (it != end && *it == tc) {
      const offset_t t = tile_row_ptr[tr] + (it - begin);
      const std::uint16_t* p = &intra_row_ptr[t * (nt + 1)];
      const index_t lr = r % nt;
      const auto lc = static_cast<std::uint8_t>(c % nt);
      const offset_t base = tile_nnz_ptr[t];
      const auto* cb = local_col.data() + base + p[lr];
      const auto* ce = local_col.data() + base + p[lr + 1];
      const auto* ci = std::lower_bound(cb, ce, lc);
      if (ci != ce && *ci == lc) return vals[base + p[lr] + (ci - cb)];
    }
    const offset_t k = find_side(r, c);
    return k < 0 ? T{} : extracted.vals[k];
  }

  /// Position of (r, c) in `extracted`, or -1: a binary search of row r's
  /// range, whose columns from_csr leaves sorted.
  offset_t find_side(index_t r, index_t c) const {
    if (side_row_ptr.empty()) return -1;
    const index_t* cb = extracted.col_idx.data() + side_row_ptr[r];
    const index_t* ce = extracted.col_idx.data() + side_row_ptr[r + 1];
    const index_t* ci = std::lower_bound(cb, ce, c);
    return ci != ce && *ci == c ? side_row_ptr[r] + (ci - cb) : -1;
  }

  /// Reassembles the full matrix (tiled part + extracted part) as sorted
  /// row-major COO — the round-trip used by the property tests.
  Coo<T> to_coo() const {
    Coo<T> out(rows, cols);
    out.reserve(static_cast<std::size_t>(total_nnz()));
    for (index_t tr = 0; tr < tile_rows; ++tr) {
      for (offset_t t = tile_row_ptr[tr]; t < tile_row_ptr[tr + 1]; ++t) {
        const index_t col_base = tile_col_id[t] * nt;
        const std::uint16_t* p = &intra_row_ptr[t * (nt + 1)];
        for (index_t lr = 0; lr < nt; ++lr) {
          for (offset_t i = tile_nnz_ptr[t] + p[lr];
               i < tile_nnz_ptr[t] + p[lr + 1]; ++i) {
            out.push(tr * nt + lr, col_base + local_col[i], vals[i]);
          }
        }
      }
    }
    for (index_t i = 0; i < extracted.nnz(); ++i) {
      out.push(extracted.row_idx[i], extracted.col_idx[i], extracted.vals[i]);
    }
    out.sort_row_major();
    return out;
  }

  /// Total bytes of the heavy arrays (payload + derived indexes).
  std::size_t payload_bytes() const {
    auto vb = [](const auto& v) {
      return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    return vb(tile_row_ptr) + vb(tile_col_id) + vb(tile_nnz_ptr) +
           vb(intra_row_ptr) + vb(local_col) + vb(vals) +
           vb(extracted.row_idx) + vb(extracted.col_idx) + vb(extracted.vals) +
           vb(side_row_ptr) + vb(row_chunk_ptr) + vb(run_ptr) + vb(row_runs) +
           vb(tile_strategy);
  }

  /// Moves every heavy array into `arena` and rebinds the fields as views.
  /// With a first-touch arena and a shard-configured pool, each array is
  /// copied by a uniform parallel sweep whose pinned workers fault their
  /// own slice's pages onto their NUMA node, so a shard's traversal reads
  /// mostly node-local memory. The arena joins the structure's `storage`
  /// holder (shared across copies).
  void place(std::shared_ptr<Arena> arena, ThreadPool* pool = nullptr) {
    assert(arena != nullptr);
    arena_place_buf(*arena, tile_row_ptr, pool);
    arena_place_buf(*arena, tile_col_id, pool);
    arena_place_buf(*arena, tile_nnz_ptr, pool);
    arena_place_buf(*arena, intra_row_ptr, pool);
    arena_place_buf(*arena, local_col, pool);
    arena_place_buf(*arena, vals, pool);
    arena_place_buf(*arena, side_row_ptr, pool);
    arena_place_buf(*arena, run_ptr, pool);
    arena_place_buf(*arena, row_runs, pool);
    arena_place_buf(*arena, tile_strategy, pool);
    placed = arena->placement();
    storage = std::shared_ptr<const void>(arena, arena.get());
  }
};

}  // namespace tilespmspv
