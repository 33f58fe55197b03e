// TileSpMSpV — the paper's numeric kernel (Algorithm 4).
//
// One work unit per *work-balanced chunk* of tile rows (boundaries computed
// once at conversion, see tile/tile_chunks.hpp): every non-empty matrix tile
// in a tile row looks up its column position in the tiled vector's x_ptr in
// O(1); empty vector tiles are skipped without touching the tile payload.
// Surviving tiles run a tile-local CSR × dense-tile product into an
// NT-element register-like accumulator, with the gather+multiply half of the
// product vectorized (util/simd.hpp). The very sparse part extracted into
// COO at preprocessing time (paper §3.2.1) is finished row by row in the
// task that owns the tile row, from the row-major side index, so every
// output value is summed by one task in a fixed order: the CSR form is
// bitwise reproducible across pool sizes and schedules.
//
// The paper's two forms (§3.2.3), one function each: the CSR form
// (tile_spmspv) takes an optional output mask, the GraphBLAS fused
// y<mask> = A x; the CSC form (tile_spmspv_csc) takes a semiring
// (core/semiring.hpp), numeric plus-times by default.
//
// Execution-layer notes:
//   - the CSC form scatters into per-range privatized buckets instead of
//     taking a CAS or a lock per value; buckets are merged in index order
//     during the gather, so the hot loop carries no atomics at all;
//   - phase 3 (gather) runs as a parallel range-concatenation: disjoint
//     tile ranges assemble privately sized from the flagged-tile count and
//     are spliced with a prefix sum, preserving the exact serial output;
//   - all scratch (active-tile lists, privatized buckets, gather buffers)
//     lives in SpmspvWorkspace, so steady-state multiplies allocate nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/semiring.hpp"
#include "formats/sparse_vector.hpp"
#include "obs/counters.hpp"
#include "obs/shard_stats.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_chunks.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace tilespmspv {

namespace detail {

/// Stack scratch for the flat gather+multiply micro-kernel: covers every
/// tile up to 4096 entries (all of nt <= 64, and any realistically sparse
/// tile at larger nt); denser tiles fall back to per-row SIMD dots, where
/// rows are long enough for lane partials to amortize.
inline constexpr int kProdScratch = 4096;

/// Dense-in-tile accumulation for one intra-CSR tile: acc[lr] +=
/// sum_i vals[i] * xt[cols[i]] over the tile's local rows. `runs` lists
/// the tile's non-empty local rows as (row, count - 1, contiguous) byte
/// triples covering the tile's entries in order (see
/// TileMatrix::build_row_runs, which every construction path runs).
/// Sparse tiles touch only their populated rows — no nt-iteration
/// row-pointer scan — and for double the tile's precomputed `strategy`
/// selects the SIMD micro-kernel its run shape favors: per-run dots
/// (gather-free FMA on contiguous-column rows, hardware gather on long
/// scattered rows), the flat gather + segment sums, or a plain scalar loop
/// for tiles of a handful of entries. Other value types take the scalar
/// loop.
template <typename T>
inline void intra_tile_accumulate_runs(const T* vals, const std::uint8_t* cols,
                                       const std::uint8_t* runs, int nruns,
                                       int nnz, std::uint8_t strategy,
                                       const T* xt, T* acc,
                                       T* prod) {  // lint:hot-path
  if constexpr (std::is_same_v<T, double>) {
    if (strategy == TileMatrix<T>::kRunFlat && nnz <= kProdScratch) {
      simd::gather_mul(vals, cols, nnz, xt, prod);
      int pos = 0;
      for (int ri = 0; ri < nruns; ++ri) {
        const std::size_t rb = static_cast<std::size_t>(ri) * 3;
        const int lr = runs[rb];
        const int c = runs[rb + 1] + 1;
        acc[lr] += simd::range_sum(prod + pos, c);
        pos += c;
      }
      return;
    }
    if (strategy != TileMatrix<T>::kRunTiny) {
      int pos = 0;
      for (int ri = 0; ri < nruns; ++ri) {
        const std::size_t rb = static_cast<std::size_t>(ri) * 3;
        const int lr = runs[rb];
        const int c = runs[rb + 1] + 1;
        if (c == 1) {
          acc[lr] += vals[pos] * xt[cols[pos]];
        } else if (runs[rb + 2]) {
          acc[lr] += simd::dot_contig(vals + pos, xt + cols[pos], c);
        } else if (c >= 8) {
          acc[lr] += simd::dot_gather(vals + pos, cols + pos, c, xt);
        } else {
          T sum{};
          for (int i = pos; i < pos + c; ++i) sum += vals[i] * xt[cols[i]];
          acc[lr] += sum;
        }
        pos += c;
      }
      return;
    }
  }
  (void)prod;
  (void)nnz;
  int pos = 0;
  for (int ri = 0; ri < nruns; ++ri) {
    const std::size_t rb = static_cast<std::size_t>(ri) * 3;
    const int lr = runs[rb];
    const int c = runs[rb + 1] + 1;
    T sum{};
    for (int i = pos; i < pos + c; ++i) sum += vals[i] * xt[cols[i]];
    acc[lr] += sum;
    pos += c;
  }
}

}  // namespace detail

/// Per-range buffers for the parallel gather (phase 3): each range of
/// output tiles assembles into its own pair of arrays, spliced afterwards.
/// Buffers keep their capacity across multiplies.
template <typename T>
struct GatherScratch {
  std::vector<std::vector<index_t>> idx;
  std::vector<std::vector<T>> vals;
  std::vector<std::size_t> offs;

  void ensure(index_t ranges) {
    if (static_cast<index_t>(idx.size()) < ranges) {
      idx.resize(ranges);
      vals.resize(ranges);
    }
    offs.assign(static_cast<std::size_t>(ranges) + 1, 0);
  }
};

/// Reusable buffers so per-multiply cost stays proportional to the touched
/// rows, not to the matrix size (important at vector sparsity 1e-4, where a
/// full O(rows) clear would dominate and hide the algorithm's advantage).
/// Invariants between calls: y_dense, tile_flag and priv_touched are
/// all-zero; priv_vals holds the CSC semiring's zero (ensure_csc's fill);
/// priv_list entries are empty; `active` holds garbage. One workspace
/// serves one semiring: CSC multiplies over two semirings whose zeros
/// differ (plus-times and min-plus) need a workspace each.
template <typename T = value_t>
struct SpmspvWorkspace {
  std::vector<T> y_dense;                  // all-zero between calls
  std::vector<unsigned char> tile_flag;    // all-zero between calls

  // Hoisted scratch for the active-tile lists built each multiply.
  std::vector<index_t> active;

  // Privatized CSC scatter buckets, one per static range: range r owns
  // priv_vals[r*stride ..] and priv_touched[r*out_tiles ..]; priv_list[r]
  // records which output tiles range r touched. bucket_bounds holds the
  // current phase's range cuts.
  std::vector<T> priv_vals;
  std::vector<unsigned char> priv_touched;
  std::vector<std::vector<index_t>> priv_list;
  std::vector<index_t> bucket_bounds;

  GatherScratch<T> gather;

  // Cached shard partition of the phase-1 chunk list (NUMA-sharded pools
  // only): chunk boundaries plus the payload bytes each shard covers.
  // Rebuilt when the chunk list identity or the shard count changes, so
  // steady-state multiplies pay nothing for it.
  std::vector<index_t> shard_bounds;
  std::vector<std::uint64_t> shard_bytes;
  const index_t* shard_key = nullptr;
  int shard_ns = 0;

  void ensure(index_t rows, index_t tile_rows) {
    if (static_cast<index_t>(y_dense.size()) < rows) {
      y_dense.assign(rows, T{});
    }
    if (static_cast<index_t>(tile_flag.size()) < tile_rows) {
      tile_flag.assign(tile_rows, 0);
    }
  }

  /// `zero` fills new bucket slots: the semiring zero the merge restores.
  void ensure_csc(index_t out_tiles, index_t nt, int buckets, T zero) {
    const std::size_t need_vals = static_cast<std::size_t>(buckets) *
                                  static_cast<std::size_t>(out_tiles) * nt;
    if (priv_vals.size() < need_vals) priv_vals.resize(need_vals, zero);
    const std::size_t need_touched =
        static_cast<std::size_t>(buckets) * out_tiles;
    if (priv_touched.size() < need_touched) {
      priv_touched.resize(need_touched, 0);
    }
    if (priv_list.size() < static_cast<std::size_t>(buckets)) {
      priv_list.resize(buckets);
    }
    // The merge dedups the per-range lists through tile_flag, so it must
    // span the *output* tile grid too.
    if (static_cast<index_t>(tile_flag.size()) < out_tiles) {
      tile_flag.assign(out_tiles, 0);
    }
  }
};

namespace detail {

/// Number of gather ranges for `tiles` output tile slots on `p`. 1 means
/// "assemble serially": small outputs, a single-slot pool, or a host
/// without real hardware parallelism (an oversubscribed pool would pay
/// the splice's extra output copy with no concurrent assembly to show
/// for it).
inline index_t gather_ranges(index_t tiles, ThreadPool& p) {
  static const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1 || p.size() <= 1 || tiles < 4096) return 1;
  return std::min<index_t>(tiles,
                           static_cast<index_t>(4 * p.size()));
}

/// Cuts items [0, m) into `parts` contiguous ranges of near-equal total
/// `weight(i)` (which must be >= 1 so every item counts); `bounds` gets
/// parts + 1 entries. The cut depends only on the weights and `parts`,
/// never on scheduling, so a range index names a fixed set of items.
template <typename Weight>
void weighted_ranges(index_t m, index_t parts, Weight weight,
                     std::vector<index_t>& bounds) {
  std::uint64_t total = 0;
  for (index_t i = 0; i < m; ++i) total += weight(i);
  const auto p64 = static_cast<std::uint64_t>(parts);
  bounds.assign(static_cast<std::size_t>(parts) + 1, m);
  bounds[0] = 0;
  std::uint64_t acc = 0;
  index_t r = 1;
  for (index_t i = 0; i < m && r < parts; ++i) {
    // Cut before item i once the items before it carry r/parts of the
    // total weight.
    while (r < parts && acc * p64 >= total * static_cast<std::uint64_t>(r)) {
      bounds[r++] = i;
    }
    acc += weight(i);
  }
}

/// Splices per-range gather buffers into one SparseVec via prefix sums.
/// Range buffers are cleared (capacity kept) on the way out.
template <typename T>
void splice_ranges(index_t ranges, GatherScratch<T>& gs, ThreadPool* pool,
                   SparseVec<T>& y) {
  for (index_t r = 0; r < ranges; ++r) {
    gs.offs[r + 1] = gs.offs[r] + gs.idx[r].size();
  }
  const std::size_t total = gs.offs[ranges];
  y.idx.resize(total);
  y.vals.resize(total);
  parallel_for(
      ranges,
      [&](index_t r) {
        std::copy(gs.idx[r].begin(), gs.idx[r].end(),
                  y.idx.begin() + gs.offs[r]);
        std::copy(gs.vals[r].begin(), gs.vals[r].end(),
                  y.vals.begin() + gs.offs[r]);
        gs.idx[r].clear();
        gs.vals[r].clear();
      },
      pool, /*chunk=*/1);
}

/// Runs assemble(begin, end, out_idx, out_vals) over items [0, m) into
/// `y`: serially when gather_ranges says so, else over equal contiguous
/// ranges into the per-range buffers, spliced in range order — the same
/// output as the serial call.
template <typename T, typename Assemble>
void assemble_ranges(index_t m, const Assemble& assemble, GatherScratch<T>& gs,
                     ThreadPool& p, SparseVec<T>& y) {
  const index_t ranges = gather_ranges(m, p);
  if (ranges <= 1) {
    assemble(0, m, y.idx, y.vals);
    return;
  }
  gs.ensure(ranges);
  const index_t per = ceil_div(m, ranges);
  parallel_for(
      ranges,
      [&](index_t r) {
        const index_t begin = r * per;
        const index_t end = std::min<index_t>(begin + per, m);
        assemble(begin, end, gs.idx[r], gs.vals[r]);
      },
      &p, /*chunk=*/1);
  splice_ranges(ranges, gs, &p, y);
}

/// Phase-3 gather over a dense accumulator + per-tile flags (CSR form):
/// emits nonzeros of flagged tiles in index order, restoring the all-zero
/// workspace invariant. `mask` (optional) suppresses emission at
/// positions where mask[r] == complement; the accumulator is cleared either
/// way. Parallel ranges produce bit-identical output to the serial loop.
template <typename T>
SparseVec<T> gather_flagged_tiles(index_t n, index_t tiles, index_t nt, T* yd,
                                  unsigned char* flag, GatherScratch<T>& gs,
                                  ThreadPool* pool,
                                  const std::vector<bool>* mask,
                                  bool complement) {
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  SparseVec<T> y(n);

  const auto assemble = [&](index_t t_begin, index_t t_end,
                            std::vector<index_t>& out_idx,
                            std::vector<T>& out_vals) {
    // Size from the flagged-tile count: at most nt entries per flagged
    // tile, so one scan replaces geometric reallocation during the pushes.
    index_t flagged = 0;
    for (index_t tr = t_begin; tr < t_end; ++tr) flagged += flag[tr] ? 1 : 0;
    out_idx.reserve(out_idx.size() + static_cast<std::size_t>(flagged) * nt);
    out_vals.reserve(out_vals.size() + static_cast<std::size_t>(flagged) * nt);
    for (index_t tr = t_begin; tr < t_end; ++tr) {
      if (!flag[tr]) continue;
      flag[tr] = 0;
      const index_t r_begin = tr * nt;
      const index_t r_end = std::min<index_t>(r_begin + nt, n);
      for (index_t r = r_begin; r < r_end; ++r) {
        if (yd[r] != T{} &&
            (mask == nullptr || (*mask)[r] != complement)) {
          out_idx.push_back(r);
          out_vals.push_back(yd[r]);
        }
        yd[r] = T{};
      }
    }
  };

  assemble_ranges(tiles, assemble, gs, p, y);
  return y;
}

/// Shard partition of the phase-1 chunk list for a NUMA-sharded pool,
/// weighted by the payload bytes each chunk's tile rows cover (tile
/// metadata + intra-tile entries) so the per-node byte footprint — not the
/// chunk count — is what balances. Cached in the workspace keyed on the
/// chunk-list identity and the shard count; also publishes the per-shard
/// byte totals to the shard observability counters.
template <typename T>
const std::vector<index_t>& phase1_shard_bounds(SpmspvWorkspace<T>& ws,
                                                const TileMatrix<T>& a,
                                                const index_t* chunk_ptr,
                                                index_t nchunks, int ns) {
  if (ws.shard_key != chunk_ptr || ws.shard_ns != ns ||
      ws.shard_bounds.empty() || ws.shard_bounds.back() != nchunks) {
    ShardPlan plan = make_shard_plan(nchunks, ns, [&](index_t c) {
      const index_t tr0 = chunk_ptr[c];
      const index_t tr1 = chunk_ptr[c + 1];
      const offset_t t0 = a.tile_row_ptr[tr0];
      const offset_t t1 = a.tile_row_ptr[tr1];
      const offset_t nnz = a.tile_nnz_ptr[t1] - a.tile_nnz_ptr[t0];
      return static_cast<std::uint64_t>(t1 - t0) *
                 (sizeof(index_t) + sizeof(offset_t) +
                  static_cast<std::size_t>(a.nt + 1) * sizeof(std::uint16_t)) +
             static_cast<std::uint64_t>(nnz) * (sizeof(T) + 1);
    });
    ws.shard_bounds = std::move(plan.chunk_bounds);
    ws.shard_bytes = std::move(plan.bytes);
    ws.shard_key = chunk_ptr;
    ws.shard_ns = ns;
  }
  for (int s = 0; s < ns; ++s) {
    obs::shard_set_bytes(s, ws.shard_bytes[static_cast<std::size_t>(s)]);
  }
  return ws.shard_bounds;
}

}  // namespace detail

/// y = A x with A in tiled form and x in tiled vector form.
///
/// With `mask` set this is the masked multiply y<mask> = A x, the
/// GraphBLAS fused form: only output positions r with
/// (*mask)[r] != complement are emitted — with `complement` set, the
/// positions NOT in the mask (the BFS recurrence: next = (A·frontier)
/// masked by the complement of visited). Phase 1 runs unmasked (output
/// positions are unknown until computed); the gather applies the mask, so
/// masked-out values never reach the output vector and the intermediate
/// vector of mask(tile_spmspv(...), m) is never materialized.
template <typename T>
SparseVec<T> tile_spmspv(const TileMatrix<T>& a, const TileVector<T>& x,
                         SpmspvWorkspace<T>& ws, ThreadPool* pool = nullptr,
                         const std::vector<bool>* mask = nullptr,
                         bool complement = false) {
  assert(mask == nullptr || static_cast<index_t>(mask->size()) == a.rows);
  const char* const form = mask ? "masked" : "csr";
  const index_t nt = a.nt;
  ws.ensure(a.rows, a.tile_rows);
  T* yd = ws.y_dense.data();
  unsigned char* flag = ws.tile_flag.data();

  // Phase 1: tiled part, one task per work-balanced chunk of tile rows
  // (paper Alg. 4 with conversion-time weighted scheduling), each tile row
  // followed by its side rows. Counters accumulate into locals and flush
  // once per chunk; with counters compiled out the adds are dead and the
  // locals fold away.
  {
    obs::TraceSpan span("spmspv/phase1_tiled", "spmspv", form);
    std::vector<index_t> fallback;
    const std::vector<index_t>* cp = &a.row_chunk_ptr;
    if (cp->size() < 2) {
      fallback = uniform_row_chunks(a.tile_rows, 8);
      cp = &fallback;
    }
    const auto nchunks = static_cast<index_t>(cp->size()) - 1;
    const index_t* chunk_ptr = cp->data();
    assert(a.run_ptr.size() == static_cast<std::size_t>(a.num_tiles()) + 1);
    const bool side = a.extracted.nnz() > 0;
    assert(!side ||
           a.side_row_ptr.size() == static_cast<std::size_t>(a.rows) + 1);
    const auto chunk_body = [&](index_t c) {
          T acc[256];  // nt <= 256 by TileMatrix invariant
          T prod[detail::kProdScratch];
          std::uint64_t scanned = 0, computed = 0, macs = 0, side_macs = 0;
          for (index_t tr = chunk_ptr[c]; tr < chunk_ptr[c + 1]; ++tr) {
            bool any = false;
            const index_t r_begin = tr * nt;
            const index_t r_end = std::min<index_t>(r_begin + nt, a.rows);
            for (offset_t t = a.tile_row_ptr[tr]; t < a.tile_row_ptr[tr + 1];
                 ++t) {
              ++scanned;
              const index_t tile_colid = a.tile_col_id[t];
              const index_t x_offset = x.x_ptr[tile_colid];  // O(1) position
              if (x_offset == kEmptyTile) continue;  // skip empty x tile
              ++computed;
              const offset_t base = a.tile_nnz_ptr[t];
              const auto tile_nnz =
                  static_cast<int>(a.tile_nnz_ptr[t + 1] - base);
              macs += static_cast<std::uint64_t>(tile_nnz);
              const T* xt =
                  &x.x_tile[static_cast<std::size_t>(x_offset) * nt];
              if (!any) {
                for (index_t i = 0; i < nt; ++i) acc[i] = T{};
                any = true;
              }
              detail::intra_tile_accumulate_runs(
                  &a.vals[base], &a.local_col[base],
                  a.row_runs.data() + 3 * a.run_ptr[t],
                  static_cast<int>(a.run_ptr[t + 1] - a.run_ptr[t]),
                  tile_nnz, a.tile_strategy[t], xt, acc, prod);
            }
            // Side rows of this tile row (a contiguous, row-major range of
            // the extracted COO): probe x per entry.
            const offset_t k_end = side ? a.side_row_ptr[r_end] : 0;
            for (offset_t k = side ? a.side_row_ptr[r_begin] : 0; k < k_end;
                 ++k) {
              const index_t j = a.extracted.col_idx[k];
              const index_t x_offset = x.x_ptr[j / nt];
              if (x_offset == kEmptyTile) continue;
              const T xv =
                  x.x_tile[static_cast<std::size_t>(x_offset) * nt + j % nt];
              if (xv == T{}) continue;
              ++side_macs;
              if (!any) {
                for (index_t i = 0; i < nt; ++i) acc[i] = T{};
                any = true;
              }
              acc[a.extracted.row_idx[k] - r_begin] += a.extracted.vals[k] * xv;
            }
            if (any) {
              for (index_t r = r_begin; r < r_end; ++r) {
                yd[r] = acc[r - r_begin];
              }
              flag[tr] = 1;
            }
          }
          obs::counter_add(obs::Counter::kTilesScanned, scanned);
          obs::counter_add(obs::Counter::kTilesSkippedEmpty,
                           scanned - computed);
          obs::counter_add(obs::Counter::kTilesComputed, computed);
          obs::counter_add(obs::Counter::kPayloadMacs, macs);
          obs::counter_add(obs::Counter::kSideMacs, side_macs);
          obs::shard_add_tiles(ThreadPool::current_shard(), scanned);
    };
    ThreadPool& p1 = pool ? *pool : ThreadPool::shared();
    if (p1.num_shards() > 1 && nchunks > 1) {
      // NUMA-sharded dispatch: each shard's workers drain the chunks whose
      // tile rows live (first-touch) on their node, stealing cross-node
      // only once their shard is dry.
      const std::vector<index_t>& sb = detail::phase1_shard_bounds(
          ws, a, chunk_ptr, nchunks, p1.num_shards());
      p1.parallel_shard_ranges(sb, 1, [&](index_t begin, index_t end) {
        for (index_t c = begin; c < end; ++c) chunk_body(c);
      });
    } else {
      parallel_for(nchunks, chunk_body, pool, /*chunk=*/1);
    }
  }

  // Gather touched tile rows into the sparse result and restore the
  // workspace's all-zero invariant.
  obs::TraceSpan span("spmspv/phase3_gather", "spmspv", form);
  obs::counter_add(obs::Counter::kGatherSlots,
                   static_cast<std::uint64_t>(a.tile_rows));
  return detail::gather_flagged_tiles(a.rows, a.tile_rows, nt, yd, flag,
                                      ws.gather, pool, mask, complement);
}

/// Convenience overload owning a transient workspace.
template <typename T>
SparseVec<T> tile_spmspv(const TileMatrix<T>& a, const TileVector<T>& x,
                         ThreadPool* pool = nullptr) {
  SpmspvWorkspace<T> ws;
  return tile_spmspv(a, x, ws, pool);
}

/// CSC-form TileSpMSpV (paper §3.2.3: "we provide two forms of SpMSpV
/// algorithms: CSR-SpMSpV and CSC-SpMSpV", selected by vector density).
///
/// Vector-driven: only the tile *columns* whose vector tile is non-empty
/// are visited, so the cost is proportional to the active part of the
/// matrix — the winning regime for very sparse x, where the CSR form's
/// scan over all tile rows' metadata would dominate.
///
/// `at` is the tiled form of Aᵀ: a tile row of Aᵀ is a tile column of A,
/// a local row is an input (column) index of A and a local column an
/// output (row) index, so the same TileMatrix structure serves both
/// orientations. Several tile columns can scatter into the same output
/// tile; instead of the paper's atomic merge, the active tile columns are
/// cut into one static range per pool slot (weighted by their work), range
/// r scatters into its own privatized bucket r in phases 1 and 2, and the
/// gather sums buckets in index order. The hot loop performs no value
/// atomics, and the summation order depends only on the pool size, never
/// on which thread ran which range, so results are bitwise reproducible.
///
/// The scalar operations come from the semiring `S` (core/semiring.hpp),
/// so shortest-path (min-plus), reachability (or-and) and reliability
/// (max-times) run on the same kernel; the default plus-times is the
/// numeric multiply. x's padding inside non-empty tiles must be
/// S::zero(), and `ws` must serve this one semiring (see SpmspvWorkspace).
/// The result holds every output whose accumulated value is not S::zero().
template <typename T, typename S = PlusTimes<T>>
SparseVec<T> tile_spmspv_csc(const TileMatrix<T>& at, const TileVector<T>& x,
                             SpmspvWorkspace<T>& ws,
                             ThreadPool* pool = nullptr) {
  const T zero = S::zero();
  const index_t nt = at.nt;
  const index_t out_n = at.cols;  // rows of A
  const index_t out_tiles = at.tile_cols;
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  const int buckets = static_cast<int>(p.size());
  const std::size_t stride =
      static_cast<std::size_t>(out_tiles) * static_cast<std::size_t>(nt);
  ws.ensure_csc(out_tiles, nt, buckets, zero);

  // Cuts items [0, m) into static ranges weighted by weight(i) and runs
  // scatter(i, vals, touched, list) for each item of range r on bucket
  // r's values, touched-tile flags and touched-tile list.
  const auto scatter_ranges = [&](index_t m, const auto& weight,
                                  const auto& scatter) {
    const index_t parts = std::min<index_t>(m, buckets);
    if (parts == 0) return;
    detail::weighted_ranges(m, parts, weight, ws.bucket_bounds);
    parallel_for(
        parts,
        [&](index_t r) {
          T* pv = ws.priv_vals.data() + static_cast<std::size_t>(r) * stride;
          unsigned char* pt =
              ws.priv_touched.data() + static_cast<std::size_t>(r) * out_tiles;
          std::vector<index_t>& plist = ws.priv_list[r];
          for (index_t i = ws.bucket_bounds[r]; i < ws.bucket_bounds[r + 1];
               ++i) {
            scatter(i, pv, pt, plist);
          }
        },
        &p, /*chunk=*/1);
  };

  // Active tile columns of A = non-empty tiles of x = tile rows of Aᵀ with
  // a matching vector tile.
  ws.active.clear();
  for (index_t s = 0; s < x.num_tiles(); ++s) {
    if (x.x_ptr[s] != kEmptyTile && s < at.tile_rows &&
        at.tile_row_ptr[s] < at.tile_row_ptr[s + 1]) {
      ws.active.push_back(s);
    }
  }
  const std::vector<index_t>& active = ws.active;

  {
    obs::TraceSpan span("spmspv/phase1_tiled", "spmspv", "csc");
    scatter_ranges(
        static_cast<index_t>(active.size()),
        [&](index_t ai) {
          // Stored nonzeros plus tiles: every tile scans nt input slots.
          const index_t s = active[ai];
          const offset_t t0 = at.tile_row_ptr[s], t1 = at.tile_row_ptr[s + 1];
          const offset_t nnz = at.tile_nnz_ptr[t1] - at.tile_nnz_ptr[t0];
          return static_cast<std::uint64_t>(nnz + (t1 - t0));
        },
        [&](index_t ai, T* pv, unsigned char* pt,
            std::vector<index_t>& plist) {
          const index_t s = active[ai];
          const T* xt =
              &x.x_tile[static_cast<std::size_t>(x.x_ptr[s]) * nt];
          std::uint64_t scanned = 0, macs = 0;
          for (offset_t t = at.tile_row_ptr[s]; t < at.tile_row_ptr[s + 1];
               ++t) {
            ++scanned;
            const index_t out_tile = at.tile_col_id[t];
            T* tb = pv + static_cast<std::size_t>(out_tile) * nt;
            const std::uint16_t* rp = &at.intra_row_ptr[t * (nt + 1)];
            const offset_t base = at.tile_nnz_ptr[t];
            bool touched = false;
            for (index_t lj = 0; lj < nt; ++lj) {  // local input index
              const T xv = xt[lj];
              if (xv == zero) continue;
              const int b = rp[lj], e = rp[lj + 1];
              if (e == b) continue;
              macs += static_cast<std::uint64_t>(e - b);
              touched = true;
              for (offset_t i = base + b; i < base + e; ++i) {
                T& slot = tb[at.local_col[i]];
                slot = S::add(slot, S::mul(at.vals[i], xv));
              }
            }
            if (touched && !pt[out_tile]) {
              pt[out_tile] = 1;
              plist.push_back(out_tile);
            }
          }
          // Vector-driven form: every scanned tile is computed (there is no
          // metadata-only skip), so the two counters move together.
          obs::counter_add(obs::Counter::kTilesScanned, scanned);
          obs::counter_add(obs::Counter::kTilesComputed, scanned);
          obs::counter_add(obs::Counter::kPayloadMacs, macs);
        });
  }

  // Extracted side part of Aᵀ: entry (j, i) of Aᵀ is A[i][j], so walking
  // extracted *rows* j selected by x visits exactly the active columns of
  // A (side_row_ptr indexes the row-major extracted COO). Scatters into
  // the same privatized buckets as phase 1 (bucket element i lives at
  // pv[i] because the bucket layout is tile-major and tiles are
  // contiguous), so this pass is value-atomic-free as well.
  if (at.extracted.nnz() > 0) {
    obs::TraceSpan span("spmspv/phase2_side", "spmspv", "csc");
    ws.active.clear();
    for (index_t s = 0; s < x.num_tiles(); ++s) {
      if (x.x_ptr[s] != kEmptyTile) ws.active.push_back(s);
    }
    const std::vector<index_t>& x_active = ws.active;
    scatter_ranges(
        static_cast<index_t>(x_active.size()),
        [&](index_t ai) {
          // Side entries of the tile's input rows, plus one for the tile.
          const index_t j0 = std::min<index_t>(x_active[ai] * nt, at.rows);
          const index_t j1 = std::min<index_t>(j0 + nt, at.rows);
          const offset_t side = at.side_row_ptr[j1] - at.side_row_ptr[j0];
          return static_cast<std::uint64_t>(side) + 1;
        },
        [&](index_t ai, T* pv, unsigned char* pt,
            std::vector<index_t>& plist) {
          const index_t s = x_active[ai];
          const T* xt = &x.x_tile[static_cast<std::size_t>(x.x_ptr[s]) * nt];
          std::uint64_t side = 0;
          for (index_t lj = 0; lj < nt; ++lj) {
            const index_t j = s * nt + lj;
            if (j >= at.rows) break;
            const T xv = xt[lj];
            if (xv == zero) continue;
            side += static_cast<std::uint64_t>(at.side_row_ptr[j + 1] -
                                               at.side_row_ptr[j]);
            for (offset_t k = at.side_row_ptr[j]; k < at.side_row_ptr[j + 1];
                 ++k) {
              const index_t i = at.extracted.col_idx[k];
              pv[i] = S::add(pv[i], S::mul(at.extracted.vals[k], xv));
              const index_t ot = i / nt;
              if (!pt[ot]) {
                pt[ot] = 1;
                plist.push_back(ot);
              }
            }
          }
          obs::counter_add(obs::Counter::kSideMacs, side);
        });
  }

  // Phase 3: merge the privatized buckets in index order and gather,
  // driven by the union of the per-range touched lists — cost
  // proportional to the tiles the multiply actually produced, never to the
  // output tile grid. Sorting the union keeps the emitted indices ordered;
  // each candidate tile is owned by exactly one range, so bucket blocks are
  // read, summed and re-zeroed without synchronization.
  obs::TraceSpan span("spmspv/phase3_gather", "spmspv", "csc");
  obs::counter_add(obs::Counter::kGatherSlots,
                   static_cast<std::uint64_t>(out_tiles));
  SparseVec<T> y(out_n);
  unsigned char* mflag = ws.tile_flag.data();
  ws.active.clear();  // phases 1-2 are done with it; reuse for the union
  for (int bk = 0; bk < buckets; ++bk) {
    for (const index_t ot : ws.priv_list[bk]) {
      if (!mflag[ot]) {
        mflag[ot] = 1;
        ws.active.push_back(ot);
      }
    }
    ws.priv_list[bk].clear();
  }
  std::sort(ws.active.begin(), ws.active.end());
  const std::vector<index_t>& cand = ws.active;
  const auto ncand = static_cast<index_t>(cand.size());

  const auto merge_range = [&](index_t c_begin, index_t c_end,
                               std::vector<index_t>& out_idx,
                               std::vector<T>& out_vals) {
    out_idx.reserve(out_idx.size() +
                    static_cast<std::size_t>(c_end - c_begin) * nt);
    out_vals.reserve(out_vals.size() +
                     static_cast<std::size_t>(c_end - c_begin) * nt);
    T merged[256];  // nt <= 256 by TileMatrix invariant
    for (index_t ci = c_begin; ci < c_end; ++ci) {
      const index_t ot = cand[ci];
      mflag[ot] = 0;
      bool any = false;
      for (int bk = 0; bk < buckets; ++bk) {
        unsigned char& touched =
            ws.priv_touched[static_cast<std::size_t>(bk) * out_tiles + ot];
        if (!touched) continue;
        touched = 0;
        T* tb = ws.priv_vals.data() + static_cast<std::size_t>(bk) * stride +
                static_cast<std::size_t>(ot) * nt;
        if (!any) {
          for (index_t i = 0; i < nt; ++i) {
            merged[i] = tb[i];
            tb[i] = zero;
          }
          any = true;
        } else {
          for (index_t i = 0; i < nt; ++i) {
            merged[i] = S::add(merged[i], tb[i]);
            tb[i] = zero;
          }
        }
      }
      if (!any) continue;  // unreachable: every listed tile has a bucket
      const index_t r_begin = ot * nt;
      const index_t r_end = std::min<index_t>(r_begin + nt, out_n);
      for (index_t r = r_begin; r < r_end; ++r) {
        if (merged[r - r_begin] != zero) {
          out_idx.push_back(r);
          out_vals.push_back(merged[r - r_begin]);
        }
      }
    }
  };

  detail::assemble_ranges(ncand, merge_range, ws.gather, p, y);
  return y;
}

template <typename T>
SparseVec<T> tile_spmspv_csc(const TileMatrix<T>& at, const TileVector<T>& x,
                             ThreadPool* pool = nullptr) {
  SpmspvWorkspace<T> ws;
  return tile_spmspv_csc(at, x, ws, pool);
}

}  // namespace tilespmspv
