// Work-weighted tile-row chunking (built once at conversion time).
//
// The SpMSpV phase-1 loops used to hand the pool fixed 8-tile-row chunks;
// on skewed matrices (power-law tile rows holding most of the payload next
// to long runs of empty rows) that either starves the claim counter with
// tiny chunks or serializes the heavy rows into one chunk. Instead the
// conversion pass cuts the tile-row range into chunks of roughly equal
// *work* — payload nonzeros plus a per-tile metadata charge — and the
// kernels dispatch one pool unit per weighted chunk. Scheduling only; the
// per-row traversal order and every observability counter are unchanged.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace tilespmspv {

/// Metadata charge per stored tile, in payload-nonzero units (a tile visit
/// costs an x_ptr lookup plus the intra pointer setup).
inline constexpr offset_t kTileMetaWork = 4;

/// Target work per chunk. Small enough that a 4-wide pool gets dozens of
/// claims even on the small suite matrices, large enough that the claim
/// fetch_add never shows up in profiles.
inline constexpr offset_t kChunkTargetWork = 4096;

/// Cuts [0, tile_rows) into work-balanced chunks. `tile_row_ptr` is the
/// CSR-over-tiles row pointer (length tile_rows + 1) and `tile_nnz_ptr`
/// the per-tile entry ranges; both the TileMatrix and PackedTileMatrix
/// layouts provide them (templated on the array type so owned vectors and
/// mapped ArrayBuf views both work). `row_work(tr)` adds work done
/// outside the tiles (TileMatrix: the tile row's side entries). Returns
/// boundaries: chunk c covers tile rows [out[c], out[c+1]). Always at least
/// one chunk when tile_rows > 0.
template <typename PtrArray, typename NnzArray, typename RowWork>
inline std::vector<index_t> build_row_chunks(index_t tile_rows,
                                             const PtrArray& tile_row_ptr,
                                             const NnzArray& tile_nnz_ptr,
                                             RowWork&& row_work) {
  std::vector<index_t> bounds;
  bounds.push_back(0);
  if (tile_rows <= 0) return bounds;
  offset_t acc = 0;
  for (index_t tr = 0; tr < tile_rows; ++tr) {
    const offset_t t_begin = tile_row_ptr[tr];
    const offset_t t_end = tile_row_ptr[tr + 1];
    // +1 per row: even empty tile rows cost a claim-loop iteration.
    acc += 1 + kTileMetaWork * (t_end - t_begin) +
           (tile_nnz_ptr[t_end] - tile_nnz_ptr[t_begin]) + row_work(tr);
    if (acc >= kChunkTargetWork) {
      bounds.push_back(tr + 1);
      acc = 0;
    }
  }
  if (bounds.back() != tile_rows) bounds.push_back(tile_rows);
  return bounds;
}

/// Generic weighted chunking into a caller-owned boundary vector: cuts
/// [0, n) so each chunk accumulates roughly `target` weight, with
/// weight(i) supplied per item. The into-variant exists for the BFS
/// frontier scheduling, which re-chunks the frontier slot list every
/// level and must not allocate in steady state (the workspace keeps the
/// vector). Boundaries follow the build_row_chunks convention: chunk c
/// covers items [out[c], out[c+1]), at least one chunk when n > 0.
template <typename WeightFn>
inline void build_weighted_chunks_into(std::vector<index_t>& bounds,
                                       index_t n, offset_t target,
                                       WeightFn&& weight) {
  bounds.clear();
  bounds.push_back(0);
  if (n <= 0) return;
  offset_t acc = 0;
  for (index_t i = 0; i < n; ++i) {
    acc += weight(i);
    if (acc >= target) {
      bounds.push_back(i + 1);
      acc = 0;
    }
  }
  if (bounds.back() != n) bounds.push_back(n);
}

/// Allocating convenience wrapper over build_weighted_chunks_into, used at
/// conversion time (BitTileGraph's per-tile-row popcount weights).
template <typename WeightFn>
inline std::vector<index_t> build_weighted_chunks(index_t n, offset_t target,
                                                  WeightFn&& weight) {
  std::vector<index_t> bounds;
  build_weighted_chunks_into(bounds, n, target, weight);
  return bounds;
}

/// Fallback boundaries (fixed-width chunks) for tiled matrices created
/// before chunking existed — e.g. hand-built in tests — so kernels can
/// assume boundaries are always present.
inline std::vector<index_t> uniform_row_chunks(index_t tile_rows,
                                               index_t width) {
  std::vector<index_t> bounds;
  bounds.push_back(0);
  for (index_t tr = width; tr < tile_rows; tr += width) bounds.push_back(tr);
  if (tile_rows > 0 && bounds.back() != tile_rows) bounds.push_back(tile_rows);
  return bounds;
}

}  // namespace tilespmspv
