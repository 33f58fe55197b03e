// TileSpMV baseline (Niu et al., IPDPS'21) — the tiled SpMV the paper's
// TileSpMSpV extends. It uses the same tiled matrix storage but treats the
// input vector as dense: every non-empty *matrix* tile is computed, with no
// x_ptr lookup to skip empty vector tiles. The gap between this and
// tile_spmspv is exactly the contribution of the tiled-vector indexing.
// The extracted side part, if any, is finished row by row in the task
// that owns the tile row (TileSpMV itself keeps every nonzero in tiles),
// so the result does not depend on the pool size or the schedule.
#pragma once

#include <cassert>
#include <vector>

#include "formats/sparse_vector.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_matrix.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// y = A * dense(x) over the tiled format.
template <typename T>
SparseVec<T> tile_spmv(const TileMatrix<T>& a, const std::vector<T>& x_dense,
                       std::vector<T>& y_dense, ThreadPool* pool = nullptr) {
  const index_t nt = a.nt;
  const bool side = a.extracted.nnz() > 0;
  assert(!side ||
         a.side_row_ptr.size() == static_cast<std::size_t>(a.rows) + 1);
  y_dense.assign(a.rows, T{});
  parallel_for(
      a.tile_rows,
      [&](index_t tr) {
        T acc[256];
        for (index_t i = 0; i < nt; ++i) acc[i] = T{};
        for (offset_t t = a.tile_row_ptr[tr]; t < a.tile_row_ptr[tr + 1];
             ++t) {
          const index_t c0 = a.tile_col_id[t] * nt;
          const std::uint16_t* p = &a.intra_row_ptr[t * (nt + 1)];
          const offset_t base = a.tile_nnz_ptr[t];
          for (index_t lr = 0; lr < nt; ++lr) {
            T sum{};
            for (offset_t i = base + p[lr]; i < base + p[lr + 1]; ++i) {
              sum += a.vals[i] * x_dense[c0 + a.local_col[i]];
            }
            acc[lr] += sum;
          }
        }
        const index_t r_end = std::min<index_t>((tr + 1) * nt, a.rows);
        const offset_t k_end = side ? a.side_row_ptr[r_end] : 0;
        for (offset_t k = side ? a.side_row_ptr[tr * nt] : 0; k < k_end; ++k) {
          acc[a.extracted.row_idx[k] - tr * nt] +=
              a.extracted.vals[k] * x_dense[a.extracted.col_idx[k]];
        }
        for (index_t r = tr * nt; r < r_end; ++r) {
          y_dense[r] = acc[r - tr * nt];
        }
      },
      pool, /*chunk=*/8);
  return SparseVec<T>::from_dense(y_dense);
}

template <typename T>
SparseVec<T> tile_spmv(const TileMatrix<T>& a, const SparseVec<T>& x,
                       ThreadPool* pool = nullptr) {
  std::vector<T> xd = x.to_dense();
  std::vector<T> yd;
  return tile_spmv(a, xd, yd, pool);
}

}  // namespace tilespmspv
