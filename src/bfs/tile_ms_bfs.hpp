// Tiled multi-source BFS: the bit-parallel MS-BFS technique (one bit per
// source, up to 64 sources) running over the paper's bitmask tile
// structure instead of plain CSR. Edge scans go tile by tile — each
// non-empty tile's row masks drive the per-source word merges, so the
// batch shares both the edge traversal (MS-BFS's win) and the tiled
// locality (the paper's win). The task that owns a tile row also gathers
// its rows' extracted in-edges through the destination-indexed side list,
// so every write to `next` comes from the row's owner and needs no atomic.
//
// The graph follows BitTileGraph's convention (A[i][j] != 0 means edge
// j -> i), so traversing a CSR whose row u lists u's out-edges, as ms_bfs
// reads it, means building the graph from its transpose. Levels and
// rounds match ms_bfs exactly.
#pragma once

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "apps/ms_bfs.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/bit_tile_graph.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// Runs up to 64 sources over a prebuilt BitTileGraph<NT>.
template <int NT>
MsBfsResult tile_ms_bfs(const BitTileGraph<NT>& g,
                        const std::vector<index_t>& sources,
                        ThreadPool* pool = nullptr) {
  using Word = bitword_t<NT>;
  const int k = static_cast<int>(sources.size());
  MsBfsResult out;
  out.levels.assign(k, std::vector<index_t>(g.n, -1));
  if (k == 0) return out;
  if (k > 64) {
    throw std::invalid_argument("tile_ms_bfs: at most 64 sources per batch");
  }

  // Per-vertex source words.
  std::vector<std::uint64_t> seen(g.n, 0);
  std::vector<std::uint64_t> visit(g.n, 0);
  std::vector<std::uint64_t> next(g.n, 0);
  // Per-tile-slot frontier occupancy so empty tile columns are skipped
  // without touching the per-vertex words.
  std::vector<Word> frontier_tiles(g.tile_n, 0);

  for (int s = 0; s < k; ++s) {
    const index_t src = sources[s];
    seen[src] |= std::uint64_t{1} << s;
    visit[src] |= std::uint64_t{1} << s;
    frontier_tiles[src / NT] |= msb_bit<Word>(src % NT);
    out.levels[s][src] = 0;
  }

  bool frontier_nonempty = true;
  for (index_t level = 1; frontier_nonempty; ++level) {
    ++out.rounds;
    // Expand tile rows: for tile (tr, tc), local row lr gains the union
    // of visit words of the frontier vertices among its neighbors in tc,
    // then of its extracted in-neighbors.
    parallel_for(
        g.tile_n,
        [&](index_t tr) {
          for (offset_t t = g.csr_tile_ptr[tr]; t < g.csr_tile_ptr[tr + 1];
               ++t) {
            const index_t tc = g.csr_tile_col[t];
            const Word active = frontier_tiles[tc];
            if (active == 0) continue;
            const Word* row_masks =
                &g.csr_masks[static_cast<std::size_t>(t) * NT];
            for_each_set_bit(
                g.csr_row_summary[t], [&](int lr) {
                  const Word hits = row_masks[lr] & active;
                  if (hits == 0) return;
                  const index_t v = tr * NT + lr;
                  std::uint64_t gather = 0;
                  for_each_set_bit(hits, [&](int lc) {
                    gather |= visit[tc * NT + lc];
                  });
                  const std::uint64_t fresh = gather & ~seen[v];
                  if (fresh != 0) next[v] |= fresh;  // tile row owned by task
                });
          }
          if (g.side_src.empty()) return;
          const index_t v_end = std::min<index_t>((tr + 1) * NT, g.n);
          for (index_t v = tr * NT; v < v_end; ++v) {
            std::uint64_t gather = 0;
            for (offset_t e = g.side_in_ptr[v]; e < g.side_in_ptr[v + 1];
                 ++e) {
              gather |= visit[g.side_src[e]];
            }
            const std::uint64_t fresh = gather & ~seen[v];
            if (fresh != 0) next[v] |= fresh;
          }
        },
        pool, /*chunk=*/16);

    // Fold: commit discoveries, rebuild the frontier structures.
    frontier_nonempty = false;
    std::fill(frontier_tiles.begin(), frontier_tiles.end(), Word{0});
    for (index_t v = 0; v < g.n; ++v) {
      const std::uint64_t fresh = next[v] & ~seen[v];
      next[v] = 0;
      if (fresh == 0) {
        visit[v] = 0;
        continue;
      }
      seen[v] |= fresh;
      visit[v] = fresh;
      frontier_tiles[v / NT] |= msb_bit<Word>(v % NT);
      frontier_nonempty = true;
      std::uint64_t bits = fresh;
      while (bits != 0) {
        const int s = std::countr_zero(bits);
        bits &= bits - 1;
        out.levels[s][v] = level;
      }
    }
  }
  return out;
}

/// Convenience overload building the tile structure (NT = 32) first.
/// `out_edges`: row u lists the out-neighbors of u, as for ms_bfs.
inline MsBfsResult tile_ms_bfs(const Csr<value_t>& out_edges,
                               const std::vector<index_t>& sources,
                               index_t extract_threshold = 2,
                               ThreadPool* pool = nullptr) {
  const auto g =
      BitTileGraph<32>::from_csr(out_edges.transpose(), extract_threshold,
                                 /*share_symmetric=*/true, pool);
  return tile_ms_bfs(g, sources, pool);
}

}  // namespace tilespmspv
