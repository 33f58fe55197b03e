// Bit-parallel multi-source BFS (Then et al., VLDB'14 style): up to 64
// sources traverse simultaneously, one bit per source in a machine word
// per vertex. All sources share each edge scan, so the cost of k
// traversals approaches that of one — the standard way to batch the BFS
// fan-out of betweenness centrality and all-pairs distance sketches.
//
// ms_bfs expands on the plain CSR out-edge structure (an application-layer
// composition, like apps/rcm.hpp) and is the reference the tiled variant,
// bfs/tile_ms_bfs.hpp, is tested against; that one shares this result
// shape and is what the serving daemon runs. The single-source tiled
// traversal lives in bfs/tile_bfs.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "formats/csr.hpp"
#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "util/types.hpp"

namespace tilespmspv {

struct MsBfsResult {
  /// levels[s][v] = BFS level of vertex v from sources[s]; -1 unreachable.
  std::vector<std::vector<index_t>> levels;
  int rounds = 0;
};

/// `out_edges`: row u lists the out-neighbors of u. At most 64 sources.
template <typename T>
MsBfsResult ms_bfs(const Csr<T>& out_edges,
                   const std::vector<index_t>& sources,
                   ThreadPool* pool = nullptr) {
  const index_t n = out_edges.rows;
  const int k = static_cast<int>(sources.size());
  MsBfsResult out;
  out.levels.assign(k, std::vector<index_t>(n, -1));
  if (k == 0) return out;
  if (k > 64) {
    throw std::invalid_argument("ms_bfs: at most 64 sources per batch");
  }

  std::vector<std::uint64_t> seen(n, 0);   // bit s: visited by source s
  std::vector<std::uint64_t> visit(n, 0);  // current frontier membership
  std::vector<std::uint64_t> next(n, 0);
  std::vector<index_t> frontier;  // vertices with visit != 0
  for (int s = 0; s < k; ++s) {
    const index_t src = sources[s];
    seen[src] |= std::uint64_t{1} << s;
    if (visit[src] == 0) frontier.push_back(src);
    visit[src] |= std::uint64_t{1} << s;
    out.levels[s][src] = 0;
  }

  for (index_t level = 1; !frontier.empty(); ++level) {
    ++out.rounds;
    // Expand: every frontier vertex broadcasts its source set to its
    // out-neighbors (one edge scan shared by all k traversals).
    parallel_for(
        static_cast<index_t>(frontier.size()),
        [&](index_t fi) {
          const index_t u = frontier[fi];
          const std::uint64_t w = visit[u];
          for (offset_t i = out_edges.row_ptr[u];
               i < out_edges.row_ptr[u + 1]; ++i) {
            const index_t v = out_edges.col_idx[i];
            // Only sources that have not seen v yet matter; pre-filtering
            // avoids most atomics on converged vertices.
            const std::uint64_t fresh = w & ~atomic_load(&seen[v]);
            if (fresh != 0) atomic_or(&next[v], fresh);
          }
        },
        pool, /*chunk=*/32);

    // Fold: commit newly discovered (vertex, source) pairs.
    frontier.clear();
    for (index_t v = 0; v < n; ++v) {
      const std::uint64_t fresh = next[v] & ~seen[v];
      next[v] = 0;
      if (fresh == 0) continue;
      seen[v] |= fresh;
      visit[v] = fresh;
      frontier.push_back(v);
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

}  // namespace tilespmspv
