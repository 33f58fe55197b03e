// Ablation: intra-tile layout. The paper's §3.2.1 describes the nt = 16
// packed-byte encoding (one unsigned char per nonzero, row|col nibbles);
// the kernels in §3.3 walk a tile-local CSR. This bench compares the two
// layouts on matrices with dense tiles (FEM) and near-empty tiles
// (road / web), plus the metadata footprint of each. The tile-local CSR
// runs twice: at extraction 0 (every nonzero tiled, like packed) and at
// the shipped extract_threshold = 2 (sparse tiles go to the side COO),
// across a frontier-density sweep.
#include <iostream>

#include "bench_common.hpp"
#include "core/tile_spmspv.hpp"
#include "gen/vector_gen.hpp"
#include "tile/packed_tile_matrix.hpp"

using namespace tilespmspv;
using namespace tilespmspv::bench;

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 3;
  ThreadPool pool(4);
  std::cout << "Ablation: intra-tile layout (packed byte vs tile-local CSR)"
            << "\nnt = 16; CSR x0 tiles every nonzero like packed, CSR x2 "
               "is the shipped extract_threshold = 2\n\n";

  Table table({"matrix", "density", "nnz/tile", "intra-CSR meta B/nnz",
               "packed meta B/nnz", "CSR x0 ms", "CSR x2 ms", "packed ms",
               "packed/x0", "packed/x2"});
  for (const char* name : {"cant", "pdb1HYS", "ML_Geer", "roadNet-TX",
                           "in-2004", "er-medium"}) {
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix(name));
    const TileMatrix<value_t> t0 = TileMatrix<value_t>::from_csr(a, 16, 0);
    const TileMatrix<value_t> t2 = TileMatrix<value_t>::from_csr(a, 16, 2);
    const PackedTileMatrix<value_t> p =
        PackedTileMatrix<value_t>::from_csr(a);

    const double nnz_per_tile = static_cast<double>(t0.tiled_nnz()) /
                                std::max<index_t>(1, t0.num_tiles());
    const double csr_meta =
        static_cast<double>(t0.intra_row_ptr.size() * sizeof(std::uint16_t) +
                            t0.local_col.size()) /
        static_cast<double>(t0.tiled_nnz());
    const double packed_meta = static_cast<double>(p.packed.size()) /
                               static_cast<double>(p.vals.size());

    SpmspvWorkspace<value_t> ws0;
    SpmspvWorkspace<value_t> ws2;
    for (const double density : {0.001, 0.01, 0.1}) {
      const SparseVec<value_t> x = gen_sparse_vector(a.cols, density, 1);
      const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
      const double t_x0 =
          time_best_ms([&] { (void)tile_spmspv(t0, xt, ws0, &pool); }, iters);
      const double t_x2 =
          time_best_ms([&] { (void)tile_spmspv(t2, xt, ws2, &pool); }, iters);
      const double t_packed = time_best_ms(
          [&] { (void)packed_tile_spmspv(p, xt, &pool); }, iters);

      table.add_row({name, fmt(density, 3), fmt(nnz_per_tile, 1),
                     fmt(csr_meta, 2), fmt(packed_meta, 2), fmt(t_x0, 4),
                     fmt(t_x2, 4), fmt(t_packed, 4), fmt(t_packed / t_x0, 2),
                     fmt(t_packed / t_x2, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: packed wins on matrices whose tiles hold "
               "few nonzeros\n(the per-row pointer never amortizes); "
               "intra-CSR wins on dense tiles\nwhere rows are long "
               "contiguous runs. packed/x2 is the comparison that\ndecides "
               "whether packed should become a per-tile strategy inside "
               "TileMatrix.\n";
  return 0;
}
