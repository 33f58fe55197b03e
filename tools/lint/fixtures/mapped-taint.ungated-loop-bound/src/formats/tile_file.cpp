// Seeded violation: the PR 9 ungated side-value read. The header's edge
// count comes straight from mapped bytes and drives a loop over the side
// array without ever being bounded against the file size.
#include <cstdint>

struct TileFileHeader {
  std::uint64_t rows = 0;
  std::uint64_t side_nnz = 0;  // read from the mapped header, never checked
};

double sum_ext_vals(const TileFileHeader& h, const double* ext_vals) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < h.side_nnz; ++i) {
    acc += ext_vals[i];
  }
  return acc;
}
