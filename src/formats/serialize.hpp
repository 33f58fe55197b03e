// Binary (de)serialization of the CSR format (the "TCSR" stream), plus the
// magic-word probe that tells it apart from the tiled container. Tiled
// matrices are cached in one format only: the zero-copy TTLF container
// (formats/tile_file.hpp), written once by `tilespmspv_cli convert`, so the
// tiling preprocessing (which Fig. 11 shows costing several traversals) is
// paid once.
//
// Format: magic + version header, then length-prefixed raw arrays. The
// files are host-endian (a cache format, not an interchange format;
// Matrix Market remains the interchange path).
#pragma once

#include <istream>
#include <ostream>

#include "formats/csr.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// What a serialized stream claims to contain, judged from its magic.
/// kTileFile is the mmap container (formats/tile_file.hpp), which has its
/// own header/section validation path.
enum class SerializedKind { kUnknown, kCsr, kTileFile };

/// Reads the leading magic word and classifies the stream (consumes the
/// four bytes; reopen or rewind before loading). Used by the validate CLI
/// and the serving daemon to dispatch without trusting a file extension.
SerializedKind probe_serialized_kind(std::istream& in);

/// Serializes a CSR matrix. Throws std::runtime_error on stream failure.
/// The reader sits on the trust boundary: it bounds every array length
/// against the remaining stream size before allocating and re-checks the
/// CSR invariants (formats/validate.hpp) before returning, so a corrupt or
/// adversarial file loads as a clear error, never as an out-of-bounds read
/// in a kernel.
void write_csr(std::ostream& out, const Csr<value_t>& a);
Csr<value_t> read_csr(std::istream& in);

}  // namespace tilespmspv
