// Matrix residency for the serving daemon: converted
// TileMatrix instances stay resident in an LRU cache keyed by a content
// hash of the matrix, so repeated queries against the same matrix never
// pay conversion twice and identical uploads under different names share
// one entry.
//
// Reload discipline (epoch-style snapshots): each cache entry holds a
// `std::shared_ptr<const MatrixSnapshot>`; a reload builds the new
// snapshot off to the side, and `put` stamps its epoch and swaps the
// entry's pointer under the store mutex — the one lock, held by every read
// and write of an entry, and never across a rebuild or a copy. Queries
// copy the pointer at admission, so in-flight work finishes on the
// snapshot it started with — the shared_ptr refcount keeps an evicted or
// replaced matrix alive until its last query returns.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/spmspv.hpp"
#include "formats/csr.hpp"
#include "tile/bit_tile_graph.hpp"
#include "tile/tile_matrix.hpp"
#include "util/types.hpp"

namespace tilespmspv::serve {

/// Immutable converted form of one ingested matrix. Built once (outside
/// any store lock), then only ever read.
struct MatrixSnapshot {
  std::string key;     // content hash, 16 lowercase hex chars
  std::string alias;   // optional human name ("" = none)
  std::string source;  // provenance: "suite:NAME" or "file:PATH"
  std::uint64_t epoch = 0;  // bumped on every swap of the same key
  index_t rows = 0;
  index_t cols = 0;
  offset_t nnz = 0;
  std::size_t bytes = 0;  // approximate resident footprint
  TileMatrix<value_t> tiled;  // A, the SpMSpV/SpMSpM operand
  // BFS operand: the pattern of Aᵀ as a bitmask tile graph, so row u of A
  // lists u's out-edges (bfs/tile_ms_bfs.hpp). Empty (n == 0) when the
  // snapshot serves no BFS: non-square, or a mapped file without Aᵀ.
  BitTileGraph<32> graph;
  // True when `tiled` is a zero-copy view into an mmapped v2 tile file
  // (the TileMatrix `storage` member keeps the mapping alive for as long
  // as any query holds the snapshot).
  bool mapped = false;
};

using SnapshotPtr = std::shared_ptr<const MatrixSnapshot>;

/// Validates `a` at the trust boundary (formats/validate.hpp) and builds
/// the resident snapshot: tiled form, plus the bitmask BFS graph when the
/// matrix is square. `key` must be the content key of the bytes `a` was
/// parsed from. Throws std::invalid_argument on validation failure.
std::shared_ptr<MatrixSnapshot> build_snapshot(const Csr<value_t>& a,
                                               std::string key,
                                               std::string alias,
                                               std::string source,
                                               const SpmspvConfig& cfg);

/// Loads + validates a serialized matrix file, classified by magic.
///
///  - v2 tile files (TTLF, formats/tile_file.hpp): mmapped zero-copy; the
///    content key is the payload hash already stored in the 128-byte
///    header, so admission hashes nothing (the fast path the offline
///    `tilespmspv_cli convert` step buys). A file written with Aᵀ
///    (`--transpose`) also gets the BFS graph, built at admission from the
///    mapped Aᵀ pattern; without it the snapshot rejects BFS.
///  - TCSR / MatrixMarket: parsed and tiled; the content key is a chunked
///    stream-hash of the raw file bytes — the file is never materialized
///    twice in memory. Bytes hashed are charged to the `hash_bytes`
///    counter on both paths.
///
/// Any other file goes to the Matrix Market parser, which rejects what it
/// cannot parse. Throws on I/O or validation failure.
std::shared_ptr<MatrixSnapshot> load_snapshot_file(const std::string& path,
                                                   std::string alias,
                                                   const SpmspvConfig& cfg);

/// Builds a snapshot from a generator-suite matrix (gen/suite.hpp); the
/// content key is a chained hash over the dims and the CSR arrays, so the
/// same suite matrix loaded twice shares one entry.
std::shared_ptr<MatrixSnapshot> load_snapshot_suite(const std::string& name,
                                                    std::string alias,
                                                    const SpmspvConfig& cfg);

/// LRU cache of snapshots with byte-budget eviction and epoch-swapping
/// reload. Thread-safe; see the file comment for the swap discipline.
class MatrixStore {
 public:
  explicit MatrixStore(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  MatrixStore(const MatrixStore&) = delete;
  MatrixStore& operator=(const MatrixStore&) = delete;

  /// Looks up by content key or alias; bumps LRU recency. Returns nullptr
  /// when absent.
  SnapshotPtr get(const std::string& key_or_alias);

  /// Inserts `snap`, or — when its key is already resident — swaps it in
  /// for the existing entry's snapshot and sets `snap->epoch` to the old
  /// epoch + 1. Precondition: no other thread holds `snap` yet (the store
  /// stamps the epoch in place, then publishes this same pointer). Evicts
  /// least-recently-used entries until the byte budget holds (the incoming
  /// entry itself is never evicted). Returns the content key; evicted keys
  /// are appended to `evicted` when non-null.
  std::string put(std::shared_ptr<MatrixSnapshot> snap,
                  std::vector<std::string>* evicted);

  /// Drops the entry (by key or alias). In-flight queries holding the
  /// snapshot finish normally. Returns false when absent.
  bool erase(const std::string& key_or_alias);

  struct Info {
    std::string key;
    std::string alias;
    std::string source;
    index_t rows = 0;
    index_t cols = 0;
    offset_t nnz = 0;
    std::size_t bytes = 0;
    std::uint64_t epoch = 0;
  };
  std::vector<Info> list() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t swaps = 0;
    std::size_t resident_bytes = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    SnapshotPtr snap;  // swapped by put(); copied by readers
    std::uint64_t tick = 0;  // LRU recency
  };

  using Map = std::vector<std::pair<std::string, Entry>>;

  Entry* find_locked(const std::string& key_or_alias);
  void evict_locked(const std::string& keep_key,
                    std::vector<std::string>* evicted);

  mutable std::mutex mu_;
  Map entries_;  // small N: linear scan beats a map for the daemon's scale
  std::size_t capacity_bytes_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, swaps_ = 0;
};

}  // namespace tilespmspv::serve
