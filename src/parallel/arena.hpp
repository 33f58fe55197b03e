// Storage placement layer (NUMA first-touch, zero-copy mapped files):
// every heavy array of the tiled structures lives behind ArrayBuf, an
// owned-or-view buffer, so the same TileMatrix / BitTileGraph type can hold
//   - plain heap vectors (the default, exactly the old behaviour),
//   - slices of a per-NUMA-node first-touch Arena (pages placed by pinned
//     pool workers copying their own shard's slice), or
//   - read-only views straight into an mmapped on-disk file
//     (formats/tile_file.hpp) with zero copies at load.
//
// The placement policy is explicit (Placement enum + Arena), mirroring the
// paper's discipline of matching storage layout to the memory hierarchy one
// level up: tile rows already group nonzeros for cache lines; arenas and
// shard-aware dispatch group tile-row ranges for NUMA nodes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "parallel/parallel_for.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// Owned-or-view array with a std::vector-compatible read surface. Owned
/// mode wraps a std::vector (all mutators work); view mode aliases caller
/// memory (an Arena block or an mmapped file section) and is read-only:
/// element mutators assert, while whole-replacement operations (assign,
/// operator=, clear) rebind the buffer to owned storage. The data pointer
/// and size are mirrored so the hot read path (operator[], data()) never
/// branches on the mode.
template <typename T>
class ArrayBuf {
 public:
  using value_type = T;

  ArrayBuf() = default;
  ArrayBuf(const ArrayBuf& o) { copy_from(o); }
  ArrayBuf(ArrayBuf&& o) noexcept { move_from(std::move(o)); }
  ArrayBuf& operator=(const ArrayBuf& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  ArrayBuf& operator=(ArrayBuf&& o) noexcept {
    if (this != &o) move_from(std::move(o));
    return *this;
  }
  // Implicit adoption of a vector keeps existing builder code (assigning
  // read_vec results, std::move of locals) working unchanged.
  ArrayBuf(std::vector<T>&& v) : vec_(std::move(v)) { sync(); }
  ArrayBuf& operator=(std::vector<T>&& v) {
    view_ = false;
    vec_ = std::move(v);
    sync();
    return *this;
  }

  /// A read-only view over caller-owned memory. The caller must keep the
  /// memory alive for the buffer's lifetime (the tiled structures carry a
  /// shared_ptr `storage` holder for exactly this).
  static ArrayBuf view(const T* p, std::size_t n) {
    ArrayBuf b;
    b.bind_view(p, n);
    return b;
  }
  void bind_view(const T* p, std::size_t n) {
    vec_ = std::vector<T>();
    view_ = true;
    data_ = p;
    size_ = n;
  }
  bool is_view() const { return view_; }

  /// Copies a view's contents into owned storage (no-op when already
  /// owned). Used by mutation paths that must work on mapped structures.
  void make_owned() {
    if (!view_) return;
    vec_.assign(data_, data_ + size_);
    view_ = false;
    sync();
  }

  // Read surface (valid in both modes).
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  // Mutation surface (owned mode only; element writes on a view are a
  // contract violation, not a copy-on-write).
  T* data() {
    assert(!view_);
    return vec_.data();
  }
  T& operator[](std::size_t i) {
    assert(!view_);
    return vec_[i];
  }
  void assign(std::size_t n, const T& v) {
    view_ = false;
    vec_.assign(n, v);
    sync();
  }
  void resize(std::size_t n) {
    assert(!view_);
    vec_.resize(n);
    sync();
  }
  void reserve(std::size_t n) {
    assert(!view_);
    vec_.reserve(n);
    sync();
  }
  T& front() {
    assert(!view_);
    return vec_.front();
  }
  T& back() {
    assert(!view_);
    return vec_.back();
  }
  void push_back(const T& v) {
    assert(!view_);
    vec_.push_back(v);
    sync();
  }
  template <typename It>
  void append(It first, It last) {
    assert(!view_);
    vec_.insert(vec_.end(), first, last);
    sync();
  }
  void clear() {
    view_ = false;
    vec_.clear();
    sync();
  }

 private:
  void sync() {
    data_ = vec_.data();
    size_ = vec_.size();
  }
  void copy_from(const ArrayBuf& o) {
    view_ = o.view_;
    if (o.view_) {
      vec_ = std::vector<T>();
      data_ = o.data_;
      size_ = o.size_;
    } else {
      vec_ = o.vec_;
      sync();
    }
  }
  void move_from(ArrayBuf&& o) noexcept {
    view_ = o.view_;
    if (o.view_) {
      vec_ = std::vector<T>();
      data_ = o.data_;
      size_ = o.size_;
    } else {
      vec_ = std::move(o.vec_);
      sync();
    }
    o.vec_ = std::vector<T>();
    o.view_ = false;
    o.sync();
  }

  std::vector<T> vec_;    // backing storage in owned mode
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  bool view_ = false;
};

// Element-wise equality against other buffers and plain vectors, so the
// differential tests can compare owned and mapped structures directly.
template <typename T>
bool operator==(const ArrayBuf<T>& a, const ArrayBuf<T>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
template <typename T>
bool operator==(const ArrayBuf<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
template <typename T>
bool operator==(const std::vector<T>& a, const ArrayBuf<T>& b) {
  return b == a;
}

/// Where a structure's heavy arrays live.
enum class Placement {
  kHeap,        // plain heap vectors (default; exactly the old behaviour)
  kFirstTouch,  // anonymous-mmap arena, pages placed by first touch from
                // shard-pinned pool workers
  kMapped,      // read-only views into an mmapped on-disk file
};

inline const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kHeap: return "heap";
    case Placement::kFirstTouch: return "first-touch";
    case Placement::kMapped: return "mapped";
  }
  return "?";
}

/// One NUMA node: its id and the CPUs it owns.
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;
};

/// Host NUMA topology, read from /sys/devices/system/node. Falls back to a
/// single node holding every hardware thread when sysfs is absent (non-
/// Linux, containers with masked sysfs), so callers never special-case.
struct NumaTopology {
  std::vector<NumaNode> nodes;

  int num_nodes() const { return static_cast<int>(nodes.size()); }

  /// Parses "0-3,8-11" style cpulist strings.
  static std::vector<int> parse_cpulist(const std::string& s) {
    std::vector<int> cpus;
    std::stringstream ss(s);
    std::string part;
    while (std::getline(ss, part, ',')) {
      if (part.empty()) continue;
      const std::size_t dash = part.find('-');
      try {
        if (dash == std::string::npos) {
          cpus.push_back(std::stoi(part));
        } else {
          const int lo = std::stoi(part.substr(0, dash));
          const int hi = std::stoi(part.substr(dash + 1));
          for (int c = lo; c <= hi && c - lo < 4096; ++c) cpus.push_back(c);
        }
      } catch (const std::exception&) {
        return {};  // malformed sysfs content: caller falls back
      }
    }
    return cpus;
  }

  static NumaTopology detect() {
    NumaTopology t;
#if defined(__linux__)
    for (int id = 0; id < 64; ++id) {
      std::ifstream in("/sys/devices/system/node/node" + std::to_string(id) +
                       "/cpulist");
      if (!in) break;
      std::string line;
      std::getline(in, line);
      std::vector<int> cpus = parse_cpulist(line);
      if (!cpus.empty()) t.nodes.push_back({id, std::move(cpus)});
    }
#endif
    if (t.nodes.empty()) {
      NumaNode all;
      const unsigned n = std::max(1u, std::thread::hardware_concurrency());
      for (unsigned c = 0; c < n; ++c) all.cpus.push_back(static_cast<int>(c));
      t.nodes.push_back(std::move(all));
    }
    return t;
  }
};

/// Block-granular aligned allocator backing ArrayBuf views. kHeap blocks
/// come from aligned operator new; kFirstTouch blocks are anonymous mmap
/// regions whose physical pages are *not* populated at allocation — they
/// land on the NUMA node of whichever thread first writes them, which is
/// what the shard-sliced parallel copy in the place() helpers exploits.
/// Allocation-only (no free of individual blocks): an Arena backs one
/// structure and dies with it, held alive by the structure's `storage`
/// shared_ptr.
class Arena {
 public:
  static constexpr std::size_t kAlign = 64;  // cache line / section alignment

  explicit Arena(Placement p = Placement::kHeap) : placement_(p) {
    assert(p != Placement::kMapped);  // mapped storage comes from MappedFile
  }
  ~Arena() {
    for (Block& b : blocks_) {
#if defined(__linux__)
      if (b.mapped) {
        ::munmap(b.base, b.size);
        continue;
      }
#endif
      ::operator delete(b.base, std::align_val_t{kAlign});
    }
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  Placement placement() const { return placement_; }
  std::size_t bytes_allocated() const { return bytes_; }

  /// 64-byte-aligned block of `bytes` (never null; zero-size requests get
  /// a minimal block so views stay distinct).
  void* allocate(std::size_t bytes) {
    if (bytes == 0) bytes = kAlign;
    void* base = nullptr;
    bool mapped = false;
#if defined(__linux__)
    if (placement_ == Placement::kFirstTouch) {
      const std::size_t page =
          static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
      const std::size_t len = round_up(bytes, page);
      void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p != MAP_FAILED) {
        base = p;
        bytes = len;
        mapped = true;
      }
    }
#endif
    if (base == nullptr) {
      base = ::operator new(bytes, std::align_val_t{kAlign});
    }
    blocks_.push_back({base, bytes, mapped});
    bytes_ += bytes;
    return base;
  }

 private:
  struct Block {
    void* base;
    std::size_t size;
    bool mapped;
  };
  Placement placement_;
  std::vector<Block> blocks_;
  std::size_t bytes_ = 0;
};

/// Copies one ArrayBuf into `arena` and rebinds it as a view over the new
/// block. The copy runs in parallel over 64K-element blocks; when the pool
/// is shard-configured, block slice s is drained (and hence first-touched)
/// by shard s's workers — pinned to node s — so each slice's pages fault
/// onto the NUMA node whose shard will traverse them. Stealing only kicks
/// in at the tail, keeping the placement approximation tight.
template <typename U>
void arena_place_buf(Arena& arena, ArrayBuf<U>& buf, ThreadPool* pool) {
  if (buf.empty()) return;
  const std::size_t n = buf.size();
  U* dst = static_cast<U*>(arena.allocate(n * sizeof(U)));
  const U* src = buf.data();
  const index_t blocks =
      static_cast<index_t>(ceil_div<std::size_t>(n, std::size_t{1} << 16));
  const auto copy_blocks = [&](index_t begin, index_t end) {
    const std::size_t lo = static_cast<std::size_t>(begin) << 16;
    const std::size_t hi = std::min(n, static_cast<std::size_t>(end) << 16);
    std::copy(src + lo, src + hi, dst + lo);
  };
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  if (p.num_shards() > 1) {
    const int ns = p.num_shards();
    std::vector<index_t> bounds(static_cast<std::size_t>(ns) + 1, 0);
    for (int s = 0; s <= ns; ++s) {
      bounds[static_cast<std::size_t>(s)] =
          static_cast<index_t>(static_cast<std::int64_t>(blocks) * s / ns);
    }
    p.parallel_shard_ranges(bounds, 1, copy_blocks);
  } else {
    parallel_for_ranges(blocks, copy_blocks, pool, /*chunk=*/1);
  }
  buf.bind_view(dst, n);
}

/// Contiguous partition of a chunked index range into S shards of roughly
/// equal payload bytes. `chunk_bounds` partitions the *chunk id* range the
/// kernels dispatch over (length nshards + 1, covering [0, nchunks]);
/// `bytes` records each shard's payload for the balance counters and the
/// max/mean imbalance acceptance check.
struct ShardPlan {
  std::vector<index_t> chunk_bounds;
  std::vector<std::uint64_t> bytes;

  int nshards() const { return static_cast<int>(bytes.size()); }

  /// max(shard bytes) / mean(shard bytes); 1.0 is perfect balance.
  double imbalance() const {
    if (bytes.empty()) return 1.0;
    std::uint64_t max = 0, total = 0;
    for (std::uint64_t b : bytes) {
      total += b;
      if (b > max) max = b;
    }
    if (total == 0) return 1.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(bytes.size());
    return static_cast<double>(max) / mean;
  }
};

/// Builds a ShardPlan over `nchunks` scheduling chunks. `chunk_bytes(c)`
/// returns the payload bytes of chunk c. Boundaries are the prefix points
/// where the cumulative payload crosses each 1/S fraction of the total, so
/// shards stay contiguous (a shard owns a tile-row range, which is what
/// first-touch placement and the per-shard claim cursors need).
template <typename ByteFn>
ShardPlan make_shard_plan(index_t nchunks, int nshards, ByteFn&& chunk_bytes) {
  ShardPlan plan;
  if (nshards < 1) nshards = 1;
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(nchunks) + 1, 0);
  for (index_t c = 0; c < nchunks; ++c) {
    prefix[static_cast<std::size_t>(c) + 1] =
        prefix[static_cast<std::size_t>(c)] +
        static_cast<std::uint64_t>(chunk_bytes(c));
  }
  const std::uint64_t total = prefix[static_cast<std::size_t>(nchunks)];
  plan.chunk_bounds.assign(static_cast<std::size_t>(nshards) + 1, 0);
  index_t cursor = 0;
  for (int s = 1; s < nshards; ++s) {
    const std::uint64_t target =
        total / static_cast<std::uint64_t>(nshards) *
        static_cast<std::uint64_t>(s);
    while (cursor < nchunks &&
           prefix[static_cast<std::size_t>(cursor) + 1] <= target) {
      ++cursor;
    }
    plan.chunk_bounds[static_cast<std::size_t>(s)] = cursor;
  }
  plan.chunk_bounds[static_cast<std::size_t>(nshards)] = nchunks;
  plan.bytes.assign(static_cast<std::size_t>(nshards), 0);
  for (int s = 0; s < nshards; ++s) {
    plan.bytes[static_cast<std::size_t>(s)] =
        prefix[static_cast<std::size_t>(
            plan.chunk_bounds[static_cast<std::size_t>(s) + 1])] -
        prefix[static_cast<std::size_t>(
            plan.chunk_bounds[static_cast<std::size_t>(s)])];
  }
  return plan;
}

}  // namespace tilespmspv
