// Per-shard placement/balance statistics for NUMA-sharded pools. The
// Counter enum in obs/counters.hpp aggregates process-wide scalars; shard
// stats are a small fixed family of per-shard accumulators that prove
// balanced NUMA placement: bytes placed per shard (set when a ShardPlan is
// built), tiles visited per shard (added by the sharded kernel dispatch
// loops) and wall milliseconds per shard (added by the pool's sharded
// drain).
//
// All accumulators are process-global like the counters: the sharded
// paths are opt-in (ThreadPool::configure_shards), and the consumers —
// the out-of-core smoke job, bench_graph500 --metrics and the CLI metrics
// export — run one sharded operator at a time. snapshot() + reset() give
// harnesses per-phase readings. See docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>

namespace tilespmspv::obs {

/// Upper bound on shard count, matching ThreadPool::kMaxShards.
inline constexpr int kShardStatsMax = 8;

struct ShardSnapshot {
  int shards = 0;  // highest shard index touched + 1
  std::uint64_t bytes[kShardStatsMax] = {};
  std::uint64_t tiles[kShardStatsMax] = {};
  double ms[kShardStatsMax] = {};

  /// max/mean over the populated prefix of `vals`; 1.0 when empty or flat.
  static double imbalance_of(const std::uint64_t* vals, int n);
  double bytes_imbalance() const { return imbalance_of(bytes, shards); }
};

/// Records the plan's per-shard payload bytes (overwrites: one planned
/// operator at a time).
void shard_set_bytes(int shard, std::uint64_t bytes);
/// Accumulates tiles visited on behalf of `shard`'s data.
void shard_add_tiles(int shard, std::uint64_t tiles);
/// Accumulates wall time spent draining `shard`'s range.
void shard_add_ms(int shard, double ms);

ShardSnapshot shard_snapshot();
void shard_reset();

}  // namespace tilespmspv::obs
