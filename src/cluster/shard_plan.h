// Copyright 2026 The ARSP Authors.
//
// ShardPlan — placement policy for the cluster layer: which shards hold
// which named datasets.
//
// Placement is a consistent-hash ring over shard names with virtual nodes:
// a dataset name hashes to a point on the ring and is placed on the next
// `replication` distinct shards clockwise. Adding or removing one shard
// therefore moves only ~1/S of the datasets (the classic consistent-hashing
// property, asserted by shard_plan_test), instead of reshuffling everything
// the way `hash(name) % S` would.
//
// Placement is deliberately NOT subset sharding. Rskyline probabilities
// couple every object to every other object through F-dominance, so a
// shard holding a subset of the objects computes *wrong* probabilities —
// there is no local fix-up. Every holder has the full dataset, and the
// Coordinator routes each query whole to one of them.

#ifndef ARSP_CLUSTER_SHARD_PLAN_H_
#define ARSP_CLUSTER_SHARD_PLAN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace arsp {
namespace cluster {

struct ShardPlanOptions {
  /// Copies of each dataset. Clamped to [1, num_shards]. More replicas mean
  /// more routing targets for concurrent queries on a dataset (each query
  /// still runs on one holder) and more load-time fan-out; `num_shards`
  /// replicates everything everywhere.
  int replication = 0;  ///< 0 = replicate onto every shard
};

/// Immutable placement over a fixed shard set. Rebuild the plan to change
/// membership (the registry remembers where each dataset actually landed).
class ShardPlan {
 public:
  ShardPlan(const std::vector<std::string>& shard_names,
            ShardPlanOptions options);

  int num_shards() const { return num_shards_; }

  /// The shard indices holding `dataset`, in ring order, deduplicated.
  /// Size = min(replication, num_shards); never empty for num_shards > 0.
  std::vector<int> HoldersFor(const std::string& dataset) const;

  /// FNV-1a with a murmur-style fmix64 finalizer. Raw FNV-1a barely mixes
  /// the final byte (last-character variants cluster within ~2^44 of each
  /// other), which is fatal for ring placement; the finalizer fixes it.
  static uint64_t Hash(const std::string& key);

 private:
  /// Virtual nodes per shard on the hash ring; more = smoother spread.
  static constexpr int kVirtualNodes = 64;

  int num_shards_;
  ShardPlanOptions options_;
  /// Ring points sorted by hash: (point, shard index).
  std::vector<std::pair<uint64_t, int>> ring_;
};

}  // namespace cluster
}  // namespace arsp

#endif  // ARSP_CLUSTER_SHARD_PLAN_H_
