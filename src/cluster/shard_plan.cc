// Copyright 2026 The ARSP Authors.

#include "src/cluster/shard_plan.h"

#include <algorithm>

namespace arsp {
namespace cluster {

uint64_t ShardPlan::Hash(const std::string& key) {
  uint64_t h = 14695981039346656037ull;
  for (char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  // Raw FNV-1a avalanches poorly at the tail: keys differing only in the
  // last character end up within ~15*prime (≈2^44) of each other, which
  // clusters ring vnodes and starves shards of ring arc. The fmix64
  // finalizer restores full 64-bit diffusion.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

ShardPlan::ShardPlan(const std::vector<std::string>& shard_names,
                     ShardPlanOptions options)
    : num_shards_(static_cast<int>(shard_names.size())), options_(options) {
  ring_.reserve(shard_names.size() * kVirtualNodes);
  for (int s = 0; s < num_shards_; ++s) {
    for (int v = 0; v < kVirtualNodes; ++v) {
      ring_.emplace_back(Hash(shard_names[static_cast<size_t>(s)] + "#" +
                              std::to_string(v)),
                         s);
    }
  }
  // Ties (hash collisions between ring points) break on shard index so the
  // plan is deterministic regardless of construction order.
  std::sort(ring_.begin(), ring_.end());
}

std::vector<int> ShardPlan::HoldersFor(const std::string& dataset) const {
  std::vector<int> holders;
  if (ring_.empty()) return holders;
  const int want = options_.replication <= 0
                       ? num_shards()
                       : std::min(options_.replication, num_shards());
  holders.reserve(static_cast<size_t>(want));
  const uint64_t point = Hash(dataset);
  // First ring entry clockwise of the dataset's point, wrapping.
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(point, 0));
  for (size_t walked = 0;
       walked < ring_.size() && static_cast<int>(holders.size()) < want;
       ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const int shard = it->second;
    if (std::find(holders.begin(), holders.end(), shard) == holders.end()) {
      holders.push_back(shard);
    }
  }
  return holders;
}

}  // namespace cluster
}  // namespace arsp
