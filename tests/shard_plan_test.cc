// Copyright 2026 The ARSP Authors.
//
// ShardPlan placement: deterministic consistent-hash placement with the
// replication count honored, and minimal dataset movement when the shard
// set grows (the property that justifies a ring over hash-mod-S).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/shard_plan.h"

namespace arsp {
namespace cluster {
namespace {

std::vector<std::string> ShardNames(int n) {
  std::vector<std::string> names;
  for (int s = 0; s < n; ++s) names.push_back("shard-" + std::to_string(s));
  return names;
}

TEST(ShardPlan, PlacementIsDeterministicAndHonorsReplication) {
  ShardPlanOptions options;
  options.replication = 2;
  const ShardPlan plan(ShardNames(5), options);
  const ShardPlan same(ShardNames(5), options);
  for (int d = 0; d < 50; ++d) {
    const std::string dataset = "data-" + std::to_string(d);
    const std::vector<int> holders = plan.HoldersFor(dataset);
    ASSERT_EQ(holders.size(), 2u) << dataset;
    // Distinct shards, in range.
    EXPECT_NE(holders[0], holders[1]);
    for (int h : holders) {
      EXPECT_GE(h, 0);
      EXPECT_LT(h, 5);
    }
    // Same plan inputs, same placement — the registry can be rebuilt.
    EXPECT_EQ(holders, same.HoldersFor(dataset)) << dataset;
  }
}

TEST(ShardPlan, ZeroReplicationMeansEveryShardHolds) {
  const ShardPlan plan(ShardNames(4), ShardPlanOptions{});  // replication 0
  const std::vector<int> holders = plan.HoldersFor("anything");
  EXPECT_EQ(std::set<int>(holders.begin(), holders.end()),
            (std::set<int>{0, 1, 2, 3}));
  // Replication above the shard count clamps.
  ShardPlanOptions over;
  over.replication = 99;
  EXPECT_EQ(ShardPlan(ShardNames(3), over).HoldersFor("x").size(), 3u);
}

TEST(ShardPlan, AddingAShardMovesFewDatasets) {
  // The consistent-hashing property: growing 8 → 9 shards should re-place
  // roughly 1/9 of the datasets, not reshuffle everything. Allow generous
  // slack — the point is "a small fraction", not the exact expectation.
  ShardPlanOptions options;
  options.replication = 1;
  const ShardPlan before(ShardNames(8), options);
  std::vector<std::string> grown = ShardNames(8);
  grown.push_back("shard-8");
  const ShardPlan after(grown, options);

  constexpr int kDatasets = 1000;
  int moved = 0;
  for (int d = 0; d < kDatasets; ++d) {
    const std::string dataset = "dataset-" + std::to_string(d);
    if (before.HoldersFor(dataset) != after.HoldersFor(dataset)) ++moved;
  }
  // Expectation is kDatasets/9 ≈ 111; hash-mod-S would move ~8/9 ≈ 889.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kDatasets / 3);
}

TEST(ShardPlan, SpreadIsRoughlyUniform) {
  ShardPlanOptions options;
  options.replication = 1;
  const ShardPlan plan(ShardNames(4), options);
  std::vector<int> load(4, 0);
  constexpr int kDatasets = 2000;
  for (int d = 0; d < kDatasets; ++d) {
    ++load[static_cast<size_t>(
        plan.HoldersFor("ds-" + std::to_string(d))[0])];
  }
  for (int s = 0; s < 4; ++s) {
    // Each shard within a factor ~2 of the fair share (500).
    EXPECT_GT(load[static_cast<size_t>(s)], kDatasets / 10) << "shard " << s;
    EXPECT_LT(load[static_cast<size_t>(s)], kDatasets / 2) << "shard " << s;
  }
}

TEST(ShardPlan, HashIsStableAndAvalanchesTheTail) {
  // Pinned values (FNV-1a + fmix64 finalizer): the ring layout — and
  // therefore placement — must never drift silently across refactors; a
  // coordinator restart would strand datasets on the wrong shards.
  EXPECT_EQ(ShardPlan::Hash(""), 17280346270528514342ull);
  EXPECT_EQ(ShardPlan::Hash("a"), 9413272369427828315ull);
  // The tail-avalanche property the finalizer exists for: last-character
  // variants must land far apart (raw FNV-1a keeps them within ~2^44).
  const uint64_t a = ShardPlan::Hash("nba");
  const uint64_t b = ShardPlan::Hash("nbb");
  const uint64_t gap = a > b ? a - b : b - a;
  EXPECT_GT(gap, 1ull << 48);
}

}  // namespace
}  // namespace cluster
}  // namespace arsp
