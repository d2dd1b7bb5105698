// Copyright 2026 The ARSP Authors.
//
// Focused tests for Algorithm 2: the Theorem-3/4 pruning set, equal-key tie
// batching, lazy aggregated R-trees, and the pruning ablation.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RunSolver;
using testing_util::WrRegion;

TEST(BnbTest, PruningDoesNotChangeResults) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const UncertainDataset dataset = RandomDataset(40, 4, 3, 0.2, seed);
    const PreferenceRegion region = WrRegion(3, 2);
    const ArspResult with = RunSolver("bnb", dataset, region);
    const ArspResult without = RunSolver(
        "bnb", dataset, region, SolverOptions().SetBool("pruning", false));
    EXPECT_LT(MaxAbsDiff(with, without), 1e-10) << "seed=" << seed;
  }
}

TEST(BnbTest, PruningFiresOnDominatedData) {
  // One certain dominator at the origin: almost everything else is zero and
  // must be pruned rather than evaluated.
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.0, 0.0}, 1.0);
  Rng rng(3);
  for (int j = 0; j < 200; ++j) {
    builder.AddSingleton(Point{rng.Uniform(0.2, 1.0), rng.Uniform(0.2, 1.0)},
                         1.0);
  }
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult pruned = RunSolver("bnb", *dataset, region);
  EXPECT_GT(pruned.nodes_pruned, 0);
  EXPECT_NEAR(pruned.instance_probs[0], 1.0, 1e-12);
  EXPECT_EQ(CountNonZero(pruned), 1);
}

TEST(BnbTest, TieBatchingHandlesDuplicatePoints) {
  // Duplicate certain points across objects score identically under every
  // vertex; Eq. (3) requires both to see the other's full mass.
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.4, 0.6}, 1.0);
  builder.AddSingleton(Point{0.4, 0.6}, 1.0);
  builder.AddSingleton(Point{0.9, 0.9}, 0.8);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult expected = RunSolver("enum", *dataset, region);
  const ArspResult bnb = RunSolver("bnb", *dataset, region);
  EXPECT_NEAR(bnb.instance_probs[0], 0.0, 1e-12);
  EXPECT_NEAR(bnb.instance_probs[1], 0.0, 1e-12);
  EXPECT_LT(MaxAbsDiff(expected, bnb), 1e-12);
}

TEST(BnbTest, TieBatchingWithPartialMass) {
  // Duplicates with Σp < 1: survival probability is the probability the
  // other object does not materialize there.
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.5, 0.5}, 0.6);
  builder.AddSingleton(Point{0.5, 0.5}, 0.3);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult bnb = RunSolver("bnb", *dataset, region);
  EXPECT_NEAR(bnb.instance_probs[0], 0.6 * 0.7, 1e-12);
  EXPECT_NEAR(bnb.instance_probs[1], 0.3 * 0.4, 1e-12);
}

TEST(BnbTest, DominanceInsideAnEqualKeyBatch) {
  // Two points tie exactly under the heap vertex, yet one F-dominates the
  // other (it also wins under the second vertex). A traversal that processes
  // tied keys one-by-one against the R-trees misses this dominator; the
  // batch phase must catch it.
  // Dyadic coordinates keep every score exact in binary floating point.
  const PreferenceRegion region =
      PreferenceRegion::FromVertices({Point{0.5, 0.5}, Point{0.25, 0.75}})
          .value();
  const Point a{0.5, 0.5};    // scores (0.5, 0.5)
  const Point b{0.25, 0.75};  // scores (0.5, 0.625): tied on the heap vertex
  ASSERT_EQ(Score(region.vertices()[0], a), Score(region.vertices()[0], b));
  ASSERT_TRUE(FDominates(a, b, region));
  ASSERT_FALSE(FDominates(b, a, region));
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(a, 1.0);
  builder.AddSingleton(b, 1.0);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const ArspResult bnb = RunSolver("bnb", *dataset, region);
  EXPECT_NEAR(bnb.instance_probs[0], 1.0, 1e-12);
  EXPECT_NEAR(bnb.instance_probs[1], 0.0, 1e-12);
}

TEST(BnbTest, AgreesWithLoopOnLargerData) {
  const UncertainDataset dataset = RandomDataset(100, 5, 4, 0.3, 17);
  const PreferenceRegion region = WrRegion(4, 3);
  EXPECT_LT(MaxAbsDiff(RunSolver("loop", dataset, region),
                       RunSolver("bnb", dataset, region)),
            1e-8);
}

TEST(BnbTest, RespectsCustomFanout) {
  const UncertainDataset dataset = RandomDataset(50, 3, 2, 0.0, 23);
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult narrow = RunSolver(
      "bnb", dataset, region, SolverOptions().SetInt("rtree_fanout", 4));
  const ArspResult wide = RunSolver(
      "bnb", dataset, region, SolverOptions().SetInt("rtree_fanout", 64));
  EXPECT_LT(MaxAbsDiff(narrow, wide), 1e-10);
}

}  // namespace
}  // namespace arsp
