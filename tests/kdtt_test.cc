// Copyright 2026 The ARSP Authors.
//
// Focused regression tests for the kd-ASP* traversal: the χ pruning rules,
// the own-object-full corner case the printed Algorithm 1 misses (see
// ARCHITECTURE.md, "Deviations from the paper"), duplicate leaves, and the
// KDTT vs KDTT+ construction modes.

#include <gtest/gtest.h>

#include "src/common/task_arena.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RunSolver;
using testing_util::WrRegion;

TEST(KdttTest, OwnObjectFullCornerCase) {
  // Object 0 has all of its mass on one point p (σ[0] = 1 at that node);
  // the instance at p still has non-zero probability because only its own
  // object fully dominates it. The paper's printed Algorithm 1 (χ = 0 check
  // only) would drop it.
  UncertainDatasetBuilder builder(2);
  builder.AddObject({Point{0.2, 0.2}, Point{0.2, 0.2}}, {0.5, 0.5});
  builder.AddSingleton(Point{0.8, 0.8}, 0.5);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);

  const ArspResult expected = RunSolver("enum", *dataset, region);
  // Duplicates of object 0 do not hurt each other (same object), so each
  // keeps its existence probability; object 1 is dominated in every world
  // because object 0 (total mass 1) always materializes at (0.2, 0.2).
  EXPECT_NEAR(expected.instance_probs[0], 0.5, 1e-12);
  EXPECT_NEAR(expected.instance_probs[1], 0.5, 1e-12);
  EXPECT_NEAR(expected.instance_probs[2], 0.0, 1e-12);
  const ArspResult kdtt = RunSolver("kdtt+", *dataset, region);
  EXPECT_LT(MaxAbsDiff(expected, kdtt), 1e-12);
}

TEST(KdttTest, FullForeignObjectZeroesSubtree) {
  // A certain instance at the origin dominates everything: all other
  // objects' probabilities must be exactly zero and χ pruning must fire.
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.0, 0.0}, 1.0);
  for (int j = 0; j < 20; ++j) {
    builder.AddObject({Point{0.3 + 0.01 * j, 0.4}, Point{0.5, 0.3 + 0.01 * j}},
                      {0.5, 0.5});
  }
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult result = RunSolver("kdtt+", *dataset, region);
  EXPECT_NEAR(result.instance_probs[0], 1.0, 1e-12);
  for (int i = 1; i < dataset->num_instances(); ++i) {
    EXPECT_EQ(result.instance_probs[static_cast<size_t>(i)], 0.0) << i;
  }
  EXPECT_GT(result.nodes_pruned, 0);
}

TEST(KdttTest, PrunedRunVisitsFewerNodesThanPrebuilt) {
  // KDTT+ skips construction of pruned subtrees, so with a dominating
  // certain object it must touch no more nodes than KDTT.
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.0, 0.0}, 1.0);
  Rng rng(5);
  for (int j = 0; j < 100; ++j) {
    builder.AddSingleton(Point{rng.Uniform(0.1, 1.0), rng.Uniform(0.1, 1.0)},
                         1.0);
  }
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult plus = RunSolver("kdtt+", *dataset, region);
  const ArspResult base = RunSolver("kdtt", *dataset, region);
  EXPECT_LT(MaxAbsDiff(plus, base), 1e-12);
  EXPECT_LE(plus.nodes_visited, base.nodes_visited);
}

TEST(KdttTest, AllInstancesIdentical) {
  // Degenerate dataset: every instance of every object at the same point.
  UncertainDatasetBuilder builder(3);
  for (int j = 0; j < 5; ++j) {
    builder.AddObject({Point{0.5, 0.5, 0.5}, Point{0.5, 0.5, 0.5}},
                      {0.4, 0.4});
  }
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(3, 2);
  const ArspResult expected = RunSolver("enum", *dataset, region);
  const ArspResult kdtt = RunSolver("kdtt+", *dataset, region);
  EXPECT_LT(MaxAbsDiff(expected, kdtt), 1e-10);
  // Sanity: each instance survives iff no other object materializes at the
  // point: p * (1 - 0.8)^4.
  EXPECT_NEAR(kdtt.instance_probs[0], 0.4 * std::pow(0.2, 4), 1e-10);
}

TEST(KdttTest, MixedCertainAndUncertainChains) {
  // A chain of points where each dominates the next, with alternating
  // existence probabilities; closed form: Pr(i) = p_i * Π_{j<i} (1 - p_j).
  UncertainDatasetBuilder builder(2);
  const std::vector<double> probs = {0.9, 0.5, 1.0, 0.3, 0.8};
  for (size_t i = 0; i < probs.size(); ++i) {
    builder.AddSingleton(Point{0.1 * (i + 1), 0.1 * (i + 1)}, probs[i]);
  }
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult result = RunSolver("kdtt+", *dataset, region);
  double survive = 1.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_NEAR(result.instance_probs[i], probs[i] * survive, 1e-12) << i;
    survive *= (1.0 - probs[i]);
  }
}

TEST(KdttTest, CountersArePopulated) {
  const UncertainDataset dataset = RandomDataset(30, 4, 3, 0.0, 9);
  const PreferenceRegion region = WrRegion(3, 2);
  const ArspResult result = RunSolver("kdtt+", dataset, region);
  EXPECT_GT(result.nodes_visited, 0);
  EXPECT_GT(result.dominance_tests, 0);
}

TEST(KdttTest, WalkShorterThanTheFrontierReportsNoParallelWork) {
  // Four rows split at most twice, while 2 workers put the frontier at
  // depth 5: the walk spawns no task, so it starts no helper and reports
  // none, even though the budget granted one.
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.1, 0.9}, 0.9);
  builder.AddSingleton(Point{0.4, 0.5}, 0.8);
  builder.AddSingleton(Point{0.7, 0.3}, 0.7);
  builder.AddSingleton(Point{0.9, 0.1}, 0.6);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  SolverOptions options;
  options.SetInt("parallelism", 2);
  internal::SetCoreBudgetTotalForTesting(4);  // a helper is granted
  const ArspResult parallel = RunSolver("kdtt+", *dataset, region, options);
  internal::SetCoreBudgetTotalForTesting(0);
  EXPECT_EQ(parallel.tasks_spawned, 0);
  EXPECT_EQ(parallel.tasks_stolen, 0);
  EXPECT_EQ(parallel.parallel_workers, 0);
  const ArspResult serial = RunSolver("kdtt+", *dataset, region);
  EXPECT_EQ(parallel.instance_probs, serial.instance_probs);
}

TEST(KdttTest, LargeRandomAgainstLoop) {
  const UncertainDataset dataset = RandomDataset(120, 5, 4, 0.25, 31);
  const PreferenceRegion region = WrRegion(4, 3);
  EXPECT_LT(MaxAbsDiff(RunSolver("loop", dataset, region),
                       RunSolver("kdtt+", dataset, region)),
            1e-8);
}

}  // namespace
}  // namespace arsp
