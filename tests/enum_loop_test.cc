// Copyright 2026 The ARSP Authors.
//
// Cross-validation of the two baselines: ENUM evaluates Eq. (2) literally
// over possible worlds; LOOP evaluates the factored Eq. (3). Their agreement
// on random inputs validates the factorization every fast algorithm relies
// on.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::Example1Dataset;
using testing_util::Example1Wr;
using testing_util::RandomDataset;
using testing_util::RunSolver;
using testing_util::WrRegion;

TEST(EnumLoopTest, SingleObjectIsItsOwnRskyline) {
  UncertainDatasetBuilder builder(2);
  builder.AddObject({Point{1.0, 2.0}, Point{2.0, 1.0}}, {0.4, 0.6});
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  for (const ArspResult& result : {RunSolver("enum", *dataset, region),
                                   RunSolver("loop", *dataset, region)}) {
    // No other object exists, so every instance keeps its own probability.
    EXPECT_NEAR(result.instance_probs[0], 0.4, 1e-12);
    EXPECT_NEAR(result.instance_probs[1], 0.6, 1e-12);
  }
}

TEST(EnumLoopTest, CertainDominatorZeroesOut) {
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.0, 0.0}, 1.0);  // dominates everything
  builder.AddSingleton(Point{1.0, 1.0}, 1.0);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult result = RunSolver("enum", *dataset, region);
  EXPECT_NEAR(result.instance_probs[0], 1.0, 1e-12);
  EXPECT_NEAR(result.instance_probs[1], 0.0, 1e-12);
  EXPECT_NEAR(MaxAbsDiff(result, RunSolver("loop", *dataset, region)), 0.0,
              1e-12);
}

TEST(EnumLoopTest, UncertainDominatorScalesSurvival) {
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.0, 0.0}, 0.3);
  builder.AddSingleton(Point{1.0, 1.0}, 1.0);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult result = RunSolver("enum", *dataset, region);
  EXPECT_NEAR(result.instance_probs[0], 0.3, 1e-12);
  EXPECT_NEAR(result.instance_probs[1], 0.7, 1e-12);  // survives absence
}

TEST(EnumLoopTest, Example1StyleDataset) {
  const UncertainDataset dataset = Example1Dataset();
  const PreferenceRegion region =
      PreferenceRegion::FromWeightRatios(Example1Wr());
  const ArspResult via_enum = RunSolver("enum", dataset, region);
  const ArspResult via_loop = RunSolver("loop", dataset, region);
  EXPECT_NEAR(MaxAbsDiff(via_enum, via_loop), 0.0, 1e-12);

  // Instances of T3 near the origin dominate t2,3 = (9,12) (Example 3), so
  // t2,3 only survives when T3 takes no dominating instance — impossible
  // since all three T3 instances dominate it. Verify.
  const int t23 = 4;  // global index: T1 has 2 instances, T2's third is #4
  EXPECT_EQ(dataset.instance(t23).point, (Point{9.0, 12.0}));
  EXPECT_NEAR(via_enum.instance_probs[t23], 0.0, 1e-12);
}

TEST(EnumLoopTest, EqualCoordinateInstancesEliminateEachOther) {
  // Two distinct objects with identical certain instances F-dominate each
  // other, so both rskyline probabilities are zero (paper definition).
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{1.0, 1.0}, 1.0);
  builder.AddSingleton(Point{1.0, 1.0}, 1.0);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  for (const ArspResult& result : {RunSolver("enum", *dataset, region),
                                   RunSolver("loop", *dataset, region)}) {
    EXPECT_NEAR(result.instance_probs[0], 0.0, 1e-12);
    EXPECT_NEAR(result.instance_probs[1], 0.0, 1e-12);
  }
}

TEST(EnumLoopTest, RandomAgreementSweep) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const int dim = 2 + static_cast<int>(seed % 3);
    const UncertainDataset dataset =
        RandomDataset(/*num_objects=*/6, /*max_instances=*/3, dim,
                      /*phi=*/(seed % 2) * 0.5, seed);
    const PreferenceRegion region = WrRegion(dim, dim - 1);
    const ArspResult via_enum = RunSolver("enum", dataset, region);
    const ArspResult via_loop = RunSolver("loop", dataset, region);
    EXPECT_LT(MaxAbsDiff(via_enum, via_loop), 1e-10) << "seed=" << seed;
  }
}

TEST(EnumLoopTest, RandomAgreementWithGridTies) {
  // Grid-snapped coordinates force exact ties and duplicates across objects.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const UncertainDataset dataset =
        RandomDataset(6, 3, 2, 0.0, seed, /*grid=*/true);
    const PreferenceRegion region = WrRegion(2, 1);
    EXPECT_LT(MaxAbsDiff(RunSolver("enum", dataset, region),
                         RunSolver("loop", dataset, region)),
              1e-10)
        << "seed=" << seed;
  }
}

TEST(EnumLoopTest, InstanceProbabilitiesNeverExceedExistence) {
  const UncertainDataset dataset = RandomDataset(8, 3, 3, 0.3, 99);
  const PreferenceRegion region = WrRegion(3, 2);
  const ArspResult result = RunSolver("loop", dataset, region);
  for (int i = 0; i < dataset.num_instances(); ++i) {
    EXPECT_GE(result.instance_probs[static_cast<size_t>(i)], 0.0);
    EXPECT_LE(result.instance_probs[static_cast<size_t>(i)],
              dataset.instance(i).prob + 1e-12);
  }
}

}  // namespace
}  // namespace arsp
