// Copyright 2026 The ARSP Authors.
//
// Tests for the half-space reporting reduction (DUAL): the Eq. (6)
// hyperplanes, region partitioning without double counting, and agreement
// with the Theorem-2 reference on random weight-ratio workloads.

#include <gtest/gtest.h>

#include "src/core/dual_algorithm.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::Example1Dataset;
using testing_util::Example1Wr;
using testing_util::RandomDataset;
using testing_util::RandomWr;
using testing_util::RunSolver;

TEST(DualTest, Example3Hyperplanes) {
  // Example 3: t2,3 = (9,12), R = [0.5, 2]. Region 0 (x < 9) hyperplane is
  // y = -0.5x + 16.5; region 1 (x >= 9) is y = -2x + 30.
  const WeightRatioConstraints wr = Example1Wr();
  const Point t{9.0, 12.0};
  const Hyperplane h0 = MakeRegionHyperplane(t, 0, wr);
  EXPECT_NEAR(h0.HeightAt(Point{0.0, 0.0}), 16.5, 1e-12);
  EXPECT_NEAR(h0.HeightAt(Point{9.0, 0.0}), 12.0, 1e-12);
  EXPECT_NEAR(h0.coef()[0], -0.5, 1e-12);
  const Hyperplane h1 = MakeRegionHyperplane(t, 1, wr);
  EXPECT_NEAR(h1.HeightAt(Point{0.0, 0.0}), 30.0, 1e-12);
  EXPECT_NEAR(h1.coef()[0], -2.0, 1e-12);
  // t3,1 = (6,5) and t3,2 = (7,6) lie below h0; t3,3 = (10,9) below h1.
  EXPECT_LE(h0.SignedDistance(Point{6.0, 5.0}), 1e-12);
  EXPECT_LE(h0.SignedDistance(Point{7.0, 6.0}), 1e-12);
  EXPECT_LE(h1.SignedDistance(Point{10.0, 9.0}), 1e-12);
  // t1,2 = (14,14) is in region 1 but above h1 (height at 14: 2).
  EXPECT_GT(h1.SignedDistance(Point{14.0, 14.0}), 1e-12);
}

TEST(DualTest, HyperplaneMembershipMatchesTheorem5) {
  // For any s in region k: s F-dominates t iff s lies below-or-on h_{t,k}.
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const int d = rng.UniformInt(2, 4);
    const WeightRatioConstraints wr = RandomWr(d, trial + 1);
    Point t(d), s(d);
    for (int k = 0; k < d; ++k) {
      t[k] = rng.Uniform01();
      s[k] = rng.Uniform01();
    }
    int code = 0;
    for (int i = 0; i < d - 1; ++i) {
      if (s[i] >= t[i]) code |= (1 << i);
    }
    const Hyperplane h = MakeRegionHyperplane(t, code, wr);
    EXPECT_EQ(h.SignedDistance(s) <= 1e-12, FDominatesWeightRatio(s, t, wr))
        << "d=" << d;
  }
}

TEST(DualTest, MatchesEnumOnExample1) {
  const UncertainDataset dataset = Example1Dataset();
  const WeightRatioConstraints wr = Example1Wr();
  const ArspResult expected =
      RunSolver("enum", dataset, PreferenceRegion::FromWeightRatios(wr));
  EXPECT_LT(MaxAbsDiff(expected, RunSolver("dual", dataset, wr)), 1e-10);
}

TEST(DualTest, NoDoubleCountingOnSharedBoundaries) {
  // Instances that share coordinate values with the query sit on the border
  // of two orthant boxes; the region-code filter must count them once.
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.5, 0.5}, 1.0);
  builder.AddSingleton(Point{0.5, 0.25}, 0.5);  // same x as the query point
  builder.AddSingleton(Point{0.25, 0.5}, 0.5);  // same y
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const WeightRatioConstraints wr = Example1Wr();
  const ArspResult expected =
      RunSolver("loop", *dataset, PreferenceRegion::FromWeightRatios(wr));
  const ArspResult dual = RunSolver("dual", *dataset, wr);
  EXPECT_LT(MaxAbsDiff(expected, dual), 1e-10);
}

TEST(DualTest, DuplicatePointsMutuallyDominate) {
  UncertainDatasetBuilder builder(3);
  builder.AddSingleton(Point{0.5, 0.5, 0.5}, 0.6);
  builder.AddSingleton(Point{0.5, 0.5, 0.5}, 0.4);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const WeightRatioConstraints wr = RandomWr(3, 9);
  const ArspResult dual = RunSolver("dual", *dataset, wr);
  EXPECT_NEAR(dual.instance_probs[0], 0.6 * 0.6, 1e-12);
  EXPECT_NEAR(dual.instance_probs[1], 0.4 * 0.4, 1e-12);
}

TEST(DualTest, RandomAgreementSweep) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const int d = 2 + static_cast<int>(seed % 3);
    const UncertainDataset dataset =
        RandomDataset(30, 4, d, (seed % 2) * 0.4, seed);
    const WeightRatioConstraints wr = RandomWr(d, seed + 100);
    const ArspResult expected =
        RunSolver("loop", dataset, PreferenceRegion::FromWeightRatios(wr));
    EXPECT_LT(MaxAbsDiff(expected, RunSolver("dual", dataset, wr)), 1e-8)
        << "seed=" << seed << " d=" << d;
  }
}

}  // namespace
}  // namespace arsp
