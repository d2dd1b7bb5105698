// Copyright 2026 The ARSP Authors.
//
// Executable check of the Theorem-1 reduction: ARSP solves Orthogonal
// Vectors through the constructed dataset, for both outcomes.

#include <gtest/gtest.h>

#include "src/core/ov_reduction.h"
#include "src/prefs/preference_region.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RunSolver;

TEST(OvReductionTest, DatasetShapeFollowsTheorem1) {
  OvInstance ov;
  ov.a = {{0, 1}, {1, 1}};
  ov.b = {{1, 0}, {0, 1}, {1, 1}};
  const UncertainDataset dataset = BuildOvDataset(ov);
  EXPECT_EQ(dataset.dim(), 2);
  EXPECT_EQ(dataset.num_objects(), 4);  // 3 singletons + T_A
  EXPECT_EQ(dataset.num_instances(), 5);
  // Singletons carry probability 1; T_A instances carry 1/|A| and map
  // 0 -> 3/2, 1 -> 1/2.
  EXPECT_DOUBLE_EQ(dataset.instance(0).prob, 1.0);
  EXPECT_EQ(dataset.instance(3).point, (Point{1.5, 0.5}));  // ξ((0,1))
  EXPECT_EQ(dataset.instance(4).point, (Point{0.5, 0.5}));  // ξ((1,1))
  EXPECT_DOUBLE_EQ(dataset.instance(3).prob, 0.5);
}

TEST(OvReductionTest, PositiveInstanceDetected) {
  // a = (1,0,1), b = (0,1,0): orthogonal.
  OvInstance ov;
  ov.a = {{1, 0, 1}};
  ov.b = {{0, 1, 0}};
  ASSERT_TRUE(OvPairExistsBrute(ov));
  const UncertainDataset dataset = BuildOvDataset(ov);
  const ArspResult result =
      RunSolver("kdtt+", dataset, PreferenceRegion::FullSimplex(3));
  EXPECT_TRUE(OvPairExists(result, dataset));
}

TEST(OvReductionTest, NegativeInstanceDetected) {
  // Every pair shares a 1.
  OvInstance ov;
  ov.a = {{1, 0}, {1, 1}};
  ov.b = {{1, 0}, {1, 1}};
  ASSERT_FALSE(OvPairExistsBrute(ov));
  const UncertainDataset dataset = BuildOvDataset(ov);
  const ArspResult result =
      RunSolver("kdtt+", dataset, PreferenceRegion::FullSimplex(2));
  EXPECT_FALSE(OvPairExists(result, dataset));
}

TEST(OvReductionTest, RandomInstancesMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const int n = 4 + static_cast<int>(seed % 5);
    const int d = 3 + static_cast<int>(seed % 4);
    // Mix densities so both outcomes occur across the sweep.
    const double density = (seed % 3 == 0) ? 0.8 : 0.4;
    const OvInstance ov = MakeRandomOvInstance(n, d, density, seed);
    const UncertainDataset dataset = BuildOvDataset(ov);
    const ArspResult result =
        RunSolver("kdtt+", dataset, PreferenceRegion::FullSimplex(d));
    EXPECT_EQ(OvPairExists(result, dataset), OvPairExistsBrute(ov))
        << "seed=" << seed;
    // Consistency with LOOP on the same reduction dataset.
    const ArspResult loop =
        RunSolver("loop", dataset, PreferenceRegion::FullSimplex(d));
    EXPECT_LT(MaxAbsDiff(result, loop), 1e-10);
  }
}

}  // namespace
}  // namespace arsp
