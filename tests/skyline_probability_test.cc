// Copyright 2026 The ARSP Authors.

#include "src/core/skyline_probability.h"

#include <gtest/gtest.h>

#include "src/prefs/preference_region.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RunSolver;

TEST(SkylineProbabilityTest, MatchesEnumOnTinyData) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const int dim = 2 + static_cast<int>(seed % 2);
    const UncertainDataset dataset = RandomDataset(6, 3, dim, 0.3, seed);
    const ArspResult expected =
        RunSolver("enum", dataset, PreferenceRegion::FullSimplex(dim));
    EXPECT_LT(MaxAbsDiff(expected, ComputeAllSkylineProbabilities(dataset)),
              1e-10)
        << seed;
  }
}

TEST(SkylineProbabilityTest, DominatedInstanceScaledByDominatorMass) {
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.1, 0.9}, 0.5);   // incomparable to below
  builder.AddSingleton(Point{0.2, 0.2}, 0.25);  // dominates (0.8, 0.8)
  builder.AddSingleton(Point{0.8, 0.8}, 1.0);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const ArspResult result = ComputeAllSkylineProbabilities(*dataset);
  EXPECT_NEAR(result.instance_probs[0], 0.5, 1e-12);
  EXPECT_NEAR(result.instance_probs[1], 0.25, 1e-12);
  EXPECT_NEAR(result.instance_probs[2], 0.75, 1e-12);
}

TEST(SkylineProbabilityTest, RskylineProbNeverExceedsSkylineProb) {
  // F-dominance extends coordinate dominance, so Pr_rsky(t) <= Pr_sky(t)
  // for every instance — the paper's first Table-II observation.
  const UncertainDataset dataset = RandomDataset(25, 4, 3, 0.2, 13);
  const ArspResult sky = ComputeAllSkylineProbabilities(dataset);
  const ArspResult rsky =
      RunSolver("loop", dataset, testing_util::WrRegion(3, 2));
  for (int i = 0; i < dataset.num_instances(); ++i) {
    EXPECT_LE(rsky.instance_probs[static_cast<size_t>(i)],
              sky.instance_probs[static_cast<size_t>(i)] + 1e-10)
        << i;
  }
}

}  // namespace
}  // namespace arsp
