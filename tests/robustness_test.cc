// Copyright 2026 The ARSP Authors.
//
// Robustness and invariant tests across the algorithm suite: irregular
// probabilities (not 1/k), near-one object masses, diagnostic counter
// sanity, DUAL vs DUAL-MS agreement, and a medium-size integration sweep.

#include <gtest/gtest.h>

#include "src/core/dual2d_ms.h"
#include "src/uncertain/generators.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomWr;
using testing_util::RunSolver;
using testing_util::WrRegion;

// Objects with ragged, non-uniform probabilities summing to assorted totals.
UncertainDataset RaggedDataset(int num_objects, int dim, uint64_t seed) {
  Rng rng(seed);
  UncertainDatasetBuilder builder(dim);
  for (int j = 0; j < num_objects; ++j) {
    const int count = rng.UniformInt(1, 5);
    // Random masses normalized to a total in (0, 1], occasionally exactly 1.
    std::vector<double> raw(static_cast<size_t>(count));
    double sum = 0.0;
    for (double& v : raw) {
      v = rng.Uniform(0.05, 1.0);
      sum += v;
    }
    const double total = (j % 3 == 0) ? 1.0 : rng.Uniform(0.3, 0.999);
    std::vector<Point> points;
    std::vector<double> probs;
    for (int i = 0; i < count; ++i) {
      Point p(dim);
      for (int k = 0; k < dim; ++k) p[k] = rng.Uniform01();
      points.push_back(std::move(p));
      probs.push_back(raw[static_cast<size_t>(i)] / sum * total);
    }
    builder.AddObject(std::move(points), std::move(probs));
  }
  return std::move(builder.Build()).value();
}

TEST(RobustnessTest, RaggedProbabilitiesAgreeAcrossAlgorithms) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const int dim = 2 + static_cast<int>(seed % 3);
    const UncertainDataset dataset = RaggedDataset(40, dim, seed);
    const PreferenceRegion region = WrRegion(dim, dim - 1);
    const ArspResult reference = RunSolver("loop", dataset, region);
    EXPECT_LT(MaxAbsDiff(reference, RunSolver("kdtt+", dataset, region)),
              1e-8)
        << seed;
    EXPECT_LT(MaxAbsDiff(reference, RunSolver("qdtt+", dataset, region)),
              1e-8)
        << seed;
    EXPECT_LT(MaxAbsDiff(reference, RunSolver("bnb", dataset, region)), 1e-8)
        << seed;
  }
}

TEST(RobustnessTest, NearOneObjectMassBehavesLikeOne) {
  // An object whose mass is 1 - 1e-12 sits inside the shared σ≈1 tolerance:
  // everything it fully dominates must come out (near) zero in every
  // algorithm, with no disagreement from the incremental β bookkeeping.
  UncertainDatasetBuilder builder(2);
  builder.AddObject({Point{0.1, 0.1}, Point{0.15, 0.15}},
                    {0.5, 0.5 - 1e-12});
  builder.AddSingleton(Point{0.9, 0.9}, 1.0);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  for (const ArspResult& result : {RunSolver("loop", *dataset, region),
                                   RunSolver("kdtt+", *dataset, region),
                                   RunSolver("bnb", *dataset, region)}) {
    EXPECT_LE(result.instance_probs[2], 1e-9);
  }
}

TEST(RobustnessTest, CountersAreInternallyConsistent) {
  const UncertainDataset dataset = RaggedDataset(60, 3, 42);
  const PreferenceRegion region = WrRegion(3, 2);

  const ArspResult kdtt = RunSolver("kdtt+", dataset, region);
  EXPECT_GT(kdtt.nodes_visited, 0);
  EXPECT_LE(kdtt.nodes_pruned, kdtt.nodes_visited);
  EXPECT_GT(kdtt.dominance_tests, 0);

  const ArspResult bnb = RunSolver("bnb", dataset, region);
  EXPECT_GT(bnb.nodes_visited, 0);

  const ArspResult loop = RunSolver("loop", dataset, region);
  // LOOP performs at most one test per ordered candidate pair.
  EXPECT_LE(loop.dominance_tests,
            static_cast<int64_t>(dataset.num_instances()) *
                dataset.num_instances());
}

TEST(RobustnessTest, DualAndDual2dMsAgreeOnSingleInstanceData) {
  const UncertainDataset iip = GenerateIipLike(200, 5);
  const auto wr = WeightRatioConstraints::Create({{0.7, 1.4}}).value();
  const ArspResult via_dual = RunSolver("dual", iip, wr);
  const auto index = Dual2dMs::Build(iip);
  ASSERT_TRUE(index.ok());
  EXPECT_LT(MaxAbsDiff(via_dual, index->Query(0.7, 1.4)), 1e-9);
}

TEST(RobustnessTest, MediumScaleIntegrationSweep) {
  // A few thousand instances: KDTT+, QDTT+ and B&B against each other
  // (LOOP as reference is too slow here; pairwise agreement between three
  // independently-structured algorithms is the check).
  SyntheticConfig config;
  config.num_objects = 400;
  config.max_instances = 12;
  config.dim = 4;
  config.phi = 0.15;
  config.distribution = Distribution::kAntiCorrelated;
  config.seed = 77;
  const UncertainDataset dataset = GenerateSynthetic(config);
  ASSERT_GT(dataset.num_instances(), 1500);
  const PreferenceRegion region = WrRegion(4, 3);

  const ArspResult kdtt = RunSolver("kdtt+", dataset, region);
  const ArspResult qdtt = RunSolver("qdtt+", dataset, region);
  const ArspResult bnb = RunSolver("bnb", dataset, region);
  EXPECT_LT(MaxAbsDiff(kdtt, qdtt), 1e-8);
  EXPECT_LT(MaxAbsDiff(kdtt, bnb), 1e-8);
  EXPECT_EQ(CountNonZero(kdtt), CountNonZero(bnb));
}

TEST(RobustnessTest, ScaleInvarianceOfDominance) {
  // Affinely scaling all coordinates by a positive factor preserves the
  // F-dominance relation, hence all rskyline probabilities.
  const UncertainDataset dataset = RaggedDataset(30, 3, 9);
  UncertainDatasetBuilder scaled_builder(3);
  for (int j = 0; j < dataset.num_objects(); ++j) {
    const auto [begin, end] = dataset.object_range(j);
    std::vector<Point> points;
    std::vector<double> probs;
    for (int i = begin; i < end; ++i) {
      Point p = dataset.instance(i).point;
      for (int k = 0; k < 3; ++k) p[k] = p[k] * 1000.0;
      points.push_back(std::move(p));
      probs.push_back(dataset.instance(i).prob);
    }
    scaled_builder.AddObject(std::move(points), std::move(probs));
  }
  const auto scaled = scaled_builder.Build();
  ASSERT_TRUE(scaled.ok());
  const PreferenceRegion region = WrRegion(3, 2);
  EXPECT_LT(MaxAbsDiff(RunSolver("kdtt+", dataset, region),
                       RunSolver("kdtt+", *scaled, region)),
            1e-8);
}

TEST(RobustnessTest, TranslationInvarianceUnderWeightRatios) {
  // Weight-ratio dominance (Theorem 5) is translation invariant: shifting
  // all instances by a constant vector preserves the relation.
  Rng rng(15);
  const auto wr = RandomWr(3, 21);
  for (int trial = 0; trial < 100; ++trial) {
    Point t(3), s(3), shift(3);
    for (int k = 0; k < 3; ++k) {
      t[k] = rng.Uniform01();
      s[k] = rng.Uniform01();
      shift[k] = rng.Uniform(-5.0, 5.0);
    }
    EXPECT_EQ(FDominatesWeightRatio(t, s, wr),
              FDominatesWeightRatio(t + shift, s + shift, wr));
  }
}

}  // namespace
}  // namespace arsp
