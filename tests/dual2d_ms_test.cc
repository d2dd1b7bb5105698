// Copyright 2026 The ARSP Authors.
//
// Tests for the specialized d = 2 DUAL-MS angular structure (§V-D).

#include <gtest/gtest.h>

#include "src/core/dual2d_ms.h"
#include "src/uncertain/generators.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

TEST(Dual2dMsTest, RejectsNon2dDatasets) {
  const UncertainDataset dataset = testing_util::RandomDataset(5, 1, 3, 1.0, 1);
  const auto built = Dual2dMs::Build(dataset);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(Dual2dMsTest, RejectsMultiInstanceObjects) {
  UncertainDatasetBuilder builder(2);
  builder.AddObject({Point{0.1, 0.2}, Point{0.3, 0.4}}, {0.5, 0.5});
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const auto built = Dual2dMs::Build(*dataset);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kUnimplemented);
}

TEST(Dual2dMsTest, RejectsOversizedIndex) {
  const UncertainDataset iip = GenerateIipLike(200, 1);
  const auto built = Dual2dMs::Build(iip, /*max_memory_bytes=*/1024);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Dual2dMsTest, MatchesLoopOnIipLikeData) {
  const UncertainDataset iip = GenerateIipLike(150, 7);
  const auto built = Dual2dMs::Build(iip);
  ASSERT_TRUE(built.ok());
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {0.5, 2.0}, {1.0, 1.0}, {0.18, 5.67}, {0.84, 1.19}}) {
    const auto wr = WeightRatioConstraints::Create({{lo, hi}}).value();
    const ArspResult expected = testing_util::RunSolver(
        "loop", iip, PreferenceRegion::FromWeightRatios(wr));
    const ArspResult got = built->Query(lo, hi);
    EXPECT_LT(MaxAbsDiff(expected, got), 1e-9) << "[" << lo << "," << hi << "]";
  }
}

TEST(Dual2dMsTest, OneBuildServesManyRanges) {
  // The point of the preprocessing: one build answers every ratio range.
  const UncertainDataset iip = GenerateIipLike(80, 9);
  const auto built = Dual2dMs::Build(iip);
  ASSERT_TRUE(built.ok());
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const double lo = rng.Uniform(0.05, 2.0);
    const double hi = lo + rng.Uniform(0.0, 4.0);
    const auto wr = WeightRatioConstraints::Create({{lo, hi}}).value();
    const ArspResult expected = testing_util::RunSolver(
        "loop", iip, PreferenceRegion::FromWeightRatios(wr));
    EXPECT_LT(MaxAbsDiff(expected, built->Query(lo, hi)), 1e-9)
        << lo << " " << hi;
  }
}

TEST(Dual2dMsTest, HandlesCertainDominators) {
  // An object with p = 1 inside the angular range forces exact zero via the
  // zero-count prefix path (no underflow guessing).
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.1, 0.1}, 1.0);
  builder.AddSingleton(Point{0.9, 0.9}, 0.7);
  builder.AddSingleton(Point{0.05, 0.95}, 0.5);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const auto built = Dual2dMs::Build(*dataset);
  ASSERT_TRUE(built.ok());
  const ArspResult result = built->Query(0.5, 2.0);
  EXPECT_NEAR(result.instance_probs[0], 1.0, 1e-12);
  EXPECT_EQ(result.instance_probs[1], 0.0);  // dominated by the certain one
}

TEST(Dual2dMsTest, DuplicateCoordinates) {
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.4, 0.4}, 0.5);
  builder.AddSingleton(Point{0.4, 0.4}, 0.25);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const auto built = Dual2dMs::Build(*dataset);
  ASSERT_TRUE(built.ok());
  const ArspResult result = built->Query(0.9, 1.1);
  EXPECT_NEAR(result.instance_probs[0], 0.5 * 0.75, 1e-12);
  EXPECT_NEAR(result.instance_probs[1], 0.25 * 0.5, 1e-12);
}

TEST(Dual2dMsTest, MemoryAccounting) {
  const UncertainDataset iip = GenerateIipLike(64, 2);
  const auto built = Dual2dMs::Build(iip);
  ASSERT_TRUE(built.ok());
  EXPECT_GT(built->MemoryBytes(), 0u);
  EXPECT_LE(built->MemoryBytes(), Dual2dMs::EstimateMemoryBytes(64) * 2);
}

}  // namespace
}  // namespace arsp
