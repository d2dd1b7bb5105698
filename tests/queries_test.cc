// Copyright 2026 The ARSP Authors.

#include "src/core/queries.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RunSolver;
using testing_util::WrRegion;

UncertainDataset FourObjects() {
  UncertainDatasetBuilder builder(1);
  for (int i = 0; i < 4; ++i) builder.AddSingleton(Point{1.0 * i}, 1.0);
  return std::move(builder.Build()).value();
}

ArspResult FixedResult() {
  ArspResult result;
  result.instance_probs = {0.9, 0.4, 0.4, 0.05};
  return result;
}

TEST(QueriesTest, ObjectsAboveThreshold) {
  const UncertainDataset dataset = FourObjects();
  const ArspResult result = FixedResult();
  const auto above = ObjectsAboveThreshold(result, dataset, 0.4);
  ASSERT_EQ(above.size(), 3u);
  EXPECT_EQ(above[0].first, 0);
  EXPECT_EQ(above[1].first, 1);  // tie with 2, lower id first
  EXPECT_EQ(above[2].first, 2);
  EXPECT_TRUE(ObjectsAboveThreshold(result, dataset, 0.95).empty());
}

TEST(QueriesTest, InstancesAboveThresholdAndTopK) {
  const ArspResult result = FixedResult();
  const auto above = InstancesAboveThreshold(result, 0.4);
  ASSERT_EQ(above.size(), 3u);
  EXPECT_EQ(above.front().first, 0);
  const auto top2 = TopKInstances(result, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].first, 0);
  EXPECT_EQ(top2[1].first, 1);
  EXPECT_EQ(TopKInstances(result, 0).size(), 0u);
}

TEST(QueriesTest, ThresholdForObjectCount) {
  const UncertainDataset dataset = FourObjects();
  const ArspResult result = FixedResult();
  // Asking for 2 objects: the 2nd ranked object's probability is 0.4, and
  // querying with that threshold returns at least those objects.
  EXPECT_DOUBLE_EQ(ThresholdForObjectCount(result, dataset, 1), 0.9);
  EXPECT_DOUBLE_EQ(ThresholdForObjectCount(result, dataset, 2), 0.4);
  EXPECT_DOUBLE_EQ(ThresholdForObjectCount(result, dataset, 4), 0.05);
}

TEST(QueriesTest, TopKInstancesEdgeCases) {
  const ArspResult result = FixedResult();
  // k <= 0: zero asks for nothing; negative means "all" (mirroring
  // TopKObjects' k = -1 convention).
  EXPECT_TRUE(TopKInstances(result, 0).empty());
  EXPECT_EQ(TopKInstances(result, -1).size(), 4u);
  // k > n: everything, never an out-of-range access.
  const auto all = TopKInstances(result, 100);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front().first, 0);
  EXPECT_EQ(all.back().first, 3);
}

TEST(QueriesTest, ThresholdForObjectCountTiesAndLargeCounts) {
  const UncertainDataset dataset = FourObjects();
  ArspResult result;
  result.instance_probs = {0.7, 0.4, 0.4, 0.1};  // objects 1 and 2 tie
  // max_objects = 2 lands on the tied probability; querying at that
  // threshold returns all tied objects (3, not 2) — controllable size is a
  // lower bound under ties.
  const double tie = ThresholdForObjectCount(result, dataset, 2);
  EXPECT_DOUBLE_EQ(tie, 0.4);
  EXPECT_EQ(ObjectsAboveThreshold(result, dataset, tie).size(), 3u);
  // max_objects >= object count: the weakest object's probability.
  EXPECT_DOUBLE_EQ(ThresholdForObjectCount(result, dataset, 4), 0.1);
  EXPECT_DOUBLE_EQ(ThresholdForObjectCount(result, dataset, 100), 0.1);
}

TEST(QueriesTest, EmptyResultInputs) {
  const ArspResult empty;  // no instances at all
  EXPECT_TRUE(TopKInstances(empty, 5).empty());
  EXPECT_TRUE(InstancesAboveThreshold(empty, 0.0).empty());
  // An all-zero result: every derived query degrades gracefully.
  UncertainDatasetBuilder builder(1);
  builder.AddSingleton(Point{1.0}, 1.0);
  const UncertainDataset one = std::move(builder.Build()).value();
  ArspResult zeros;
  zeros.instance_probs = {0.0};
  EXPECT_TRUE(ObjectsAboveThreshold(zeros, one, 0.5).empty());
  EXPECT_DOUBLE_EQ(ThresholdForObjectCount(zeros, one, 1), 0.0);
}

TEST(QueriesTest, ConsistentWithFullRanking) {
  const UncertainDataset dataset = RandomDataset(30, 4, 3, 0.2, 5);
  const PreferenceRegion region = WrRegion(3, 2);
  const ArspResult result = RunSolver("loop", dataset, region);
  const auto ranked = TopKObjects(result, dataset, -1);
  // Thresholding at the k-th probability returns the top-k prefix (modulo
  // ties, which extend the result).
  const int k = 5;
  const double threshold = ThresholdForObjectCount(result, dataset, k);
  const auto above = ObjectsAboveThreshold(result, dataset, threshold);
  ASSERT_GE(above.size(), static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(above[static_cast<size_t>(i)].first,
              ranked[static_cast<size_t>(i)].first);
  }
}

}  // namespace
}  // namespace arsp
