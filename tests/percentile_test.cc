// Copyright 2026 The ARSP Authors.
//
// The shared nearest-rank percentile helper of the client-side latency
// reporters (arsp_loadgen, perfbench's harness), checked against known
// distributions — including its exact index arithmetic,
// round(q · (n − 1)), so the reporters' numbers do not silently change.

#include "src/common/percentile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace arsp {
namespace {

TEST(PercentileTest, EmptySampleIsZero) {
  EXPECT_EQ(SortedPercentile({}, 0.5), 0.0);
  std::vector<double> empty;
  const auto out = Percentiles(&empty, {0.5, 0.95});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(PercentileTest, SingleElement) {
  const std::vector<double> one = {42.0};
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(SortedPercentile(one, q), 42.0);
  }
}

TEST(PercentileTest, KnownUniformDistribution) {
  // 0..100: element at index round(q * 100) == the percentile value itself.
  std::vector<double> sorted;
  for (int i = 0; i <= 100; ++i) sorted.push_back(static_cast<double>(i));
  EXPECT_EQ(SortedPercentile(sorted, 0.0), 0.0);
  EXPECT_EQ(SortedPercentile(sorted, 0.50), 50.0);
  EXPECT_EQ(SortedPercentile(sorted, 0.95), 95.0);
  EXPECT_EQ(SortedPercentile(sorted, 0.99), 99.0);
  EXPECT_EQ(SortedPercentile(sorted, 1.0), 100.0);
}

TEST(PercentileTest, NearestRankRounding) {
  // n = 10 → index = round(q * 9): q=0.5 → 4.5+0.5 → index 5 (truncation
  // of 5.0), q=0.95 → 8.55+0.5 → index 9.
  std::vector<double> sorted;
  for (int i = 0; i < 10; ++i) sorted.push_back(static_cast<double>(i * 10));
  EXPECT_EQ(SortedPercentile(sorted, 0.5), 50.0);
  EXPECT_EQ(SortedPercentile(sorted, 0.95), 90.0);
  EXPECT_EQ(SortedPercentile(sorted, 0.05), 0.0);  // 0.45+0.5 → index 0
}

TEST(PercentileTest, QuantileClamping) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0};
  EXPECT_EQ(SortedPercentile(sorted, -0.5), 1.0);
  EXPECT_EQ(SortedPercentile(sorted, 1.5), 3.0);
}

TEST(PercentileTest, PercentilesSortsUnsortedInput) {
  // The helper must not assume pre-sorted input — the regression the
  // centralization fixes: an unsorted ring copy fed straight to the rank
  // formula produces garbage.
  std::vector<double> sample = {9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0};
  const auto out = Percentiles(&sample, {0.0, 0.5, 1.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 5.0);
  EXPECT_EQ(out[2], 9.0);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
}

}  // namespace
}  // namespace arsp
