// Copyright 2026 The ARSP Authors.

#include "src/prefs/weight_ratio.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "src/core/engine.h"
#include "src/prefs/linear_constraints.h"

namespace arsp {
namespace {

TEST(WeightRatioTest, CreateValidates) {
  EXPECT_FALSE(WeightRatioConstraints::Create({}).ok());
  EXPECT_FALSE(WeightRatioConstraints::Create({{0.0, 2.0}}).ok());   // l > 0
  EXPECT_FALSE(WeightRatioConstraints::Create({{2.0, 0.5}}).ok());   // l <= h
  EXPECT_TRUE(WeightRatioConstraints::Create({{0.5, 2.0}}).ok());
  EXPECT_TRUE(WeightRatioConstraints::Create({{1.0, 1.0}}).ok());    // point
}

TEST(WeightRatioTest, CreateRejectsInfiniteBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  const double overflowed = std::strtod("1e309", nullptr);
  ASSERT_EQ(overflowed, inf);
  for (const auto& range : {std::pair<double, double>{1.0, inf},
                            std::pair<double, double>{inf, inf},
                            std::pair<double, double>{1e308, overflowed}}) {
    const auto wr = WeightRatioConstraints::Create({{0.5, 2.0}, range});
    ASSERT_FALSE(wr.ok()) << range.first << "," << range.second;
    EXPECT_EQ(wr.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(wr.status().message().find("finite"), std::string::npos)
        << wr.status().ToString();
  }
  EXPECT_TRUE(WeightRatioConstraints::Create({{1e-308, 1e308}}).ok());
}

TEST(WeightRatioTest, SpecsWithInfiniteBoundsAreInvalidArguments) {
  for (const char* spec : {"wr:1,inf", "wr:inf,inf", "wr:1e308,1e309"}) {
    const auto constraints = ParseConstraintSpec(spec, 2);
    ASSERT_FALSE(constraints.ok()) << spec;
    EXPECT_EQ(constraints.status().code(), StatusCode::kInvalidArgument)
        << spec;
  }
}

TEST(WeightRatioTest, DimensionIsRangesPlusOne) {
  const auto wr =
      WeightRatioConstraints::Create({{0.5, 2.0}, {1.0, 3.0}}).value();
  EXPECT_EQ(wr.dim(), 3);
  EXPECT_DOUBLE_EQ(wr.lo(0), 0.5);
  EXPECT_DOUBLE_EQ(wr.hi(1), 3.0);
}

TEST(WeightRatioTest, KVertexLexicographicOrder) {
  const auto wr =
      WeightRatioConstraints::Create({{0.5, 2.0}, {1.0, 3.0}}).value();
  // 0-vertex is all-l, last vertex is all-h; the first coordinate is the
  // most significant choice (paper's lexicographic order).
  EXPECT_EQ(wr.RatioVertex(0), (Point{0.5, 1.0}));
  EXPECT_EQ(wr.RatioVertex(1), (Point{0.5, 3.0}));
  EXPECT_EQ(wr.RatioVertex(2), (Point{2.0, 1.0}));
  EXPECT_EQ(wr.RatioVertex(3), (Point{2.0, 3.0}));
}

TEST(WeightRatioTest, SimplexVerticesLieOnSimplexAndKeepRatios) {
  const auto wr =
      WeightRatioConstraints::Create({{0.5, 2.0}, {1.0, 3.0}}).value();
  const std::vector<Point> vertices = wr.SimplexVertices();
  ASSERT_EQ(vertices.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    const Point& v = vertices[static_cast<size_t>(k)];
    double sum = 0.0;
    for (int i = 0; i < 3; ++i) {
      EXPECT_GT(v[i], 0.0);
      sum += v[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    const Point ratio = wr.RatioVertex(k);
    EXPECT_NEAR(v[0] / v[2], ratio[0], 1e-12);
    EXPECT_NEAR(v[1] / v[2], ratio[1], 1e-12);
  }
}

TEST(WeightRatioTest, ToLinearConstraintsAcceptsExactlyTheBox) {
  const auto wr = WeightRatioConstraints::Create({{0.5, 2.0}}).value();
  const LinearConstraints lc = wr.ToLinearConstraints();
  EXPECT_EQ(lc.num_constraints(), 2);
  // ω = (r, 1)/(r+1) for r in and out of [0.5, 2].
  auto omega = [](double r) { return Point{r / (r + 1.0), 1.0 / (r + 1.0)}; };
  EXPECT_TRUE(lc.Satisfies(omega(0.5)));
  EXPECT_TRUE(lc.Satisfies(omega(1.3)));
  EXPECT_TRUE(lc.Satisfies(omega(2.0)));
  EXPECT_FALSE(lc.Satisfies(omega(0.4)));
  EXPECT_FALSE(lc.Satisfies(omega(2.2)));
}

TEST(WeightRatioTest, ExampleFromPaper) {
  // Example 1 uses F = {ω1 t1 + ω2 t2 | 0.5 ω2 <= ω1 <= 2 ω2}, i.e.
  // R = [0.5, 2] on ω1/ω2.
  const auto wr = WeightRatioConstraints::Create({{0.5, 2.0}}).value();
  const std::vector<Point> v = wr.SimplexVertices();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NEAR(v[0][0], 1.0 / 3.0, 1e-12);  // ratio 0.5 -> (1/3, 2/3)
  EXPECT_NEAR(v[0][1], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(v[1][0], 2.0 / 3.0, 1e-12);  // ratio 2.0 -> (2/3, 1/3)
  EXPECT_NEAR(v[1][1], 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace arsp
