// Copyright 2026 The ARSP Authors.

#include "src/geometry/hyperplane.h"

#include <gtest/gtest.h>

namespace arsp {
namespace {

TEST(HyperplaneTest, HeightAndSignedDistance) {
  // y = 2x - 3  (coef = {2}, offset = 3).
  const Hyperplane h({2.0}, 3.0);
  EXPECT_EQ(h.dim(), 2);
  EXPECT_DOUBLE_EQ(h.HeightAt(Point{5.0, 0.0}), 7.0);
  EXPECT_DOUBLE_EQ(h.SignedDistance(Point{5.0, 7.0}), 0.0);  // on
  EXPECT_GT(h.SignedDistance(Point{5.0, 8.0}), 0.0);         // above
  EXPECT_LT(h.SignedDistance(Point{5.0, 6.0}), 0.0);         // below
}

TEST(HyperplaneTest, ThreeDimensionalHeight) {
  // z = x + 2y - 5.
  const Hyperplane h({1.0, 2.0}, 5.0);
  EXPECT_DOUBLE_EQ(h.HeightAt(Point{1.0, 2.0, 0.0}), 0.0);
  EXPECT_LT(h.SignedDistance(Point{1.0, 2.0, -0.5}), 0.0);
}

}  // namespace
}  // namespace arsp
