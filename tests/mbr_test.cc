// Copyright 2026 The ARSP Authors.

#include "src/geometry/mbr.h"

#include <gtest/gtest.h>

namespace arsp {
namespace {

TEST(MbrTest, EmptyBoxBehaviour) {
  Mbr box = Mbr::Empty(2);
  EXPECT_TRUE(box.IsEmpty());
  EXPECT_EQ(box.Volume(), 0.0);
  box.Extend(Point{1.0, 2.0});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_EQ(box.min_corner(), (Point{1.0, 2.0}));
  EXPECT_EQ(box.max_corner(), (Point{1.0, 2.0}));
}

TEST(MbrTest, ExtendAndContains) {
  Mbr box = Mbr::Empty(2);
  box.Extend(Point{0.0, 0.0});
  box.Extend(Point{2.0, 1.0});
  EXPECT_TRUE(box.Contains(Point{1.0, 0.5}));
  EXPECT_TRUE(box.Contains(Point{2.0, 1.0}));  // inclusive bounds
  EXPECT_FALSE(box.Contains(Point{2.0001, 1.0}));
  EXPECT_DOUBLE_EQ(box.Volume(), 2.0);
}

TEST(MbrTest, Enlargement) {
  const Mbr a(Point{0.0, 0.0}, Point{1.0, 1.0});
  const Mbr b(Point{2.0, 0.0}, Point{3.0, 1.0});
  // Merged box is [0,3]x[0,1] with volume 3; enlargement = 3 - 1 = 2.
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 2.0);
}

TEST(MbrTest, ExtendByBox) {
  Mbr a(Point{0.0, 0.0}, Point{1.0, 1.0});
  a.Extend(Mbr(Point{-1.0, 0.5}, Point{0.5, 2.0}));
  EXPECT_EQ(a.min_corner(), (Point{-1.0, 0.0}));
  EXPECT_EQ(a.max_corner(), (Point{1.0, 2.0}));
}

}  // namespace
}  // namespace arsp
