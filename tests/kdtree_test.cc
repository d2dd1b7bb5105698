// Copyright 2026 The ARSP Authors.

#include "src/index/kdtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace arsp {
namespace {

std::vector<KdItem> RandomItems(int n, int dim, Rng& rng) {
  std::vector<KdItem> items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Point p(dim);
    for (int k = 0; k < dim; ++k) p[k] = rng.Uniform01();
    items.push_back(KdItem{std::move(p), i, rng.Uniform(0.0, 1.0)});
  }
  return items;
}

TEST(KdTreeTest, EmptyTree) {
  const KdTree tree(std::vector<KdItem>{});
  EXPECT_EQ(tree.size(), 0);
  EXPECT_EQ(tree.num_nodes(), 0);
  const Mbr box(Point{0.0, 0.0}, Point{1.0, 1.0});
  const Hyperplane hp({0.0}, -1.0);  // y = 1: the whole box is below
  int visited = 0;
  tree.ForEachInBoxBelow(box, hp, 0.0,
                         [&](const KdTree::EntryRef&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_FALSE(tree.ExistsInBoxBelow(box, hp, 0.0, /*exclude_id=*/-1));
}

TEST(KdTreeTest, RootMbrIsTight) {
  Rng rng(1);
  const auto items = RandomItems(100, 3, rng);
  Mbr expected = Mbr::Empty(3);
  for (const KdItem& it : items) expected.Extend(it.point);
  const KdTree tree(items);
  EXPECT_EQ(tree.root_mbr().min_corner(), expected.min_corner());
  EXPECT_EQ(tree.root_mbr().max_corner(), expected.max_corner());
}

TEST(KdTreeTest, HalfspaceReportingMatchesBruteForce) {
  Rng rng(4);
  const auto items = RandomItems(400, 3, rng);
  const KdTree tree(items);
  for (int trial = 0; trial < 30; ++trial) {
    const Hyperplane hp({rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)},
                        rng.Uniform(-1.0, 1.0));
    const Mbr box = tree.root_mbr();
    std::vector<int> visited;
    tree.ForEachInBoxBelow(
        box, hp, 0.0,
        [&](const KdTree::EntryRef& it) { visited.push_back(it.id); });
    std::vector<int> expected;
    for (const KdItem& it : items) {
      if (hp.SignedDistance(it.point) <= 0.0) expected.push_back(it.id);
    }
    std::sort(visited.begin(), visited.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(visited, expected);
  }
}

TEST(KdTreeTest, ExistsInBoxBelowRespectsExclusion) {
  // Single point below the plane: found unless excluded.
  std::vector<KdItem> items = {{Point{0.5, 0.1}, 7, 1.0},
                               {Point{0.5, 0.9}, 8, 1.0}};
  const KdTree tree(items);
  const Hyperplane hp({0.0}, -0.5);  // y = 0.5
  const Mbr box = tree.root_mbr();
  EXPECT_TRUE(tree.ExistsInBoxBelow(box, hp, 0.0, /*exclude_id=*/-1));
  EXPECT_FALSE(tree.ExistsInBoxBelow(box, hp, 0.0, /*exclude_id=*/7));
}

TEST(KdTreeTest, DuplicatePointsAreAllIndexed) {
  // 50 copies of one point: the builder cannot split them, so they share
  // one leaf, and the probe must report every copy exactly once.
  std::vector<KdItem> items;
  for (int i = 0; i < 50; ++i) items.push_back({Point{0.5, 0.5}, i, 0.1});
  const KdTree tree(items);
  const Mbr point_box(Point{0.5, 0.5}, Point{0.5, 0.5});
  const auto probe = [&](const Hyperplane& hp, int id_bound) {
    std::vector<int> ids;
    double weight = 0.0;
    tree.ForEachInBoxBelow(point_box, hp, 0.0, id_bound,
                           [&](const KdTree::EntryRef& it) {
                             ids.push_back(it.id);
                             weight += it.weight;
                           });
    std::sort(ids.begin(), ids.end());
    return std::make_pair(ids, weight);
  };
  const Hyperplane through({1.0}, 0.0);  // y = x passes through the point
  std::vector<int> all(50);
  std::iota(all.begin(), all.end(), 0);
  const auto [ids, weight] = probe(through, 50);
  EXPECT_EQ(ids, all);
  EXPECT_NEAR(weight, 5.0, 1e-9);
  // A prefix bound keeps ids below it; a plane under the point keeps none.
  EXPECT_EQ(probe(through, 20).first,
            std::vector<int>(all.begin(), all.begin() + 20));
  EXPECT_TRUE(probe(Hyperplane({1.0}, 0.1), 50).first.empty());
}

TEST(KdTreeTest, OrthantQueryWithHalfspace) {
  // Points in the lower-left orthant of (0.5, 0.5) below y = 1 - x.
  Rng rng(5);
  const auto items = RandomItems(300, 2, rng);
  const KdTree tree(items);
  const Mbr orthant(tree.root_mbr().min_corner(), Point{0.5, 0.5});
  const Hyperplane hp({-1.0}, -1.0);  // y = -x + 1
  int count = 0;
  tree.ForEachInBoxBelow(orthant, hp, 0.0,
                         [&](const KdTree::EntryRef&) { ++count; });
  int expected = 0;
  for (const KdItem& it : items) {
    if (it.point[0] <= 0.5 && it.point[1] <= 0.5 &&
        it.point[1] <= 1.0 - it.point[0]) {
      ++expected;
    }
  }
  EXPECT_EQ(count, expected);
}

}  // namespace
}  // namespace arsp
