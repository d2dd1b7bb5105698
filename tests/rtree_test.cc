// Copyright 2026 The ARSP Authors.

#include "src/index/rtree.h"

#include <functional>
#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace arsp {
namespace {

std::vector<RTree::LeafEntry> RandomEntries(int n, int dim, Rng& rng) {
  std::vector<RTree::LeafEntry> entries;
  for (int i = 0; i < n; ++i) {
    Point p(dim);
    for (int k = 0; k < dim; ++k) p[k] = rng.Uniform01();
    entries.push_back(RTree::LeafEntry{std::move(p), rng.Uniform(0.0, 1.0), i});
  }
  return entries;
}

double BruteSum(const std::vector<RTree::LeafEntry>& entries, const Mbr& box) {
  double sum = 0.0;
  for (const auto& e : entries) {
    if (box.Contains(e.point)) sum += e.weight;
  }
  return sum;
}

Mbr RandomBox(int dim, Rng& rng) {
  Point lo(dim), hi(dim);
  for (int k = 0; k < dim; ++k) {
    const double a = rng.Uniform01(), b = rng.Uniform01();
    lo[k] = std::min(a, b);
    hi[k] = std::max(a, b);
  }
  return Mbr(lo, hi);
}

TEST(RTreeTest, EmptyTree) {
  const RTree tree(2);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root_id(), -1);
  EXPECT_EQ(tree.WindowSum(Mbr(Point{0.0, 0.0}, Point{1.0, 1.0})), 0.0);
}

TEST(RTreeTest, BulkLoadWindowSumMatchesBruteForce) {
  Rng rng(1);
  const auto entries = RandomEntries(1000, 3, rng);
  const RTree tree = RTree::BulkLoad(3, entries);
  EXPECT_EQ(tree.size(), 1000);
  for (int trial = 0; trial < 60; ++trial) {
    const Mbr box = RandomBox(3, rng);
    EXPECT_NEAR(tree.WindowSum(box), BruteSum(entries, box), 1e-9);
  }
}

TEST(RTreeTest, IncrementalInsertWindowSumMatchesBruteForce) {
  Rng rng(2);
  const auto entries = RandomEntries(600, 2, rng);
  RTree tree(2, 8);
  for (const auto& e : entries) tree.Insert(e.point, e.weight, e.id);
  EXPECT_EQ(tree.size(), 600);
  for (int trial = 0; trial < 60; ++trial) {
    const Mbr box = RandomBox(2, rng);
    EXPECT_NEAR(tree.WindowSum(box), BruteSum(entries, box), 1e-9);
  }
}

TEST(RTreeTest, MixedBulkThenInsert) {
  Rng rng(3);
  auto entries = RandomEntries(200, 2, rng);
  RTree tree = RTree::BulkLoad(2, entries, 8);
  auto more = RandomEntries(200, 2, rng);
  for (auto& e : more) {
    e.id += 200;
    tree.Insert(e.point, e.weight, e.id);
    entries.push_back(e);
  }
  for (int trial = 0; trial < 40; ++trial) {
    const Mbr box = RandomBox(2, rng);
    EXPECT_NEAR(tree.WindowSum(box), BruteSum(entries, box), 1e-9);
  }
}

TEST(RTreeTest, NodeInvariants) {
  // Every child MBR is inside its parent's; every leaf point is inside its
  // leaf's MBR; weight sums aggregate exactly.
  Rng rng(4);
  const auto entries = RandomEntries(500, 3, rng);
  RTree tree(3, 8);
  for (const auto& e : entries) tree.Insert(e.point, e.weight, e.id);

  std::function<double(int)> check = [&](int id) -> double {
    double sum = 0.0;
    const Mbr box = tree.node_mbr(id);
    if (tree.node_is_leaf(id)) {
      for (int k = 0; k < tree.node_count(id); ++k) {
        const int e = tree.node_kid(id, k);
        EXPECT_TRUE(box.ContainsRow(tree.entry_coords(e)));
        sum += tree.entry_weight(e);
      }
    } else {
      for (int k = 0; k < tree.node_count(id); ++k) {
        const int child = tree.node_kid(id, k);
        const Mbr child_box = tree.node_mbr(child);
        for (int d = 0; d < 3; ++d) {
          EXPECT_GE(child_box.min_corner()[d], box.min_corner()[d]);
          EXPECT_LE(child_box.max_corner()[d], box.max_corner()[d]);
        }
        sum += check(child);
      }
    }
    EXPECT_NEAR(tree.node_weight_sum(id), sum, 1e-9);
    return sum;
  };
  check(tree.root_id());
}

TEST(RTreeTest, DuplicatePointsAggregate) {
  RTree tree(2, 4);
  for (int i = 0; i < 40; ++i) tree.Insert(Point{0.3, 0.3}, 0.25, i);
  EXPECT_NEAR(tree.WindowSum(Mbr(Point{0.3, 0.3}, Point{0.3, 0.3})), 10.0,
              1e-9);
  EXPECT_NEAR(tree.WindowSum(Mbr(Point{0.0, 0.0}, Point{0.2, 0.2})), 0.0,
              1e-9);
}

TEST(RTreeTest, BulkLoadHandlesTinyInputs) {
  for (int n = 1; n <= 5; ++n) {
    Rng rng(static_cast<uint64_t>(n));
    const auto entries = RandomEntries(n, 2, rng);
    const RTree tree = RTree::BulkLoad(2, entries);
    EXPECT_EQ(tree.size(), n);
    const Mbr root_box = tree.node_mbr(tree.root_id());
    EXPECT_NEAR(tree.WindowSum(root_box), BruteSum(entries, root_box), 1e-9);
  }
}

}  // namespace
}  // namespace arsp
