// Copyright 2026 The ARSP Authors.
//
// Parameterized property sweeps for the spatial indexes: every (n, dim,
// fan-out) combination must answer the probes the solvers make (B&B's
// R-tree window sums, DUAL's kd-tree box-and-half-space reports)
// identically to a brute-force scan, for bulk-loaded and incrementally
// grown R-trees alike, including duplicate-heavy grid data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/index/kdtree.h"
#include "src/index/rtree.h"

namespace arsp {
namespace {

struct IndexCase {
  int n;
  int dim;
  int fanout;    // R-tree fan-out / kd-tree leaf size
  bool grid;     // snap coordinates to force duplicates
  uint64_t seed;
};

void PrintTo(const IndexCase& c, std::ostream* os) {
  *os << "n=" << c.n << " d=" << c.dim << " fanout=" << c.fanout
      << (c.grid ? " grid" : "") << " seed=" << c.seed;
}

class IndexSweep : public ::testing::TestWithParam<IndexCase> {
 protected:
  std::vector<RTree::LeafEntry> MakeEntries() const {
    const IndexCase& c = GetParam();
    Rng rng(c.seed);
    std::vector<RTree::LeafEntry> entries;
    for (int i = 0; i < c.n; ++i) {
      Point p(c.dim);
      for (int k = 0; k < c.dim; ++k) {
        double v = rng.Uniform01();
        if (c.grid) v = std::round(v * 8.0) / 8.0;
        p[k] = v;
      }
      entries.push_back(RTree::LeafEntry{std::move(p),
                                         rng.Uniform(0.0, 1.0), i});
    }
    return entries;
  }

  Mbr RandomBox(Rng& rng) const {
    const int dim = GetParam().dim;
    Point lo(dim), hi(dim);
    for (int k = 0; k < dim; ++k) {
      const double a = rng.Uniform01(), b = rng.Uniform01();
      lo[k] = std::min(a, b);
      hi[k] = std::max(a, b);
    }
    return Mbr(lo, hi);
  }
};

TEST_P(IndexSweep, RTreeBulkAndIncrementalAgreeWithBrute) {
  const IndexCase& c = GetParam();
  const auto entries = MakeEntries();
  const RTree bulk = RTree::BulkLoad(c.dim, entries, c.fanout);
  RTree incremental(c.dim, c.fanout);
  for (const auto& e : entries) incremental.Insert(e.point, e.weight, e.id);

  Rng rng(c.seed + 999);
  for (int trial = 0; trial < 25; ++trial) {
    const Mbr box = RandomBox(rng);
    double brute = 0.0;
    for (const auto& e : entries) {
      if (box.Contains(e.point)) brute += e.weight;
    }
    EXPECT_NEAR(bulk.WindowSum(box), brute, 1e-9) << trial;
    EXPECT_NEAR(incremental.WindowSum(box), brute, 1e-9) << trial;
  }
}

// DUAL's probe over random boxes: each box gets a plane through a random
// point inside it (so the plane cuts the box) and a random prefix bound.
TEST_P(IndexSweep, KdTreeBoxBelowAgreesWithBrute) {
  const IndexCase& c = GetParam();
  const auto entries = MakeEntries();
  std::vector<KdItem> items;
  for (const auto& e : entries) {
    items.push_back(KdItem{e.point, e.id, e.weight});
  }
  const KdTree tree(items, c.fanout);

  Rng rng(c.seed + 777);
  for (int trial = 0; trial < 25; ++trial) {
    const Mbr box = RandomBox(rng);
    std::vector<double> coef(static_cast<size_t>(c.dim - 1));
    for (double& v : coef) v = rng.Uniform(-2.0, 2.0);
    double offset = 0.0;  // HeightAt(p) = p[dim - 1] for p inside the box
    for (int k = 0; k < c.dim; ++k) {
      const double p = rng.Uniform(box.min_corner()[k], box.max_corner()[k]);
      offset += k + 1 < c.dim ? coef[static_cast<size_t>(k)] * p : -p;
    }
    const Hyperplane hp(coef, offset);
    const int id_bound = rng.UniformInt(0, c.n);
    for (const int bound : {c.n, id_bound}) {
      std::vector<int> brute;
      for (const auto& e : entries) {
        if (e.id < bound && box.Contains(e.point) &&
            hp.SignedDistance(e.point) <= 0.0) {
          brute.push_back(e.id);
        }
      }
      std::vector<int> got;
      tree.ForEachInBoxBelow(
          box, hp, 0.0, bound,
          [&](const KdTree::EntryRef& it) { got.push_back(it.id); });
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute) << "trial " << trial << " id_bound " << bound;
    }
  }
}

TEST_P(IndexSweep, KdTreeHalfspaceAgreesWithBrute) {
  const IndexCase& c = GetParam();
  const auto entries = MakeEntries();
  std::vector<KdItem> items;
  for (const auto& e : entries) items.push_back(KdItem{e.point, e.id, e.weight});
  const KdTree tree(items, c.fanout);

  Rng rng(c.seed + 555);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> coef(static_cast<size_t>(c.dim - 1));
    for (double& v : coef) v = rng.Uniform(-2.0, 2.0);
    const Hyperplane hp(coef, rng.Uniform(-1.0, 1.0));
    std::vector<int> got;
    tree.ForEachInBoxBelow(
        tree.root_mbr(), hp, 0.0,
        [&](const KdTree::EntryRef& it) { got.push_back(it.id); });
    std::vector<int> brute;
    for (const auto& e : entries) {
      if (hp.SignedDistance(e.point) <= 0.0) brute.push_back(e.id);
    }
    std::sort(got.begin(), got.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(got, brute);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexSweep,
    ::testing::Values(
        IndexCase{1, 2, 4, false, 1}, IndexCase{17, 2, 4, false, 2},
        IndexCase{64, 3, 8, false, 3}, IndexCase{200, 2, 16, true, 4},
        IndexCase{500, 4, 8, false, 5}, IndexCase{500, 2, 4, true, 6},
        IndexCase{1000, 3, 32, false, 7}, IndexCase{333, 5, 8, false, 8},
        IndexCase{100, 2, 64, true, 9}, IndexCase{2000, 2, 8, false, 10}));

}  // namespace
}  // namespace arsp
