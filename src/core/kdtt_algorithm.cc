// Copyright 2026 The ARSP Authors.
//
// KDTT / KDTT+ (§III-B, Algorithm 1): map instances to the d'-dimensional
// score space SV(·), where F-dominance becomes coordinate dominance
// (Theorem 2), then run the kd-ASP* traversal to compute all skyline
// probabilities of the mapped dataset. Time O(c² + d d' n + n^{2-1/d'}).
//
// KDTT first builds the whole kd-tree and then traverses it (the structure
// of Afshani et al. [12]); KDTT+ fuses construction into the pre-order
// traversal so that pruned subtrees are never even built.

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/macros.h"
#include "src/core/solver.h"
#include "src/core/traversal_driver.h"
#include "src/geometry/point.h"
#include "src/prefs/score_mapper.h"

namespace arsp {

namespace {

using internal::DepthScratch;
using internal::PartitionPolicy;
using internal::TraversalNode;

// KDTT+: each node splits at the median of its widest dimension, and the
// tree is built only as far as the traversal descends.
class MedianSplit : public PartitionPolicy {
 public:
  using PartitionPolicy::PartitionPolicy;

  int branch_factor() const override { return 2; }

  void Split(const TraversalNode& node, const double* corners,
             DepthScratch* scratch) override {
    const int mid = PartitionAtMedian(node.begin, node.end, corners);
    scratch->children.push_back({node.begin, mid, -1});
    scratch->children.push_back({mid, node.end, -1});
  }

 protected:
  // Puts the lower half of rows order[begin, end) on the widest dimension
  // of `corners` before the returned midpoint.
  int PartitionAtMedian(int begin, int end, const double* corners) {
    const int mid = begin + (end - begin) / 2;
    const int split_dim = WidestDim(corners);
    std::nth_element(order_.begin() + begin, order_.begin() + mid,
                     order_.begin() + end, [this, split_dim](int a, int b) {
                       return scores_.row(a)[split_dim] <
                              scores_.row(b)[split_dim];
                     });
    return mid;
  }
};

// KDTT: the same median-split tree, built whole before the traversal (the
// construction is the cheap, memory-bound phase) into flat arrays in
// pre-order, so a node's left child is the next node.
class PrebuiltKdTree : public MedianSplit {
 public:
  explicit PrebuiltKdTree(const ScoreSpan& scores) : MedianSplit(scores) {
    Build(0, scores.n);
  }

  const double* Corners(const TraversalNode& node, double*) const override {
    return &corners_[static_cast<size_t>(node.id) * CornerStride()];
  }

  void Split(const TraversalNode& node, const double*,
             DepthScratch* scratch) override {
    ARSP_DCHECK(right_[static_cast<size_t>(node.id)] >= 0);
    const int mid = node.begin + (node.end - node.begin) / 2;
    scratch->children.push_back({node.begin, mid, node.id + 1});
    scratch->children.push_back(
        {mid, node.end, right_[static_cast<size_t>(node.id)]});
  }

 private:
  size_t CornerStride() const { return 2 * static_cast<size_t>(scores_.dim); }

  int Build(int begin, int end) {
    const int id = static_cast<int>(right_.size());
    right_.push_back(-1);
    corners_.resize(corners_.size() + CornerStride());
    double* pmin = &corners_[static_cast<size_t>(id) * CornerStride()];
    double* pmax = pmin + scores_.dim;
    ComputeCorners(begin, end, pmin, pmax);
    // A single row, or rows sharing one point, is a leaf: the traversal's
    // pmin == pmax terminal always stops there.
    if (end - begin > 1 && !CoordsEqual(pmin, pmax, scores_.dim)) {
      const int mid = PartitionAtMedian(begin, end, pmin);
      Build(begin, mid);  // id + 1; may reallocate corners_
      const int right = Build(mid, end);
      right_[static_cast<size_t>(id)] = right;
    }
    return id;
  }

  std::vector<double> corners_;  // node id → [pmin | pmax]
  std::vector<int> right_;       // node id → right child id, -1 for leaves
};

// Solver façade over both modes; "kdtt+" fuses construction with the
// traversal, "kdtt" builds the full tree first. The mode is part of the
// solver's registered identity (two names), not an option — options must
// never make name() disagree with what the registry handed out.
class KdttSolver : public internal::TraversalSolver {
 public:
  explicit KdttSolver(bool integrated) : integrated_(integrated) {}

  const char* name() const override { return integrated_ ? "kdtt+" : "kdtt"; }
  const char* display_name() const override {
    return integrated_ ? "KDTT+" : "KDTT";
  }
  const char* description() const override {
    return integrated_
               ? "kd-tree traversal, construction fused with pruning "
                 "(Algorithm 1, the paper's default)"
               : "kd-tree traversal over a fully prebuilt tree";
  }

 protected:
  std::unique_ptr<PartitionPolicy> MakePolicy(
      const ScoreSpan& scores) const override {
    if (integrated_) return std::make_unique<MedianSplit>(scores);
    return std::make_unique<PrebuiltKdTree>(scores);
  }

 private:
  const bool integrated_;
};

}  // namespace

namespace internal {
std::unique_ptr<ArspSolver> NewKdttSolver() {
  return std::make_unique<KdttSolver>(false);
}
std::unique_ptr<ArspSolver> NewKdttPlusSolver() {
  return std::make_unique<KdttSolver>(true);
}
}  // namespace internal

}  // namespace arsp
