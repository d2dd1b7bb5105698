// Copyright 2026 The ARSP Authors.
//
// QDTT+ (§III-B, remark): the quadtree variant of Algorithm 1. Each node
// partitions its point set around the center of its bounding box into up to
// 2^{d'} quadrants, which yields smaller MBRs (and earlier pruning) in low
// dimensions but suffers when d' grows — exactly the trade-off the paper's
// Fig. 5 measures. Construction is fused with the pre-order traversal.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/solver.h"
#include "src/core/traversal_driver.h"
#include "src/prefs/score_mapper.h"

namespace arsp {

namespace {

using internal::DepthScratch;
using internal::PartitionPolicy;
using internal::TraversalNode;

// Quadrant codes pack one bit per mapped dimension into a uint64_t.
constexpr int kMaxQuadrantDims = 63;

// Partitions a node's rows into quadrants around its box centre by sorting
// on the quadrant code; only non-empty quadrants become children (no 2^{d'}
// allocation, though the fan-out still hurts in high dimensions).
class QuadrantSplit : public PartitionPolicy {
 public:
  using PartitionPolicy::PartitionPolicy;

  // Quadrant fan-out is at most 2^d' but usually far smaller; estimate
  // conservatively so the frontier depth lands near the task-count target.
  int branch_factor() const override {
    return std::min(8, 1 << std::min(scores_.dim, 3));
  }

  void Split(const TraversalNode& node, const double* corners,
             DepthScratch* scratch) override {
    const int dim = scores_.dim;
    std::vector<double>& center = scratch->center;
    center.resize(static_cast<size_t>(dim));
    for (int k = 0; k < dim; ++k) {
      center[static_cast<size_t>(k)] = 0.5 * (corners[k] + corners[dim + k]);
    }
    std::sort(order_.begin() + node.begin, order_.begin() + node.end,
              [this, &center](int a, int b) {
                return QuadrantCode(a, center.data()) <
                       QuadrantCode(b, center.data());
              });
    int chunk = node.begin;
    while (chunk < node.end) {
      const uint64_t code =
          QuadrantCode(order_[static_cast<size_t>(chunk)], center.data());
      int chunk_end = chunk + 1;
      while (chunk_end < node.end &&
             QuadrantCode(order_[static_cast<size_t>(chunk_end)],
                          center.data()) == code) {
        ++chunk_end;
      }
      scratch->children.push_back({chunk, chunk_end, -1});
      chunk = chunk_end;
    }
  }

 private:
  uint64_t QuadrantCode(int row, const double* center) const {
    const double* p = scores_.row(row);
    uint64_t code = 0;
    for (int k = 0; k < scores_.dim; ++k) {
      code = (code << 1) | (p[k] > center[k] ? 1u : 0u);
    }
    return code;
  }
};

class QdttSolver : public internal::TraversalSolver {
 public:
  const char* name() const override { return "qdtt+"; }
  const char* display_name() const override { return "QDTT+"; }
  const char* description() const override {
    return "quadtree traversal (2^d' quadrants per node), construction "
           "fused with pruning";
  }
  uint32_t capabilities() const override {
    return TraversalSolver::capabilities() | kCapExponentialInVertices;
  }

  // The mapped dimension d' is the region's vertex count. A larger region
  // is refused here, as a recoverable error a daemon can answer, rather
  // than producing truncated quadrant codes mid-solve.
  Status ValidateContext(const ExecutionContext& context) const override {
    ARSP_RETURN_IF_ERROR(TraversalSolver::ValidateContext(context));
    const int vertices = context.region().num_vertices();
    if (vertices > kMaxQuadrantDims) {
      return Status::FailedPrecondition(
          "QDTT+ quadrant codes support at most " +
          std::to_string(kMaxQuadrantDims) + " mapped dimensions, got " +
          std::to_string(vertices) +
          " preference-region vertices; use KDTT+ or B&B");
    }
    return Status::OK();
  }

 protected:
  std::unique_ptr<PartitionPolicy> MakePolicy(
      const ScoreSpan& scores) const override {
    return std::make_unique<QuadrantSplit>(scores);
  }
};

}  // namespace

namespace internal {
std::unique_ptr<ArspSolver> NewQdttSolver() {
  return std::make_unique<QdttSolver>();
}
}  // namespace internal

}  // namespace arsp
