// Copyright 2026 The ARSP Authors.
//
// The kd-ASP* traversal (Algorithm 1, §III-B) over any space-partitioning
// tree. One driver (traversal_driver.cc) owns the state machine — skip
// check, candidate filtering, terminal emission, undo, frontier capture
// and task spawn — and the solve body around it (pruner and worker setup,
// the single-worker fallback, the counter merge). A solver only supplies a
// PartitionPolicy saying where a node's corners come from and how its rows
// split into children:
//
//   KDTT+  median split on the widest dimension, built while traversing;
//   KDTT   the same split over a tree built once into flat corner arrays;
//   QDTT+  the non-empty quadrants around the node's box centre;
//   MWTT   `fanout` equal slabs on the widest dimension.
//
// Per-node buffers live in per-depth scratch (DepthScratch) and the undo
// log in one stack per worker, all reused across nodes, so the hot loop
// does no heap allocation.

#ifndef ARSP_CORE_TRAVERSAL_DRIVER_H_
#define ARSP_CORE_TRAVERSAL_DRIVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/arsp_result.h"
#include "src/core/asp_traversal_state.h"
#include "src/core/solver.h"
#include "src/prefs/score_mapper.h"

namespace arsp {
namespace internal {

/// A node of a partition tree: rows order[begin, end) of the traversal's
/// row permutation, plus the node's index when the tree is prebuilt.
struct TraversalNode {
  int begin;
  int end;
  int id;  // prebuilt-tree node index; unused by fused policies
};

/// The buffers one recursion level needs while its node is on the stack.
/// Each worker keeps one per depth and clears them per node, keeping their
/// capacity, so a solve allocates O(depth) times rather than O(nodes).
struct DepthScratch {
  std::vector<double> corners;  // [pmin | pmax], 2·dim doubles
  // Candidates handed to the children, in candidate order. The filter
  // sizes it to every candidate, compacts the kept ones to the front
  // without branching, then shrinks it to their count.
  std::vector<int> kept;
  std::vector<TraversalNode> children;
  std::vector<double> center;  // QDTT+'s split point
};

/// How a traversal solver partitions a node's rows into children. Nodes
/// are slices of order(), a permutation of the score rows (row index ==
/// instance id) that starts as the identity. One policy object
/// serves every worker of a solve: Split permutes only its own node's
/// slice, and the slices of concurrently visited nodes are disjoint.
class PartitionPolicy {
 public:
  explicit PartitionPolicy(const ScoreSpan& scores);
  virtual ~PartitionPolicy() = default;

  const ScoreSpan& scores() const { return scores_; }
  const std::vector<int>& order() const { return order_; }

  /// Expected children per node; sets the parallel frontier depth.
  virtual int branch_factor() const = 0;

  /// The node's corners as 2·dim doubles, pmin then pmax: the default
  /// computes them from the node's rows into `scratch`.
  virtual const double* Corners(const TraversalNode& node,
                                double* scratch) const;

  /// Partitions a non-terminal node's slice of order() and appends its
  /// children, in visit order, to scratch->children (cleared by the
  /// caller). The rest of `scratch` is free working space.
  virtual void Split(const TraversalNode& node, const double* corners,
                     DepthScratch* scratch) = 0;

 protected:
  /// Tight corners of rows order[begin, end), end > begin, tightened by
  /// the dispatched ScoreCorners kernel (ties keep the first occurrence,
  /// identically to the scalar reference on every arch).
  void ComputeCorners(int begin, int end, double* pmin, double* pmax) const;

  /// The dimension of widest extent in `corners`; the first on ties.
  int WidestDim(const double* corners) const;

  const ScoreSpan scores_;
  std::vector<int> order_;
};

/// Base of the KDTT, KDTT+, QDTT+ and MWTT solvers: the shared solve body
/// and the "parallelism" option. Subclasses name themselves and build
/// their PartitionPolicy.
class TraversalSolver : public ArspSolver {
 public:
  uint32_t capabilities() const override {
    return kCapGoalPushdown | kCapIntraQueryParallel;
  }

  /// Accepts only "parallelism".
  Status Configure(const SolverOptions& options) override;

 protected:
  /// The policy for one solve over `scores`.
  virtual std::unique_ptr<PartitionPolicy> MakePolicy(
      const ScoreSpan& scores) const = 0;

  /// Reads "parallelism" (>= 1; 1 = serial; kept when absent), for
  /// Configure overrides that accept more keys.
  Status ReadParallelism(const SolverOptions& options);

  StatusOr<ArspResult> SolveImpl(ExecutionContext& context,
                                 const QueryGoal& goal) final;

 private:
  int parallelism_ = 1;
};

}  // namespace internal
}  // namespace arsp

#endif  // ARSP_CORE_TRAVERSAL_DRIVER_H_
