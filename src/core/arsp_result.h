// Copyright 2026 The ARSP Authors.
//
// Result container for the ARSP problem (Problem 1): the rskyline
// probability of every instance, plus derived views (per-object
// probabilities, result size, top-k) used by the experiments.
//
// A result is either *complete* — every instance probability exact, the
// classic ARSP answer — or a goal-pruned *partial* result produced by a
// kCapGoalPushdown solver (see query_goal.h / GoalPruner in solver.h):
// instances of objects whose goal outcome was already decided by bounds are
// never evaluated, and the per-object [lower, upper] probability bounds plus
// decision flags carry everything the goal's answer needs. The full-result
// helpers below CHECK is_complete() so a partial result can never be
// silently sliced as if it were full.

#ifndef ARSP_CORE_ARSP_RESULT_H_
#define ARSP_CORE_ARSP_RESULT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/query_goal.h"
#include "src/uncertain/dataset_view.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Probabilities are considered zero below this threshold; the same
/// threshold decides when an accumulated object mass counts as 1 (the σ = 1
/// tests of Algorithms 1 and 2). Shared by every algorithm so they agree.
inline constexpr double kProbabilityEps = 1e-9;

/// [lower, upper] enclosure of one object's rskyline probability during /
/// after a goal-pruned solve. For exactly evaluated objects lower == upper.
struct ProbabilityBounds {
  double lower = 0.0;
  double upper = 0.0;
  double width() const { return upper - lower; }
};

/// Per-object outcome of a goal-pruned solve.
enum class ObjectDecision : uint8_t {
  kUndecided = 0,  ///< bounds never converged (only possible mid-run)
  kExact = 1,      ///< every instance evaluated; lower == upper == Pr_rsky
  kExcluded = 2,   ///< bounds proved the object cannot be in the answer
};

/// Output of an ARSP computation.
struct ArspResult {
  /// instance_probs[i] = Pr_rsky of the instance with id i. In a
  /// partial result, entries of undecided/excluded objects' unevaluated
  /// instances are 0 placeholders — meaningless, guarded by is_complete().
  std::vector<double> instance_probs;

  /// The goal the solve served. kFull for every goal-oblivious solver.
  QueryGoal goal;
  /// Per-object probability bounds (object order); filled only
  /// by goal-pruned solves, empty otherwise.
  std::vector<ProbabilityBounds> object_bounds;
  /// Per-object decisions, parallel to object_bounds.
  std::vector<ObjectDecision> object_decisions;
  /// False iff some instances were skipped under goal pruning. A partial
  /// result answers exactly `goal` (via AnswerGoal in queries.h) — nothing
  /// else.
  bool complete = true;

  bool is_complete() const { return complete; }
  /// Whether object `j`'s outcome was decided (exact or excluded). True for
  /// every object of a complete goal-free result (no decisions recorded ⇒
  /// everything is exact).
  bool decided(int j) const {
    return object_decisions.empty() ||
           object_decisions[static_cast<size_t>(j)] !=
               ObjectDecision::kUndecided;
  }

  /// Diagnostic counters (not all algorithms fill all of them).
  int64_t dominance_tests = 0;   ///< pairwise F-dominance tests performed
  int64_t nodes_visited = 0;     ///< tree nodes expanded / constructed
  int64_t nodes_pruned = 0;      ///< subtrees pruned
  int64_t index_probes = 0;      ///< window / half-space index probes issued
  /// Goal-pushdown counters (zero unless a GoalPruner was active).
  int64_t objects_pruned = 0;      ///< objects decided out by bounds
  int64_t bound_refinements = 0;   ///< per-object bound updates applied
  int64_t early_exit_depth = 0;    ///< traversal depth (or B&B round) at the
                                   ///< global goal-met stop; 0 = ran to end
  /// Intra-query parallelism counters (zero when no task was spawned:
  /// serial runs, and parallel ones whose walk never reached the frontier
  /// depth, which start no helper). tasks_stolen is scheduling-dependent
  /// and excluded from determinism comparisons; everything else in this
  /// struct is bit-identical to the serial run.
  int64_t tasks_spawned = 0;     ///< subtree tasks submitted to the arena
  int64_t tasks_stolen = 0;      ///< tasks a helper ran, not the caller
  int64_t parallel_workers = 0;  ///< arena workers granted (incl. caller)
};

/// Number of instances with non-zero rskyline probability — the paper's
/// "size of ARSP" reported in Figs. 5 and 6. Algorithms assign an exact 0.0
/// to instances killed by a full-mass dominator, so the default threshold
/// counts every representable positive probability (on ϕ = 1 datasets like
/// IIP the paper counts all instances; probabilities below ~1e-308 still
/// underflow to zero and are not counted). Requires a complete result.
int CountNonZero(const ArspResult& result, double eps = 0.0);

/// Pr_rsky per object: the sum of its instances' probabilities (§II-B).
/// Requires a complete result (partial results answer through AnswerGoal).
std::vector<double> ObjectProbabilities(const ArspResult& result,
                                        const UncertainDataset& dataset);

/// View variant: `result` covers the view's instances; the output covers
/// its objects.
std::vector<double> ObjectProbabilities(const ArspResult& result,
                                        const DatasetView& view);

/// Objects sorted by descending rskyline probability, truncated to k;
/// pairs of (object id, probability). Ties break on object id.
std::vector<std::pair<int, double>> TopKObjects(
    const ArspResult& result, const UncertainDataset& dataset, int k);

/// View variant: ranks the view's objects. For full views this is
/// identical to the dataset overload.
std::vector<std::pair<int, double>> TopKObjects(
    const ArspResult& result, const DatasetView& view, int k);

/// Max absolute difference between two results (test/benchmark helper).
double MaxAbsDiff(const ArspResult& a, const ArspResult& b);

}  // namespace arsp

#endif  // ARSP_CORE_ARSP_RESULT_H_
