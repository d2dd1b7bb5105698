// Copyright 2026 The ARSP Authors.
//
// QueryGoal — what a caller actually wants from an ARSP solve. The paper
// computes *all* rskyline probabilities so that derived retrievals (top-k,
// p-threshold in the sense of Pei et al. [10], count-controlled results)
// become post-processing. One goal gains from being known up front: a
// threshold p > 0 lets the traversal algorithms maintain per-object
// probability bounds, stop refining an object once its upper bound falls
// below p, and stop the whole solve once every object is decided.
// PushesDown() is the one predicate that says which goals a solver
// advertising kCapGoalPushdown prunes for; the goal reaches it as an
// argument of ArspSolver::Solve (see GoalPruner in solver.h), and the
// engine routes on the predicate too.
//
// Top-k and count-controlled goals do not push down: an object outside the
// top k still dominates other objects' instances, so the traversal must
// visit its instances anyway and pruning it saves only its own leaf
// emissions (at most 1.8% of KDTT+'s dominance tests on the Fig. 6
// configs), while the partial result could serve no other goal. They are
// answered by slicing a complete result (queries.h), which one solve per
// spec serves to every later goal through the result cache.
//
// The four user-facing goal flavors map onto kind × tie policy:
//   full              — {kFull}            every instance probability, exact
//   top-k             — {kTopK, kBreakById}    k objects, ties cut by id
//   count-controlled  — {kTopK, kIncludeTies}  ≥ k objects, boundary ties kept
//   p-threshold       — {kThreshold}       objects with Pr_rsky ≥ p
//
// A goal never changes *what* a probability is — only which probabilities
// must be exact for the answer. Solvers without the pushdown capability
// ignore the goal and return a complete result, which answers any goal by
// post-hoc slicing (queries.h).

#ifndef ARSP_CORE_QUERY_GOAL_H_
#define ARSP_CORE_QUERY_GOAL_H_

#include <string>

namespace arsp {

/// The answer shape a solve is asked for.
enum class GoalKind {
  kFull,       ///< all instance probabilities, exact (the classic ARSP)
  kTopK,       ///< the k objects with the largest Pr_rsky
  kThreshold,  ///< the objects with Pr_rsky >= p
};

/// How probability ties at the k-th object are handled (kTopK only).
enum class TiePolicy {
  /// Exactly k objects; ties at the boundary break on ascending base object
  /// id (the TopKObjects contract).
  kBreakById,
  /// All objects tying the k-th probability are included — the result can
  /// exceed k (the paper's count-controlled semantics: the k-th probability
  /// acts as a derived threshold).
  kIncludeTies,
};

/// Value type passed to ArspSolver::Solve and carried by ArspResult.
/// Default-constructed goals are kFull, so goal-oblivious code paths keep
/// their semantics.
struct QueryGoal {
  GoalKind kind = GoalKind::kFull;
  /// Object count for kTopK; negative means "all objects" (treated as full
  /// work — no pruning is possible when every object must be exact).
  int k = -1;
  /// Probability threshold for kThreshold.
  double p = 0.0;
  TiePolicy ties = TiePolicy::kBreakById;
  static QueryGoal Full() { return QueryGoal{}; }
  static QueryGoal TopK(int k, TiePolicy ties = TiePolicy::kBreakById) {
    return QueryGoal{GoalKind::kTopK, k, 0.0, ties};
  }
  static QueryGoal Threshold(double p) {
    return QueryGoal{GoalKind::kThreshold, -1, p, TiePolicy::kBreakById};
  }
  static QueryGoal CountControlled(int k) {
    return TopK(k, TiePolicy::kIncludeTies);
  }

  bool is_full() const { return kind == GoalKind::kFull; }

  /// True for the only goal a solver prunes for: a threshold p > 0 (every
  /// object has Pr_rsky >= 0, so p <= 0 excludes nothing; NaN is false
  /// too). Every other goal is answered by slicing a complete result.
  bool PushesDown() const { return kind == GoalKind::kThreshold && p > 0.0; }

  friend bool operator==(const QueryGoal& a, const QueryGoal& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case GoalKind::kFull:
        return true;
      case GoalKind::kTopK:
        return a.k == b.k && a.ties == b.ties;
      case GoalKind::kThreshold:
        return a.p == b.p;
    }
    return false;
  }
  friend bool operator!=(const QueryGoal& a, const QueryGoal& b) {
    return !(a == b);
  }

  /// Exact textual encoding (full precision for p). Equal keys ⇔ equal
  /// goals; ArspEngine appends it to result-cache keys of threshold-pruned
  /// (partial) entries so they can never be confused with full results.
  std::string CacheKey() const;

  /// Human-readable form for logs and arsp_cli ("top-5", "threshold>=0.5").
  std::string ToString() const;
};

}  // namespace arsp

#endif  // ARSP_CORE_QUERY_GOAL_H_
