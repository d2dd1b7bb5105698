// Copyright 2026 The ARSP Authors.
//
// Convenience query semantics built on top of a full ARSP result. The
// paper's motivation for computing *all* rskyline probabilities (§I) is
// exactly that every derived retrieval — top-k, probability thresholds,
// controllable result sizes — becomes a cheap post-processing step, with no
// need to pick a threshold up front.

#ifndef ARSP_CORE_QUERIES_H_
#define ARSP_CORE_QUERIES_H_

#include <utility>
#include <vector>

#include "src/core/arsp_result.h"
#include "src/core/query_goal.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Objects whose rskyline probability is at least `threshold`, sorted by
/// descending probability (the p-threshold query of Pei et al. [10] lifted
/// to rskylines). Pairs of (object id, probability).
std::vector<std::pair<int, double>> ObjectsAboveThreshold(
    const ArspResult& result, const UncertainDataset& dataset,
    double threshold);

/// View variant; pairs carry base object ids (see TopKObjects).
std::vector<std::pair<int, double>> ObjectsAboveThreshold(
    const ArspResult& result, const DatasetView& view, double threshold);

/// Instances whose rskyline probability is at least `threshold`, sorted by
/// descending probability. Pairs of (instance id, probability).
std::vector<std::pair<int, double>> InstancesAboveThreshold(
    const ArspResult& result, double threshold);

/// Top-k instances by rskyline probability (ties broken by instance id).
std::vector<std::pair<int, double>> TopKInstances(const ArspResult& result,
                                                  int k);

/// The probability of the (max_objects)-th ranked object — the threshold
/// that targets a result of `max_objects` objects. Probability ties at that
/// rank extend the thresholded result past `max_objects` (the control is a
/// lower bound under ties). Gives users "controllable output size" without
/// re-running the query.
double ThresholdForObjectCount(const ArspResult& result,
                               const UncertainDataset& dataset,
                               int max_objects);

/// View variant of ThresholdForObjectCount.
double ThresholdForObjectCount(const ArspResult& result,
                               const DatasetView& view, int max_objects);

/// The ranked (base object id, probability) answer to an object-level goal,
/// from either a complete result (post-hoc slicing — identical to
/// TopKObjects / ObjectsAboveThreshold / the count-controlled recipe) or a
/// threshold-pruned partial result (assembled from its exact object bounds;
/// the result's recorded goal must equal `goal`, CHECK-enforced — a partial
/// result answers nothing else). For kTopK with kIncludeTies,
/// *count_threshold (if non-null) receives the k-th ranked probability and
/// boundary ties extend the answer past k. Equivalence guarantee: both
/// paths give the same objects in the same order with bit-identical
/// probabilities — a skipped subtree cannot move any value, because the
/// traversal state restores σ, β and χ bitwise on undo. A tie with the
/// threshold is settled on the exact value: the pruner never excludes an
/// object within kProbabilityEps of the cut. The goal-equivalence suite
/// asserts this across the registry.
std::vector<std::pair<int, double>> AnswerGoal(
    const ArspResult& result, const DatasetView& view, const QueryGoal& goal,
    double* count_threshold = nullptr);

}  // namespace arsp

#endif  // ARSP_CORE_QUERIES_H_
