// Copyright 2026 The ARSP Authors.
//
// DUAL (§IV-A): under weight ratio constraints, finding the instances that
// F-dominate t reduces to 2^{d-1} half-space reporting problems — one per
// orthant of the space partitioned by the axis hyperplanes through t, each
// with the query hyperplane h_{t,k} of Eq. (6).
//
// The paper serves these queries with Meiser point location over hyperplane
// arrangements (Theorem 6), which it itself calls "inherently theoretical"
// (O(n^{d+ε}) space). We substitute a kd-tree: each probe intersects an
// orthant box with the half-space below h_{t,k} and reports the per-object
// probability mass. The query pattern (2^{d-1} probes per instance) and the
// reduction are exactly the paper's; see ARCHITECTURE.md, "Deviations from
// the paper".

#ifndef ARSP_CORE_DUAL_ALGORITHM_H_
#define ARSP_CORE_DUAL_ALGORITHM_H_

#include "src/core/arsp_result.h"
#include "src/geometry/hyperplane.h"
#include "src/prefs/weight_ratio.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Computes ARSP under weight ratio constraints via the half-space
/// reporting reduction.
ArspResult ComputeArspDual(const UncertainDataset& dataset,
                           const WeightRatioConstraints& wr);

/// Builds the Eq. (6) hyperplane h_{t,k} for query instance t and region
/// code k (bit i of k = 1 iff s[i] ≥ t[i] in that region). Exposed for
/// tests and for the eclipse DUAL-S algorithm.
Hyperplane MakeRegionHyperplane(const Point& t, int region_code,
                                const WeightRatioConstraints& wr);

}  // namespace arsp

#endif  // ARSP_CORE_DUAL_ALGORITHM_H_
