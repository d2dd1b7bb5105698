// Copyright 2026 The ARSP Authors.
//
// The query hyperplane h_{t,k} of DUAL's half-space reporting reduction
// (§IV-A, Eq. 6). The DUAL solver itself is reached through the
// SolverRegistry as "dual"; the eclipse DUAL-S algorithm shares this
// hyperplane.

#ifndef ARSP_CORE_DUAL_ALGORITHM_H_
#define ARSP_CORE_DUAL_ALGORITHM_H_

#include "src/geometry/hyperplane.h"
#include "src/geometry/point.h"
#include "src/prefs/weight_ratio.h"

namespace arsp {

/// Builds the Eq. (6) hyperplane h_{t,k} for query instance t and region
/// code k (bit i of k = 1 iff s[i] ≥ t[i] in that region). Exposed for
/// tests and for the eclipse DUAL-S algorithm.
Hyperplane MakeRegionHyperplane(const Point& t, int region_code,
                                const WeightRatioConstraints& wr);

}  // namespace arsp

#endif  // ARSP_CORE_DUAL_ALGORITHM_H_
