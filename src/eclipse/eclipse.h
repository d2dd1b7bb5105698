// Copyright 2026 The ARSP Authors.
//
// Eclipse queries on certain datasets (Liu et al. [2], revisited in §IV/§V-D
// of the paper): retrieve all objects not eclipse-dominated — i.e. not
// F-dominated under weight ratio constraints — by any other object. The
// eclipse is always a subset of the skyline, so every algorithm here first
// filters to the skyline and then resolves F-dominance among skyline points.
//
// Algorithms:
//  * EclipseBrute    — all-pairs Theorem-5 tests over the whole dataset
//                      (ground truth for tests).
//  * EclipsePairwise — O(s²) pairwise tests over the skyline; models the
//                      reporting-phase cost of QUAD [2] (see
//                      ARCHITECTURE.md, "Deviations from the paper").
//  * EclipseDualS    — the paper's DUAL-S: per candidate, 2^{d-1} emptiness
//                      probes (orthant ∧ half-space of Eq. 6) on a kd-tree
//                      over the skyline. O(s · 2^{d-1} log s) probes.

#ifndef ARSP_ECLIPSE_ECLIPSE_H_
#define ARSP_ECLIPSE_ECLIPSE_H_

#include <memory>
#include <vector>

#include "src/geometry/point.h"
#include "src/prefs/weight_ratio.h"

namespace arsp {

/// Ground truth: indices of points not F-dominated by any other point,
/// via all-pairs Theorem-5 tests. O(n² d).
std::vector<int> ComputeEclipseBrute(const std::vector<Point>& points,
                                     const WeightRatioConstraints& wr);

/// Skyline filter + pairwise Theorem-5 tests (simple O(s²) baseline).
std::vector<int> ComputeEclipsePairwise(const std::vector<Point>& points,
                                        const WeightRatioConstraints& wr);

/// Pairwise resolution over a precomputed candidate set (benchmarks time
/// this separately from the skyline filter). `candidates` holds indices
/// into `points`; a candidate is reported unless another candidate
/// F-dominates it.
std::vector<int> ResolveEclipsePairwise(const std::vector<Point>& points,
                                        const std::vector<int>& candidates,
                                        const WeightRatioConstraints& wr);

/// Skyline filter + kd-tree half-space emptiness probes (DUAL-S).
std::vector<int> ComputeEclipseDualS(const std::vector<Point>& points,
                                     const WeightRatioConstraints& wr);

/// Prepared DUAL-S: the skyline filter and the kd-tree over it are built
/// once (the paper's preprocessing via the shift strategy) and each query
/// costs only the 2^{d-1} emptiness probes per skyline candidate —
/// O(s · 2^{d-1} log s). This is the fair counterpart to QuadEclipseIndex
/// in the Fig. 8 comparison.
class DualSEclipseIndex {
 public:
  /// Builds the skyline and the kd-tree over it.
  explicit DualSEclipseIndex(const std::vector<Point>& points);
  ~DualSEclipseIndex();

  DualSEclipseIndex(DualSEclipseIndex&&) noexcept;
  DualSEclipseIndex& operator=(DualSEclipseIndex&&) noexcept;

  /// Eclipse query under `wr`; indices refer to the original point set.
  std::vector<int> Query(const WeightRatioConstraints& wr) const;

  /// Skyline size s.
  int skyline_size() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace arsp

#endif  // ARSP_ECLIPSE_ECLIPSE_H_
