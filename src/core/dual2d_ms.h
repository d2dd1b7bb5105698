// Copyright 2026 The ARSP Authors.
//
// DUAL-MS specialized to d = 2 (§V-D, Fig. 7a): for a query instance t the
// two half-space probes of the reduction collapse into a single continuous
// angular range around t. Each other instance s becomes the angle of the
// vector s - t; the F-dominators of t under ratio range [l, h] are exactly
// the instances with angle in
//
//     [ π - arctan(l) ,  2π - arctan(h) ] .
//
// Preprocessing sorts, per instance, all other instances by angle and
// stores zero-aware prefix products of (1 - p(s)); a query is then two
// binary searches per instance. This is the paper's "polynomial
// preprocessing, sublinear per-instance query" trade-off, including its
// admitted quadratic memory cost — the reason Fig. 7(b) runs it only on
// IIP-scale data.
//
// Restriction (matching the paper's IIP experiment): every object has a
// single instance, so the per-object product of Eq. (3) is a per-instance
// product and composes into prefix products.

#ifndef ARSP_CORE_DUAL2D_MS_H_
#define ARSP_CORE_DUAL2D_MS_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"
#include "src/core/arsp_result.h"
#include "src/uncertain/dataset_view.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Preprocessed angular structure answering ARSP queries for any ratio
/// range [l, h] in O(n log n) total (O(log n) per instance).
class Dual2dMs {
 public:
  /// Builds the structure. Requires dim == 2 and single-instance objects;
  /// refuses datasets whose quadratic index would exceed `max_memory_bytes`.
  static StatusOr<Dual2dMs> Build(const UncertainDataset& dataset,
                                  size_t max_memory_bytes = size_t{6} << 30);

  /// View variant (the Fig. 7b m% sweeps build per-prefix structures
  /// without materializing the prefix).
  static StatusOr<Dual2dMs> Build(const DatasetView& view,
                                  size_t max_memory_bytes = size_t{6} << 30);

  /// Estimated index size for an n-instance dataset, in bytes.
  static size_t EstimateMemoryBytes(int num_instances);

  /// ARSP for the ratio range l ≤ ω[1]/ω[2] ≤ h.
  ArspResult Query(double ratio_lo, double ratio_hi) const;

  /// Actual index size in bytes.
  size_t MemoryBytes() const;

 private:
  struct PerInstance {
    double prob = 0.0;
    std::vector<double> angles;      // sorted, one per foreign instance
    // Σ log(1-p) over non-certain factors: log-space keeps thousands of
    // survival factors from underflowing to 0/0 in a ratio of products.
    std::vector<double> prefix_logs;
    std::vector<int> prefix_zeros;   // count of (1-p) ≈ 0 factors
  };

  explicit Dual2dMs(std::vector<PerInstance> table)
      : table_(std::move(table)) {}

  std::vector<PerInstance> table_;
};

}  // namespace arsp

#endif  // ARSP_CORE_DUAL2D_MS_H_
