// Copyright 2026 The ARSP Authors.
//
// Non-vertical hyperplanes x[d] = a[1]x[1] + ... + a[d-1]x[d-1] - a[d], the
// form of Section IV's Eq. (6) planes (MakeRegionHyperplane builds them).

#ifndef ARSP_GEOMETRY_HYPERPLANE_H_
#define ARSP_GEOMETRY_HYPERPLANE_H_

#include <vector>

#include "src/geometry/point.h"

namespace arsp {

/// A non-vertical hyperplane in R^d written as
///   x[d] = coef[0]*x[1] + ... + coef[d-2]*x[d-1] - offset .
///
/// This is the parameterization of the paper's duality discussion (§IV-A);
/// DUAL probes the kd-tree for the points on or below such a plane.
class Hyperplane {
 public:
  Hyperplane() = default;

  /// Hyperplane with slope coefficients (size d-1) and offset term.
  Hyperplane(std::vector<double> coef, double offset)
      : coef_(std::move(coef)), offset_(offset) {}

  /// Ambient dimension d.
  int dim() const { return static_cast<int>(coef_.size()) + 1; }

  const std::vector<double>& coef() const { return coef_; }
  double offset() const { return offset_; }

  /// Height of the hyperplane above the projection of p onto the first d-1
  /// coordinates, i.e. the x[d] value of the hyperplane at p's location.
  double HeightAt(const Point& p) const;

  /// Signed vertical distance of p above the plane: p[d] - HeightAt(p).
  /// Positive = above, negative = below, ~0 = on.
  double SignedDistance(const Point& p) const;
  /// Raw-row variant of SignedDistance (`coords` is dim() contiguous
  /// doubles); bit-identical to the Point form.
  double SignedDistanceRow(const double* coords) const;

 private:
  std::vector<double> coef_;
  double offset_ = 0.0;
};

}  // namespace arsp

#endif  // ARSP_GEOMETRY_HYPERPLANE_H_
