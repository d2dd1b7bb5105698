// Copyright 2026 The ARSP Authors.

#include "src/geometry/hyperplane.h"

namespace arsp {

double Hyperplane::HeightAt(const Point& p) const {
  ARSP_DCHECK(p.dim() >= dim() - 1);
  double h = -offset_;
  for (size_t i = 0; i < coef_.size(); ++i) {
    h += coef_[i] * p[static_cast<int>(i)];
  }
  return h;
}

double Hyperplane::SignedDistance(const Point& p) const {
  ARSP_DCHECK(p.dim() == dim());
  return p[dim() - 1] - HeightAt(p);
}

double Hyperplane::SignedDistanceRow(const double* coords) const {
  // Mirrors HeightAt's summation order exactly so the raw-row path used by
  // the flattened kd-tree is bit-identical to the Point path.
  double h = -offset_;
  for (size_t i = 0; i < coef_.size(); ++i) {
    h += coef_[i] * coords[i];
  }
  return coords[dim() - 1] - h;
}

}  // namespace arsp
