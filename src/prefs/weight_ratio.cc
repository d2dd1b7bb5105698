// Copyright 2026 The ARSP Authors.

#include "src/prefs/weight_ratio.h"

#include <cmath>

#include "src/prefs/linear_constraints.h"

namespace arsp {

StatusOr<WeightRatioConstraints> WeightRatioConstraints::Create(
    std::vector<std::pair<double, double>> ranges) {
  if (ranges.empty()) {
    return Status::InvalidArgument(
        "weight ratio constraints need at least one range (d >= 2)");
  }
  for (const auto& [lo, hi] : ranges) {
    if (!(lo > 0.0)) {
      return Status::InvalidArgument("ratio lower bound must be positive");
    }
    if (!(lo <= hi)) {
      return Status::InvalidArgument("ratio range must satisfy l <= h");
    }
    // An infinite upper bound (`inf`, or a literal strtod overflows) makes
    // the simplex vertices NaN (inf / (1 + inf)), which crashes the
    // traversal solvers and makes LOOP and DUAL disagree.
    if (!std::isfinite(hi)) {
      return Status::InvalidArgument("ratio bounds must be finite");
    }
  }
  return WeightRatioConstraints(std::move(ranges));
}

Point WeightRatioConstraints::RatioVertex(int k) const {
  const int r = dim() - 1;
  ARSP_CHECK(k >= 0 && k < (1 << r));
  Point v(r);
  for (int i = 0; i < r; ++i) {
    // Bit i of k in the paper's lexicographic order: the *first* coordinate
    // is the most significant choice, so vertex 0 is (l_1, ..., l_{d-1}) and
    // vertex 2^{d-1}-1 is (h_1, ..., h_{d-1}).
    const bool take_hi = (k >> (r - 1 - i)) & 1;
    v[i] = take_hi ? hi(i) : lo(i);
  }
  return v;
}

std::vector<Point> WeightRatioConstraints::SimplexVertices() const {
  const int r = dim() - 1;
  std::vector<Point> vertices;
  vertices.reserve(static_cast<size_t>(1) << r);
  for (int k = 0; k < (1 << r); ++k) {
    const Point ratio = RatioVertex(k);
    double sum = 1.0;
    for (int i = 0; i < r; ++i) sum += ratio[i];
    Point omega(dim());
    for (int i = 0; i < r; ++i) omega[i] = ratio[i] / sum;
    omega[dim() - 1] = 1.0 / sum;
    vertices.push_back(std::move(omega));
  }
  return vertices;
}

LinearConstraints WeightRatioConstraints::ToLinearConstraints() const {
  const int d = dim();
  LinearConstraints out(d);
  for (int i = 0; i < d - 1; ++i) {
    // l_i * ω_d - ω_i <= 0
    std::vector<double> low(static_cast<size_t>(d), 0.0);
    low[static_cast<size_t>(i)] = -1.0;
    low[static_cast<size_t>(d - 1)] = lo(i);
    out.Add(std::move(low), 0.0);
    // ω_i - h_i * ω_d <= 0
    std::vector<double> high(static_cast<size_t>(d), 0.0);
    high[static_cast<size_t>(i)] = 1.0;
    high[static_cast<size_t>(d - 1)] = -hi(i);
    out.Add(std::move(high), 0.0);
  }
  return out;
}

}  // namespace arsp
