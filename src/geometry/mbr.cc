// Copyright 2026 The ARSP Authors.

#include "src/geometry/mbr.h"

#include <algorithm>
#include <limits>

namespace arsp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Mbr Mbr::Empty(int dim) {
  Mbr box;
  box.min_ = Point(dim);
  box.max_ = Point(dim);
  for (int i = 0; i < dim; ++i) {
    box.min_[i] = kInf;
    box.max_[i] = -kInf;
  }
  return box;
}

Mbr::Mbr(Point min_corner, Point max_corner)
    : min_(std::move(min_corner)), max_(std::move(max_corner)) {
  ARSP_CHECK(min_.dim() == max_.dim());
  for (int i = 0; i < dim(); ++i) ARSP_CHECK(min_[i] <= max_[i]);
}

bool Mbr::IsEmpty() const {
  if (dim() == 0) return true;
  return min_[0] > max_[0];
}

void Mbr::Extend(const Point& p) {
  ARSP_CHECK(p.dim() == dim());
  for (int i = 0; i < dim(); ++i) {
    min_[i] = std::min(min_[i], p[i]);
    max_[i] = std::max(max_[i], p[i]);
  }
}

void Mbr::Extend(const Mbr& other) {
  ARSP_CHECK(other.dim() == dim());
  for (int i = 0; i < dim(); ++i) {
    min_[i] = std::min(min_[i], other.min_[i]);
    max_[i] = std::max(max_[i], other.max_[i]);
  }
}

void Mbr::ExtendRow(const double* coords) {
  for (int i = 0; i < dim(); ++i) {
    min_[i] = std::min(min_[i], coords[i]);
    max_[i] = std::max(max_[i], coords[i]);
  }
}

bool Mbr::ContainsRow(const double* coords) const {
  for (int i = 0; i < dim(); ++i) {
    if (coords[i] < min_[i] || coords[i] > max_[i]) return false;
  }
  return true;
}

bool Mbr::Contains(const Point& p) const {
  ARSP_DCHECK(p.dim() == dim());
  for (int i = 0; i < dim(); ++i) {
    if (p[i] < min_[i] || p[i] > max_[i]) return false;
  }
  return true;
}

double Mbr::Volume() const {
  if (IsEmpty()) return 0.0;
  double v = 1.0;
  for (int i = 0; i < dim(); ++i) v *= (max_[i] - min_[i]);
  return v;
}

double Mbr::Enlargement(const Mbr& other) const {
  Mbr merged = *this;
  merged.Extend(other);
  return merged.Volume() - Volume();
}

}  // namespace arsp
