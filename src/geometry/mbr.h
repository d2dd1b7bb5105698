// Copyright 2026 The ARSP Authors.
//
// Minimum bounding rectangles (hyper-rectangles) used by every spatial index
// in the library and by the kd/quad traversal algorithms' pruning tests.

#ifndef ARSP_GEOMETRY_MBR_H_
#define ARSP_GEOMETRY_MBR_H_

#include "src/geometry/point.h"

namespace arsp {

/// Axis-aligned minimum bounding rectangle [min, max] in R^d.
class Mbr {
 public:
  Mbr() = default;

  /// An "empty" MBR of the given dimension: min = +inf, max = -inf, so that
  /// Extend() of any point produces that point's degenerate box.
  static Mbr Empty(int dim);

  /// Box with explicit corners; requires min[i] <= max[i] for all i.
  Mbr(Point min_corner, Point max_corner);

  int dim() const { return min_.dim(); }
  const Point& min_corner() const { return min_; }
  const Point& max_corner() const { return max_; }

  /// True if no point was ever added.
  bool IsEmpty() const;

  /// Grows the box to cover p.
  void Extend(const Point& p);
  /// Grows the box to cover another box.
  void Extend(const Mbr& other);
  /// Raw-row variant of Extend for columnar storage: `coords` is dim()
  /// contiguous doubles.
  void ExtendRow(const double* coords);

  /// True iff p lies inside the box (inclusive bounds).
  bool Contains(const Point& p) const;
  /// Raw-row variant of Contains.
  bool ContainsRow(const double* coords) const;

  /// d-dimensional volume; 0 for empty boxes.
  double Volume() const;

  /// Volume increase caused by extending this box to cover `other`.
  double Enlargement(const Mbr& other) const;

 private:
  Point min_;
  Point max_;
};

}  // namespace arsp

#endif  // ARSP_GEOMETRY_MBR_H_
