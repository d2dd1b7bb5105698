// Copyright 2026 The ARSP Authors.
//
// Portable reference implementation of the kernel table. This file defines
// the semantics — the SIMD backends must match it bit for bit — so keep
// every loop here boring and explicit: strict-inequality min/max updates,
// the 4-accumulator sum spec, sequential per-output dot products.

#include <cstddef>

#include "src/simd/kernels.h"

namespace arsp {
namespace simd {
namespace {

inline const double* Row(const double* coords, int dim, int id) {
  return coords + static_cast<size_t>(id) * static_cast<size_t>(dim);
}

// Both corner tests of one row: the step ClassifyCorners and
// FilterCandidates share.
struct CornerTest {
  bool le_min;  // row ⪯ pmin
  bool le_max;  // row ⪯ pmax
};

inline CornerTest TestRow(const double* row, int dim, const double* pmin,
                          const double* pmax) {
  CornerTest test{true, true};
  for (int k = 0; k < dim; ++k) {
    test.le_min &= !(row[k] > pmin[k]);
    test.le_max &= !(row[k] > pmax[k]);
  }
  return test;
}

void ClassifyCornersScalar(const double* coords, int dim, const int* ids,
                           int count, const double* pmin, const double* pmax,
                           unsigned char* out) {
  for (int c = 0; c < count; ++c) {
    const CornerTest test = TestRow(Row(coords, dim, ids[c]), dim, pmin, pmax);
    out[c] = test.le_min ? kClassDominatesMin
                         : (test.le_max ? kClassDominatesMax : kClassDiscard);
  }
}

FilterCounts FilterCandidatesScalar(const double* coords, int dim,
                                    const int* ids, int count,
                                    const double* pmin, const double* pmax,
                                    int* kept, int* adds) {
  FilterCounts counts{0, 0};
  for (int c = 0; c < count; ++c) {
    const int id = ids[c];
    const CornerTest test = TestRow(Row(coords, dim, id), dim, pmin, pmax);
    kept[counts.kept] = id;
    adds[counts.adds] = id;
    counts.kept += test.le_max && !test.le_min;
    counts.adds += test.le_min;
  }
  return counts;
}

void ScoreCornersScalar(const double* coords, int dim, const int* ids,
                        int count, double* pmin, double* pmax) {
  for (int c = 0; c < count; ++c) {
    const double* row = Row(coords, dim, ids[c]);
    for (int k = 0; k < dim; ++k) {
      if (row[k] < pmin[k]) pmin[k] = row[k];
      if (row[k] > pmax[k]) pmax[k] = row[k];
    }
  }
}

void DominatedMaskScalar(const double* rows, int n, int dim, const double* q,
                         unsigned char* out) {
  for (int i = 0; i < n; ++i) {
    const double* row = Row(rows, dim, i);
    bool dominated = true;
    for (int k = 0; k < dim; ++k) dominated &= !(q[k] > row[k]);
    out[i] = dominated ? 1 : 0;
  }
}

int DominanceCountScalar(const double* rows, int n, int dim,
                         const double* q) {
  int count = 0;
  for (int i = 0; i < n; ++i) {
    const double* row = Row(rows, dim, i);
    bool dominates = true;
    for (int k = 0; k < dim; ++k) dominates &= !(row[k] > q[k]);
    count += dominates ? 1 : 0;
  }
  return count;
}

bool AnyRowDominatesScalar(const double* rows, int n, int dim,
                           const double* q) {
  for (int i = 0; i < n; ++i) {
    const double* row = Row(rows, dim, i);
    bool dominates = true;
    for (int k = 0; k < dim; ++k) dominates &= !(row[k] > q[k]);
    if (dominates) return true;
  }
  return false;
}

void MapPointScalar(const double* t, int d, const double* vt, int dprime,
                    double* out) {
  for (int k = 0; k < dprime; ++k) out[k] = 0.0;
  for (int j = 0; j < d; ++j) {
    const double tj = t[j];
    const double* vrow = vt + static_cast<size_t>(j) * static_cast<size_t>(
                                                           dprime);
    for (int k = 0; k < dprime; ++k) out[k] += tj * vrow[k];
  }
}

const KernelOps kScalarOps = {
    KernelArch::kScalar,   ClassifyCornersScalar, FilterCandidatesScalar,
    ScoreCornersScalar,    DominatedMaskScalar,   DominanceCountScalar,
    AnyRowDominatesScalar, MapPointScalar,
};

}  // namespace

namespace internal {

const KernelOps& ScalarOps() { return kScalarOps; }

}  // namespace internal
}  // namespace simd
}  // namespace arsp
