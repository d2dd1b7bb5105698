// Copyright 2026 The ARSP Authors.
//
// NEON kernel table (aarch64, where Advanced SIMD is baseline — no runtime
// probe needed). Two doubles per register. Dot products use explicit
// vmulq/vaddq (never vfmaq — fusing would change the rounding the scalar
// reference defines), and min/max use compare-and-select rather than
// vminq/vmaxq, whose IEEE minNum semantics would pick -0.0 over +0.0
// regardless of operand order and break ±0.0 tie identity.

#include "src/simd/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace arsp {
namespace simd {
namespace {

inline const double* Row(const double* coords, int dim, int id) {
  return coords + static_cast<size_t>(id) * static_cast<size_t>(dim);
}

// True iff row[k] > a[k] for some k < dim.
inline bool ViolatesAgainst(const double* row, const double* a, int dim) {
  uint64x2_t viol = vdupq_n_u64(0);
  int k = 0;
  for (; k + 2 <= dim; k += 2) {
    viol = vorrq_u64(viol, vcgtq_f64(vld1q_f64(row + k), vld1q_f64(a + k)));
  }
  bool any = (vgetq_lane_u64(viol, 0) | vgetq_lane_u64(viol, 1)) != 0;
  if (k < dim) any |= row[k] > a[k];
  return any;
}

// Both corner tests of one row: the step ClassifyCorners and
// FilterCandidates share.
struct CornerTest {
  bool le_min;  // row ⪯ pmin
  bool le_max;  // row ⪯ pmax
};

inline CornerTest TestRow(const double* row, int dim, const double* pmin,
                          const double* pmax) {
  uint64x2_t viol_min = vdupq_n_u64(0);
  uint64x2_t viol_max = vdupq_n_u64(0);
  int k = 0;
  for (; k + 2 <= dim; k += 2) {
    const float64x2_t r = vld1q_f64(row + k);
    viol_min = vorrq_u64(viol_min, vcgtq_f64(r, vld1q_f64(pmin + k)));
    viol_max = vorrq_u64(viol_max, vcgtq_f64(r, vld1q_f64(pmax + k)));
  }
  bool gt_min =
      (vgetq_lane_u64(viol_min, 0) | vgetq_lane_u64(viol_min, 1)) != 0;
  bool gt_max =
      (vgetq_lane_u64(viol_max, 0) | vgetq_lane_u64(viol_max, 1)) != 0;
  if (k < dim) {
    gt_min |= row[k] > pmin[k];
    gt_max |= row[k] > pmax[k];
  }
  return {!gt_min, !gt_max};
}

void ClassifyCornersNeon(const double* coords, int dim, const int* ids,
                         int count, const double* pmin, const double* pmax,
                         unsigned char* out) {
  for (int c = 0; c < count; ++c) {
    const CornerTest test = TestRow(Row(coords, dim, ids[c]), dim, pmin, pmax);
    out[c] = test.le_min ? kClassDominatesMin
                         : (test.le_max ? kClassDominatesMax : kClassDiscard);
  }
}

// The scalar reference's compaction around the NEON row test.
FilterCounts FilterCandidatesNeon(const double* coords, int dim,
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

void ScoreCornersNeon(const double* coords, int dim, const int* ids,
                      int count, double* pmin, double* pmax) {
  int k = 0;
  for (; k + 2 <= dim; k += 2) {
    float64x2_t mn = vld1q_f64(pmin + k);
    float64x2_t mx = vld1q_f64(pmax + k);
    for (int c = 0; c < count; ++c) {
      const float64x2_t r = vld1q_f64(Row(coords, dim, ids[c]) + k);
      // Strict-inequality select: ties (incl. ±0.0) keep the incumbent.
      mn = vbslq_f64(vcltq_f64(r, mn), r, mn);
      mx = vbslq_f64(vcgtq_f64(r, mx), r, mx);
    }
    vst1q_f64(pmin + k, mn);
    vst1q_f64(pmax + k, mx);
  }
  if (k < dim) {
    for (int c = 0; c < count; ++c) {
      const double v = Row(coords, dim, ids[c])[k];
      if (v < pmin[k]) pmin[k] = v;
      if (v > pmax[k]) pmax[k] = v;
    }
  }
}

void DominatedMaskNeon(const double* rows, int n, int dim, const double* q,
                       unsigned char* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = ViolatesAgainst(q, Row(rows, dim, i), dim) ? 0 : 1;
  }
}

int DominanceCountNeon(const double* rows, int n, int dim, const double* q) {
  int count = 0;
  for (int i = 0; i < n; ++i) {
    count += ViolatesAgainst(Row(rows, dim, i), q, dim) ? 0 : 1;
  }
  return count;
}

bool AnyRowDominatesNeon(const double* rows, int n, int dim,
                         const double* q) {
  for (int i = 0; i < n; ++i) {
    if (!ViolatesAgainst(Row(rows, dim, i), q, dim)) return true;
  }
  return false;
}

void MapPointNeon(const double* t, int d, const double* vt, int dprime,
                  double* out) {
  const size_t stride = static_cast<size_t>(dprime);
  int k = 0;
  for (; k + 2 <= dprime; k += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    const double* col = vt + k;
    for (int j = 0; j < d; ++j) {
      // Explicit mul + add (not vfmaq): matches scalar per-term rounding.
      acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(t[j]),
                                     vld1q_f64(col + stride *
                                                         static_cast<size_t>(
                                                             j))));
    }
    vst1q_f64(out + k, acc);
  }
  if (k < dprime) {
    double acc = 0.0;
    for (int j = 0; j < d; ++j) {
      acc += t[j] * vt[stride * static_cast<size_t>(j) +
                       static_cast<size_t>(k)];
    }
    out[k] = acc;
  }
}

const KernelOps kNeonOps = {
    KernelArch::kNeon,   ClassifyCornersNeon, FilterCandidatesNeon,
    ScoreCornersNeon,    DominatedMaskNeon,   DominanceCountNeon,
    AnyRowDominatesNeon, MapPointNeon,
};

}  // namespace

namespace internal {

const KernelOps* NeonOpsOrNull() { return &kNeonOps; }

}  // namespace internal
}  // namespace simd
}  // namespace arsp

#else  // !aarch64

namespace arsp {
namespace simd {
namespace internal {

const KernelOps* NeonOpsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace arsp

#endif
