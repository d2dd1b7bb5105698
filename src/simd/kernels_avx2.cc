// Copyright 2026 The ARSP Authors.
//
// AVX2 kernel table (x86-64). Compiled into every x86-64 build via
// per-function target attributes — no global -mavx2, so the rest of the
// binary stays baseline and the table is only selected when CPUID reports
// AVX2 at runtime. Deliberately avoids FMA: the bit-identity contract
// requires the scalar multiply-then-add rounding, so every dot product is
// an explicit _mm256_mul_pd followed by _mm256_add_pd, and min/max use
// MINPD/MAXPD with the accumulator as the second operand (ties and ±0.0
// keep the incumbent, matching the scalar strict-inequality update).
//
// Comparison loops accumulate violation masks branchlessly across the
// 4-wide dimension chunks and test once per row — the branch-per-coordinate
// pattern of the scalar DominatesWeak is exactly what this file exists to
// remove. FilterCandidates, the traversal's hot loop, and ClassifyCorners
// share one row test that covers the last 1 to 4 coordinates with one
// masked load, and each turns its two results into a list cursor step or a
// class arithmetically, so both run the same branch-free path for every
// dim; the other comparisons finish with a 2-wide and a scalar step.

#include "src/simd/kernels.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#define ARSP_AVX2 __attribute__((target("avx2")))

namespace arsp {
namespace simd {
namespace {

inline const double* Row(const double* coords, int dim, int id) {
  return coords + static_cast<size_t>(id) * static_cast<size_t>(dim);
}

// Violation mask of `row` against one reference row.
ARSP_AVX2 inline bool ViolatesAgainst(const double* row, const double* a,
                                      int dim) {
  __m256d viol4 = _mm256_setzero_pd();
  int k = 0;
  for (; k + 4 <= dim; k += 4) {
    viol4 = _mm256_or_pd(
        viol4, _mm256_cmp_pd(_mm256_loadu_pd(row + k),
                             _mm256_loadu_pd(a + k), _CMP_GT_OQ));
  }
  bool viol = _mm256_movemask_pd(viol4) != 0;
  if (k + 2 <= dim) {
    viol |= _mm_movemask_pd(_mm_cmpgt_pd(_mm_loadu_pd(row + k),
                                         _mm_loadu_pd(a + k))) != 0;
    k += 2;
  }
  if (k < dim) viol |= row[k] > a[k];
  return viol;
}

// What both corner kernels hoist out of their row loop. The last 1 to 4
// coordinates, [full, dim), form one masked chunk, so every dim takes
// ceil(dim / 4) chunks. Lanes past dim load nothing (maskload reads no
// memory there, so nothing is read past the end of a row or a corner) and
// read as 0.0 in the row and in both corners alike; 0.0 > 0.0 is false, so
// they never register a violation.
struct Corners {
  const double* pmin;
  const double* pmax;
  int full;
  __m256i tail;
  __m256d min_tail;
  __m256d max_tail;
};

ARSP_AVX2 inline Corners LoadCorners(int dim, const double* pmin,
                                     const double* pmax) {
  const int full = dim > 0 ? (dim - 1) & ~3 : 0;
  const __m256i tail = _mm256_cmpgt_epi64(_mm256_set1_epi64x(dim - full),
                                          _mm256_setr_epi64x(0, 1, 2, 3));
  return {pmin,
          pmax,
          full,
          tail,
          _mm256_maskload_pd(pmin + full, tail),
          _mm256_maskload_pd(pmax + full, tail)};
}

// Both corner tests of one row, each 0 or 1: the step ClassifyCorners and
// FilterCandidates share.
struct CornerTest {
  int le_min;  // row ⪯ pmin
  int le_max;  // row ⪯ pmax
};

// kOneChunk promises dim <= 4 (c.full == 0): the masked chunk is the whole
// row, and the loop over full chunks compiles away.
template <bool kOneChunk>
ARSP_AVX2 inline CornerTest TestRow(const double* row, const Corners& c) {
  const __m256d tail = _mm256_maskload_pd(row + c.full, c.tail);
  __m256d viol_min = _mm256_cmp_pd(tail, c.min_tail, _CMP_GT_OQ);
  __m256d viol_max = _mm256_cmp_pd(tail, c.max_tail, _CMP_GT_OQ);
  for (int k = 0; !kOneChunk && k < c.full; k += 4) {
    const __m256d r = _mm256_loadu_pd(row + k);
    viol_min = _mm256_or_pd(
        viol_min, _mm256_cmp_pd(r, _mm256_loadu_pd(c.pmin + k), _CMP_GT_OQ));
    viol_max = _mm256_or_pd(
        viol_max, _mm256_cmp_pd(r, _mm256_loadu_pd(c.pmax + k), _CMP_GT_OQ));
  }
  // testz is 1 when no lane of the violation mask is set.
  return {_mm256_testz_pd(viol_min, viol_min),
          _mm256_testz_pd(viol_max, viol_max)};
}

ARSP_AVX2 void ClassifyCornersAvx2(const double* coords, int dim,
                                   const int* ids, int count,
                                   const double* pmin, const double* pmax,
                                   unsigned char* out) {
  const Corners corners = LoadCorners(dim, pmin, pmax);
  for (int c = 0; c < count; ++c) {
    const CornerTest test = TestRow<false>(Row(coords, dim, ids[c]), corners);
    // kClassDominatesMin (2) when row ⪯ pmin, else kClassDominatesMax (1)
    // when row ⪯ pmax, else kClassDiscard (0), without a branch.
    out[c] = static_cast<unsigned char>((test.le_min << 1) |
                                        (test.le_max & ~test.le_min));
  }
}

template <bool kOneChunk>
ARSP_AVX2 inline FilterCounts FilterRows(const double* coords, int dim,
                                         const int* ids, int count,
                                         const Corners& corners, int* kept,
                                         int* adds) {
  int num_kept = 0;
  int num_adds = 0;
  for (int c = 0; c < count; ++c) {
    const int id = ids[c];
    const CornerTest test = TestRow<kOneChunk>(Row(coords, dim, id), corners);
    kept[num_kept] = id;
    adds[num_adds] = id;
    num_kept += test.le_max & ~test.le_min;
    num_adds += test.le_min;
  }
  return {num_kept, num_adds};
}

// Rows of at most 4 coordinates, the common case (a 2-range wr: region
// has 4 vertices), take a loop with no inner chunk loop, which keeps every
// pointer it uses in a register.
ARSP_AVX2 FilterCounts FilterCandidatesAvx2(const double* coords, int dim,
                                            const int* ids, int count,
                                            const double* pmin,
                                            const double* pmax, int* kept,
                                            int* adds) {
  const Corners corners = LoadCorners(dim, pmin, pmax);
  if (corners.full == 0) {
    return FilterRows<true>(coords, dim, ids, count, corners, kept, adds);
  }
  return FilterRows<false>(coords, dim, ids, count, corners, kept, adds);
}

ARSP_AVX2 void ScoreCornersAvx2(const double* coords, int dim, const int* ids,
                                int count, double* pmin, double* pmax) {
  int k = 0;
  for (; k + 4 <= dim; k += 4) {
    __m256d mn = _mm256_loadu_pd(pmin + k);
    __m256d mx = _mm256_loadu_pd(pmax + k);
    for (int c = 0; c < count; ++c) {
      const __m256d r = _mm256_loadu_pd(Row(coords, dim, ids[c]) + k);
      mn = _mm256_min_pd(r, mn);  // returns mn on ties: incumbent wins
      mx = _mm256_max_pd(r, mx);
    }
    _mm256_storeu_pd(pmin + k, mn);
    _mm256_storeu_pd(pmax + k, mx);
  }
  if (k + 2 <= dim) {
    __m128d mn = _mm_loadu_pd(pmin + k);
    __m128d mx = _mm_loadu_pd(pmax + k);
    for (int c = 0; c < count; ++c) {
      const __m128d r = _mm_loadu_pd(Row(coords, dim, ids[c]) + k);
      mn = _mm_min_pd(r, mn);
      mx = _mm_max_pd(r, mx);
    }
    _mm_storeu_pd(pmin + k, mn);
    _mm_storeu_pd(pmax + k, mx);
    k += 2;
  }
  if (k < dim) {
    for (int c = 0; c < count; ++c) {
      const double v = Row(coords, dim, ids[c])[k];
      if (v < pmin[k]) pmin[k] = v;
      if (v > pmax[k]) pmax[k] = v;
    }
  }
}

ARSP_AVX2 void DominatedMaskAvx2(const double* rows, int n, int dim,
                                 const double* q, unsigned char* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = ViolatesAgainst(q, Row(rows, dim, i), dim) ? 0 : 1;
  }
}

ARSP_AVX2 int DominanceCountAvx2(const double* rows, int n, int dim,
                                 const double* q) {
  int count = 0;
  for (int i = 0; i < n; ++i) {
    count += ViolatesAgainst(Row(rows, dim, i), q, dim) ? 0 : 1;
  }
  return count;
}

ARSP_AVX2 bool AnyRowDominatesAvx2(const double* rows, int n, int dim,
                                   const double* q) {
  for (int i = 0; i < n; ++i) {
    if (!ViolatesAgainst(Row(rows, dim, i), q, dim)) return true;
  }
  return false;
}

ARSP_AVX2 void MapPointAvx2(const double* t, int d, const double* vt,
                            int dprime, double* out) {
  const size_t stride = static_cast<size_t>(dprime);
  int k = 0;
  for (; k + 4 <= dprime; k += 4) {
    __m256d acc = _mm256_setzero_pd();
    const double* col = vt + k;
    for (int j = 0; j < d; ++j) {
      const __m256d prod = _mm256_mul_pd(
          _mm256_set1_pd(t[j]), _mm256_loadu_pd(col + stride * static_cast<
                                                              size_t>(j)));
      acc = _mm256_add_pd(acc, prod);  // no FMA: scalar rounding per term
    }
    _mm256_storeu_pd(out + k, acc);
  }
  if (k + 2 <= dprime) {
    __m128d acc = _mm_setzero_pd();
    const double* col = vt + k;
    for (int j = 0; j < d; ++j) {
      acc = _mm_add_pd(acc,
                       _mm_mul_pd(_mm_set1_pd(t[j]),
                                  _mm_loadu_pd(col + stride *
                                                         static_cast<size_t>(
                                                             j))));
    }
    _mm_storeu_pd(out + k, acc);
    k += 2;
  }
  for (; k < dprime; ++k) {
    double acc = 0.0;
    for (int j = 0; j < d; ++j) {
      acc += t[j] * vt[stride * static_cast<size_t>(j) +
                       static_cast<size_t>(k)];
    }
    out[k] = acc;
  }
}

const KernelOps kAvx2Ops = {
    KernelArch::kAvx2,   ClassifyCornersAvx2, FilterCandidatesAvx2,
    ScoreCornersAvx2,    DominatedMaskAvx2,   DominanceCountAvx2,
    AnyRowDominatesAvx2, MapPointAvx2,
};

}  // namespace

namespace internal {

const KernelOps* Avx2OpsOrNull() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Ops : nullptr;
}

}  // namespace internal
}  // namespace simd
}  // namespace arsp

#else  // !x86-64

namespace arsp {
namespace simd {
namespace internal {

const KernelOps* Avx2OpsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace arsp

#endif
