// Copyright 2026 The ARSP Authors.
//
// Runtime-dispatched SIMD kernels for the solver hot path. The §III–§IV
// traversal loops — coordinate-dominance tests and the SV(·) score
// mapping — walk the SoA streams laid out by ScoreBuffer/ScoreSpan; this
// layer gives each loop one batched, branch-light kernel with two
// interchangeable implementations:
//
//   * scalar — portable reference, always available, and the only table
//              on every machine without AVX2 (aarch64 included);
//   * avx2   — x86-64, 4 doubles per lane group (compiled into every
//              x86-64 build, selected only when CPUID reports AVX2).
//
// One implementation is selected at startup (CPUID on x86-64) and can be
// overridden with ARSP_KERNEL=scalar|avx2 — any other value, or avx2 on a
// machine without it, falls back to scalar with a one-line warning. Tests
// additionally switch in-process via internal::SetArchForTesting.
//
// Bit-identity contract: every implementation of a kernel must produce
// results bit-identical to the scalar reference on the same inputs —
// comparisons are exact by nature, min/max keep the accumulator on ties
// (matching scalar strict-inequality updates, including -0.0/+0.0), and
// floating-point sums fix both the association (the per-output sequential
// sums of MapPoint) and the operation set (separate multiply and add; no
// FMA contraction — the build sets -ffp-contract=off so scalar code cannot
// silently fuse either). The registry-wide equivalence suite in
// tests/simd_kernel_test.cc asserts bit-identical ArspResults per dispatch
// arch on top of the per-kernel sweeps.
//
// Alignment contract: owned Column storage (ScoreBuffer's coord stream,
// the dataset columns its prob stream borrows) starts on 64-byte
// boundaries (cache-line aligned, zero false sharing between buffers);
// kernels must NOT rely on it — spans may window a parent buffer
// at any row offset and callers pass arbitrary stack arrays — so every
// implementation uses unaligned loads. Alignment is a throughput hint, not
// a precondition.

#ifndef ARSP_SIMD_KERNELS_H_
#define ARSP_SIMD_KERNELS_H_

#include <vector>

namespace arsp {
namespace simd {

/// The dispatchable implementations.
enum class KernelArch {
  kScalar = 0,
  kAvx2 = 1,
};

/// Canonical lower-case name ("scalar", "avx2") — the values ARSP_KERNEL
/// accepts, and what --stats / the daemon report.
const char* KernelArchName(KernelArch arch);

/// Candidate classification against a node's corners (FilterAspCandidates):
/// row ⪯ pmin → kDominatesMin (enters the dominating set D), else
/// row ⪯ pmax → kDominatesMax (stays a candidate), else kDiscard.
inline constexpr unsigned char kClassDiscard = 0;
inline constexpr unsigned char kClassDominatesMax = 1;
inline constexpr unsigned char kClassDominatesMin = 2;

/// How many ids FilterCandidates wrote to each of its two lists.
struct FilterCounts {
  int kept;
  int adds;
};

/// One batched kernel per hot loop. All row pointers address row-major
/// storage with `dim` contiguous doubles per row; `ids` arguments gather
/// rows through a permutation (ScoreSpan row ids), plain `rows` arguments
/// are dense. No pointer may alias an output.
struct KernelOps {
  KernelArch arch;

  /// out[c] ∈ {kClassDiscard, kClassDominatesMax, kClassDominatesMin} for
  /// row ids[c] of `coords` against corners pmin/pmax (each `dim` doubles).
  /// row ⪯ pmin gives kClassDominatesMin even when row ⋠ pmax (the corners
  /// need not be ordered). Reads only the `dim` doubles of each gathered
  /// row and of each corner. No solver calls it: it is the byte-per-row
  /// form of FilterCandidates's test, kept for the kernel benchmarks, and
  /// each arch runs both kernels through one inline per-row test.
  void (*ClassifyCorners)(const double* coords, int dim, const int* ids,
                          int count, const double* pmin, const double* pmax,
                          unsigned char* out);

  /// The traversal driver's hot loop: makes ClassifyCorners's two corner
  /// tests for each row ids[c] and writes the id straight into its list —
  /// `adds` when row ⪯ pmin (kClassDominatesMin), `kept` when row ⪯ pmax
  /// but not pmin (kClassDominatesMax), neither when discarded. Both lists
  /// keep candidate order, so each equals a stable split of ids by class.
  /// `kept` and `adds` must each have room for `count` ints: every row
  /// writes its id at both cursors and advances each cursor by its own
  /// test, without a branch, so slots past the returned counts hold
  /// unspecified ids. Nothing is written at or past index `count`. The
  /// AVX2 body tests each row in ceil(dim / 4) chunks (one masked chunk for
  /// the last 1 to 4 coordinates) and picks its row loop once per call
  /// (rows of at most 4 coordinates skip the chunk loop), so its cost per
  /// row does not depend on the class it finds.
  FilterCounts (*FilterCandidates)(const double* coords, int dim,
                                   const int* ids, int count,
                                   const double* pmin, const double* pmax,
                                   int* kept, int* adds);

  /// Tightens pmin/pmax (already initialized) over rows ids[0..count):
  /// strict-inequality replacement, so ties keep the incumbent value.
  void (*ScoreCorners)(const double* coords, int dim, const int* ids,
                       int count, double* pmin, double* pmax);

  /// out[i] = 1 iff q ⪯ rows[i] (row i is dominated by q), else 0.
  void (*DominatedMask)(const double* rows, int n, int dim, const double* q,
                        unsigned char* out);

  /// Number of rows with rows[i] ⪯ q (rows dominating q).
  int (*DominanceCount)(const double* rows, int n, int dim, const double* q);

  /// True iff some row satisfies rows[i] ⪯ q. May exit early.
  bool (*AnyRowDominates)(const double* rows, int n, int dim,
                          const double* q);

  /// Score mapping of one point: out[k] = Σ_j t[j] · vt[j·dprime + k] for
  /// k < dprime, each output summed in ascending j with separate
  /// multiply/add — bit-identical to Point::Dot against vertex k. `vt` is
  /// the dim-major (transposed) vertex matrix, which makes k the dense
  /// vector axis. Backs ScoreMapper::MapInto/MapView.
  void (*MapPoint)(const double* t, int d, const double* vt, int dprime,
                   double* out);
};

/// The active dispatch table. Resolved once (CPUID + ARSP_KERNEL)
/// on first use; subsequent calls are a single atomic load.
const KernelOps& Ops();

/// Arch of the active table.
KernelArch ActiveArch();

/// KernelArchName(ActiveArch()).
const char* ActiveArchName();

/// Every arch this binary can run on this machine, scalar first. What the
/// per-arch test sweeps iterate.
std::vector<KernelArch> SupportedArches();

namespace internal {

/// Forces the active dispatch table (tests sweeping arches in-process).
/// Returns false — leaving the table unchanged — when `arch` is not in
/// SupportedArches(). Not synchronized with concurrent solves: call it
/// only between solves, like the test suites do.
bool SetArchForTesting(KernelArch arch);

/// The portable reference table (always valid).
const KernelOps& ScalarOps();

/// The AVX2 table; nullptr when the build target or the running CPU
/// lacks the instruction set.
const KernelOps* Avx2OpsOrNull();

}  // namespace internal
}  // namespace simd
}  // namespace arsp

#endif  // ARSP_SIMD_KERNELS_H_
