// Copyright 2026 The ARSP Authors.
//
// Shared infrastructure for the paper-reproduction benchmarks: registry-
// driven algorithm execution (names match SolverRegistry; display names
// match the paper's figures), workload construction per §V-A, and a global
// scale knob.
//
// Scaling: the paper's defaults (m = 16K, cnt = 400 → ~3.2M instances on a
// 24-thread Xeon with 256 GB RAM) are far beyond a CI container budget. The
// benchmarks default to m = 512, cnt = 20 and sweep proportionally; set
// ARSP_BENCH_SCALE=4 (or any factor) to grow every cardinality sweep.
// Relative algorithm behaviour — the paper's actual claims — is preserved;
// EXPERIMENTS.md records the shape comparison per figure.

#ifndef ARSP_BENCH_BENCH_UTIL_H_
#define ARSP_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>

#include "src/core/arsp_result.h"
#include "src/core/engine.h"
#include "src/core/solver.h"
#include "src/prefs/preference_region.h"
#include "src/prefs/weight_ratio.h"
#include "src/uncertain/generators.h"

namespace arsp {
namespace bench_util {

/// Registry names of the algorithms in the linear-constraint experiments
/// (Figs. 5 and 6). Any name from SolverRegistry::Names() works everywhere
/// a benchmark takes an algorithm.
inline constexpr const char* kLinearAlgos[] = {"loop", "kdtt", "kdtt+",
                                               "qdtt+", "bnb"};

/// Paper-style display name from the registry ("LOOP", "KDTT+", "B&B").
std::string AlgoName(const std::string& algo);

/// Capability flags (SolverCaps) of a registered solver; benchmarks use the
/// cost-class flags to skip infeasible sweep points without naming
/// algorithms.
uint32_t AlgoCaps(const std::string& algo);

/// The shared ArspEngine every benchmark driver routes through.
ArspEngine& SharedEngine();

/// Runs a registered solver on the dataset through SharedEngine. `wr` is
/// required for solvers with kCapRequiresWeightRatios and ignored
/// otherwise. Result caching and context pooling are disabled so each call
/// pays (and measures) preprocessing + solve, like a cold query.
ArspResult RunAlgo(const std::string& algo, const UncertainDataset& dataset,
                   const PreferenceRegion& region,
                   const WeightRatioConstraints* wr = nullptr);

/// Registers `full` with SharedEngine (once per distinct dataset address —
/// callers pass function-local statics) and returns its handle.
DatasetHandle SharedHandle(const UncertainDataset& full);

/// Engine-held prefix view over `full` exposing its first `count` objects;
/// memoized per (dataset, count), so an m% sweep registers each view once.
DatasetHandle SharedPrefixHandle(const UncertainDataset& full, int count);

/// Runs a registered solver against an engine handle (dataset or view).
/// Context pooling is ON and result caching OFF: iterations measure the
/// warm view path — zero-copy score spans and indexes shared with the
/// base's pooled context — which is the point of the Fig. 6 m% sweeps.
/// The first call on a base pays the one full build; every prefix view
/// after it builds nothing.
ArspResult RunAlgoOnHandle(const std::string& algo, DatasetHandle handle,
                           const PreferenceRegion& region,
                           const WeightRatioConstraints* wr = nullptr);

/// Creates a configured solver or aborts — benchmark setup is trusted code.
std::unique_ptr<ArspSolver> MustCreate(const std::string& algo,
                                       const SolverOptions& options = {});

/// Solves or aborts; for drivers that reuse one solver/context pair.
ArspResult MustSolve(ArspSolver& solver, ExecutionContext& context);

/// Global sweep scale from ARSP_BENCH_SCALE (default 1.0, min 0.01).
double Scale();

/// m scaled by ARSP_BENCH_SCALE and rounded to at least 16.
int ScaledM(int base);

/// Synthetic dataset per the paper's §V-A procedure with benchmark seeds.
UncertainDataset MakeSynthetic(Distribution dist, int num_objects, int cnt,
                               int dim, double l, double phi);

/// The WR preference region with c constraints in d dimensions.
PreferenceRegion MakeWrRegion(int dim, int c);

/// The IM preference region with c constraints in d dimensions (fixed seed).
PreferenceRegion MakeImRegion(int dim, int c, uint64_t seed = 12345);

/// Label like "Fig5a/IND/KDTT+/m=512".
std::string Label(const std::string& panel, const std::string& series,
                  const std::string& point);

/// Shared driver entry point: every bench/*.cc main() is
/// `RegisterAll(); return bench_util::BenchMain(argc, argv);`.
///
/// On top of the standard Google Benchmark flags it adds a machine-readable
/// export for the CI perf gate: `--json PATH` (or `--json=PATH`, or the
/// ARSP_BENCH_JSON environment variable) writes one line of JSON per
/// completed benchmark in the stable "arsp-bench-v1" schema that
/// tools/bench_diff.cc consumes:
///
///   {"schema":"arsp-bench-v1","arch":"avx2","scale":1,"git_rev":"..."}
///   {"name":"...","ns_per_op":1234.5,"iterations":1,
///    "counters":{"n":100,"exact_evals":42}}
///
/// The header line records the kernel dispatch arch (simd::ActiveArchName),
/// ARSP_BENCH_SCALE, and the git revision from ARSP_GIT_REV (or "unknown").
/// Skipped/errored benchmarks are not exported. Console output is
/// unaffected; the flag is stripped before benchmark::Initialize.
int BenchMain(int argc, char** argv);

}  // namespace bench_util
}  // namespace arsp

#endif  // ARSP_BENCH_BENCH_UTIL_H_
