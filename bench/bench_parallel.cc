// Copyright 2026 The ARSP Authors.
//
// Intra-query parallel executor bench: serial vs 8-worker solves of the
// same query, exported as BENCH_parallel.json for the CI perf gate.
//
//   Parallel/NBA/SerialVs8    — the Fig. 6 NBA-like configuration (d = 4,
//     c = 3), the solver-hot-path workload bench_kernels gates.
//   Parallel/Scale/SerialVs8  — bench_scale's synthetic dataset (~100K
//     instances at ARSP_BENCH_SCALE=1; =100 is the paper-scale 10M run).
//
// Each entry runs both modes back to back and exports:
//   * serial_ns / parallel_ns — self-measured timings (bench_diff's
//     "_ns" gate: calibration-normalized, regressions fail, improvements
//     pass — so a 1-core-measured parallel_ns baseline stays green on
//     machines with real parallelism);
//   * exact counters (arsp_size, dominance_tests, tasks_spawned,
//     parallel_workers) — deterministic by the merge contract, gated for
//     equality; the bench itself also CHECKs the parallel probability
//     vector is memcmp-identical to the serial one;
//   * steals_info — scheduling-dependent steal count, exported ungated.
//
// The core budget is pinned to 8 (SetCoreBudgetTotalForTesting) so the
// executor always gets 8 workers regardless of the host's core count —
// counters stay machine-independent, and on a small CI box the parallel
// timing is an honest oversubscribed run (see ARCHITECTURE.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/common/task_arena.h"
#include "src/core/solver.h"
#include "src/uncertain/dataset_view.h"

namespace arsp {
namespace {

using bench_util::MakeWrRegion;
using bench_util::MustCreate;
using bench_util::MustSolve;
using bench_util::ScaledM;

constexpr int kWorkers = 8;

// Serially dependent xorshift64 chain — the same calibration entry every
// gated export carries (bench_diff normalizes ns/op ratios by it).
void BM_Calibrate_Xorshift64(benchmark::State& state) {
  uint64_t x = 88172645463325252ull;
  for (auto _ : state) {
    for (int i = 0; i < (1 << 16); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Calibrate_Xorshift64);

// The Fig. 6 NBA-like configuration (bench_kernels' hot-path workload).
const UncertainDataset& NbaDataset() {
  static const auto* dataset =
      new UncertainDataset(GenerateNbaLike(ScaledM(250), 4, 1003, nullptr));
  return *dataset;
}

// bench_scale's dataset: ~100K instances at scale 1, 10M at scale 100.
const UncertainDataset& ScaleDataset() {
  static const auto* dataset = new UncertainDataset(bench_util::MakeSynthetic(
      Distribution::kIndependent, ScaledM(2000), 50, 3, 0.2, 0.0));
  return *dataset;
}

double NsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One serial + one kWorkers solve per iteration over a prebuilt context;
// exports the per-mode minimum (the exporter's noise-robust collapse) and
// CHECKs bit-identity every iteration.
void RunSerialVsParallel(benchmark::State& state,
                         const UncertainDataset& dataset, int c) {
  const PreferenceRegion region = MakeWrRegion(dataset.dim(), c);
  ExecutionContext context(dataset, region);
  auto serial_solver = MustCreate("kdtt+");
  auto parallel_solver = MustCreate(
      "kdtt+", SolverOptions().SetInt("parallelism", kWorkers));
  double serial_ns = std::numeric_limits<double>::infinity();
  double parallel_ns = std::numeric_limits<double>::infinity();
  ArspResult serial_result, parallel_result;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    serial_result = MustSolve(*serial_solver, context);
    const auto t1 = std::chrono::steady_clock::now();
    parallel_result = MustSolve(*parallel_solver, context);
    serial_ns = std::min(
        serial_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
    parallel_ns = std::min(parallel_ns, NsSince(t1));
    // The deterministic-merge contract, enforced in the loop: the parallel
    // probability vector is bitwise the serial one.
    ARSP_CHECK_MSG(
        serial_result.instance_probs.size() ==
                parallel_result.instance_probs.size() &&
            std::memcmp(serial_result.instance_probs.data(),
                        parallel_result.instance_probs.data(),
                        serial_result.instance_probs.size() *
                            sizeof(double)) == 0,
        "parallel result diverged from serial");
    benchmark::DoNotOptimize(parallel_result.instance_probs.data());
  }
  state.counters["n"] = static_cast<double>(dataset.num_instances());
  state.counters["m"] = static_cast<double>(dataset.num_objects());
  state.counters["arsp_size"] =
      static_cast<double>(CountNonZero(parallel_result));
  state.counters["dominance_tests"] =
      static_cast<double>(serial_result.dominance_tests);
  state.counters["tasks_spawned"] =
      static_cast<double>(parallel_result.tasks_spawned);
  state.counters["parallel_workers"] =
      static_cast<double>(parallel_result.parallel_workers);
  // Scheduling-dependent; the "_info" suffix exempts it from the gate.
  state.counters["steals_info"] =
      static_cast<double>(parallel_result.tasks_stolen);
  state.counters["serial_ns"] = serial_ns;
  state.counters["parallel_ns"] = parallel_ns;
}

void BM_Parallel_Nba(benchmark::State& state) {
  RunSerialVsParallel(state, NbaDataset(), 3);
}
BENCHMARK(BM_Parallel_Nba)->Name("Parallel/NBA/SerialVs8")
    ->Unit(benchmark::kMillisecond);

void BM_Parallel_Scale(benchmark::State& state) {
  RunSerialVsParallel(state, ScaleDataset(), 2);
}
BENCHMARK(BM_Parallel_Scale)->Name("Parallel/Scale/SerialVs8")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace arsp

int main(int argc, char** argv) {
  // Pin the budget so the executor always gets kWorkers workers: counters
  // stay machine-independent and the parallel timing is honest even when
  // the host has fewer cores (oversubscribed, never silently serial).
  arsp::internal::SetCoreBudgetTotalForTesting(arsp::kWorkers);
  return arsp::bench_util::BenchMain(argc, argv);
}
