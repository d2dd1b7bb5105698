// Copyright 2026 The ARSP Authors.
//
// The perf-trajectory driver behind BENCH_solver_hotpath.json: SIMD kernel
// microbenchmarks (src/simd/) plus the solver hot path those kernels feed,
// on the Fig. 6 NBA-like configuration. CI regenerates this driver's --json
// export every run and feeds it to tools/bench_diff.cc against the
// committed baseline; see ARCHITECTURE.md ("SIMD kernel layer") for how to
// regenerate the baseline after an intentional perf change.
//
// The exported entries fall in three groups:
//   Calibrate/* — a serial scalar workload (xorshift chain) that measures
//     raw machine speed; bench_diff normalizes every ns/op ratio by it so
//     the gate compares shapes, not absolute container speed.
//   Kernel/*    — each simd kernel on fixed-size streams, through the
//     active dispatch table (ARSP_KERNEL overrides).
//   Hotpath/*   — whole solves on the Fig. 6 NBA config, plus the
//     weight-ratio top-10 on CAR-like data that `auto` routes, exporting
//     the deterministic work counters (dominance_tests, nodes_visited,
//     arsp_size) that bench_diff checks for exact equality.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/aligned.h"
#include "src/common/rng.h"
#include "src/simd/kernels.h"
#include "src/uncertain/generators.h"

namespace arsp {
namespace {

using bench_util::AlgoName;
using bench_util::MakeWrRegion;
using bench_util::RunAlgo;
using bench_util::ScaledM;

// The solvers whose hot loops run through the kernel layer (LOOP is
// deliberately absent: it is unkerneled, quadratic, and would dominate the
// CI gate's runtime while measuring nothing about this layer).
constexpr const char* kKernelizedAlgos[] = {"kdtt", "kdtt+", "qdtt+", "mwtt",
                                            "bnb"};

// ------------------------------------------------------------- calibration

// Serially dependent xorshift64 chain: the compiler cannot vectorize or
// reassociate it, so its ns/op tracks scalar core speed on any machine and
// any dispatch arch. bench_diff divides every other entry's ns/op by this
// one before comparing against the baseline.
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

// ---------------------------------------------------------- kernel streams

constexpr int kStreamRows = 4096;  // instances per synthetic stream
constexpr int kStreamDim = 4;      // the Fig. 6 NBA mapped dimensionality

AlignedVector<double> RandomStream(int count, uint64_t seed) {
  Rng rng(seed);
  AlignedVector<double> out(static_cast<size_t>(count));
  for (double& v : out) v = rng.Uniform(0.0, 1.0);
  return out;
}

const AlignedVector<double>& Coords() {
  static const auto* coords =
      new AlignedVector<double>(RandomStream(kStreamRows * kStreamDim, 17));
  return *coords;
}

const std::vector<int>& Ids() {
  static const auto* ids = new std::vector<int>([] {
    std::vector<int> v(kStreamRows);
    for (int i = 0; i < kStreamRows; ++i) v[static_cast<size_t>(i)] = i;
    return v;
  }());
  return *ids;
}

void BM_Kernel_MapPoint(benchmark::State& state) {
  // d = 8 data dimensions onto d' = 4 region vertices, one call per point —
  // the shape MapViewInto issues (input points are not contiguous).
  constexpr int kDataDim = 8;
  const AlignedVector<double> points =
      RandomStream(kStreamRows * kDataDim, 29);
  const AlignedVector<double> vt = RandomStream(kDataDim * kStreamDim, 31);
  AlignedVector<double> out(kStreamDim);
  for (auto _ : state) {
    for (int i = 0; i < kStreamRows; ++i) {
      simd::Ops().MapPoint(points.data() + i * kDataDim, kDataDim, vt.data(),
                           kStreamDim, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Kernel_MapPoint);

void BM_Kernel_DominanceCount(benchmark::State& state) {
  const AlignedVector<double> q = RandomStream(kStreamDim, 37);
  for (auto _ : state) {
    const int count = simd::Ops().DominanceCount(Coords().data(), kStreamRows,
                                                 kStreamDim, q.data());
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_Kernel_DominanceCount);

void BM_Kernel_DominatedMask(benchmark::State& state) {
  const AlignedVector<double> q = RandomStream(kStreamDim, 41);
  std::vector<unsigned char> mask(kStreamRows);
  for (auto _ : state) {
    simd::Ops().DominatedMask(Coords().data(), kStreamRows, kStreamDim,
                              q.data(), mask.data());
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_Kernel_DominatedMask);

void BM_Kernel_AnyRowDominates(benchmark::State& state) {
  // Worst case: the query dominates every row, so no row ever dominates it
  // and the scan never exits early.
  const AlignedVector<double> q(kStreamDim, -1.0);
  for (auto _ : state) {
    const bool any = simd::Ops().AnyRowDominates(Coords().data(), kStreamRows,
                                                 kStreamDim, q.data());
    benchmark::DoNotOptimize(any);
  }
}
BENCHMARK(BM_Kernel_AnyRowDominates);

void BM_Kernel_ClassifyCorners(benchmark::State& state) {
  const AlignedVector<double> pmin(kStreamDim, 0.3);
  const AlignedVector<double> pmax(kStreamDim, 0.7);
  std::vector<unsigned char> classes(kStreamRows);
  for (auto _ : state) {
    simd::Ops().ClassifyCorners(Coords().data(), kStreamDim, Ids().data(),
                                kStreamRows, pmin.data(), pmax.data(),
                                classes.data());
    benchmark::DoNotOptimize(classes.data());
  }
}
BENCHMARK(BM_Kernel_ClassifyCorners);

// The traversal's filter on the same stream and corners as
// BM_Kernel_ClassifyCorners: both corner tests per row, each id written
// straight into its list.
void BM_Kernel_FilterCandidates(benchmark::State& state) {
  const AlignedVector<double> pmin(kStreamDim, 0.3);
  const AlignedVector<double> pmax(kStreamDim, 0.7);
  std::vector<int> kept(kStreamRows);
  std::vector<int> adds(kStreamRows);
  for (auto _ : state) {
    const simd::FilterCounts counts = simd::Ops().FilterCandidates(
        Coords().data(), kStreamDim, Ids().data(), kStreamRows, pmin.data(),
        pmax.data(), kept.data(), adds.data());
    benchmark::DoNotOptimize(counts);
    benchmark::DoNotOptimize(kept.data());
    benchmark::DoNotOptimize(adds.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Kernel_FilterCandidates);

void BM_Kernel_ScoreCorners(benchmark::State& state) {
  for (auto _ : state) {
    AlignedVector<double> pmin(kStreamDim, 1e300);
    AlignedVector<double> pmax(kStreamDim, -1e300);
    simd::Ops().ScoreCorners(Coords().data(), kStreamDim, Ids().data(),
                             kStreamRows, pmin.data(), pmax.data());
    benchmark::DoNotOptimize(pmin.data());
    benchmark::DoNotOptimize(pmax.data());
  }
}
BENCHMARK(BM_Kernel_ScoreCorners);

// ------------------------------------------------- solver hot path (Fig. 6)

// The Fig. 6 NBA-like configuration: d = 4 player stats under the WR region
// with c = 3 constraints. Cold solves (no pooling, no cache) — exactly what
// the kernels accelerate end to end.
const UncertainDataset& NbaDataset() {
  static const auto* dataset =
      new UncertainDataset(GenerateNbaLike(ScaledM(250), 4, 1003, nullptr));
  return *dataset;
}

// Deterministic work counters: bench_diff requires these to match the
// committed baseline exactly (a drifted counter means the algorithm
// changed, not just the machine).
void ExportWorkCounters(benchmark::State& state,
                        const UncertainDataset& dataset,
                        const ArspResult& result) {
  state.counters["n"] = static_cast<double>(dataset.num_instances());
  state.counters["m"] = static_cast<double>(dataset.num_objects());
  state.counters["arsp_size"] = static_cast<double>(CountNonZero(result));
  state.counters["dominance_tests"] =
      static_cast<double>(result.dominance_tests);
  state.counters["nodes_visited"] = static_cast<double>(result.nodes_visited);
}

void RunHotpath(benchmark::State& state, const std::string& algo) {
  const UncertainDataset& dataset = NbaDataset();
  const PreferenceRegion region = MakeWrRegion(dataset.dim(), 3);
  ArspResult result;
  for (auto _ : state) {
    result = RunAlgo(algo, dataset, region);
    benchmark::DoNotOptimize(result.instance_probs.data());
  }
  ExportWorkCounters(state, dataset, result);
}

// ------------------------------------- weight-ratio top-10 (auto's choice)

// The serving benchmark's personal_topk shape: CAR-like data (m = 200,
// d = 4, generator seed 1) and a cold top-10 under real
// WeightRatioConstraints, so DUAL runs its own ratio geometry instead of
// the WR region. The ranges sit at the middle of that workload's draws
// (l = 0.65, h = 2.25·l). DUAL is the paper's choice for such queries
// (§V); KDTT+ is what `auto` picks.
const UncertainDataset& CarDataset() {
  static const auto* dataset =
      new UncertainDataset(GenerateCarLike(ScaledM(200), 1));
  return *dataset;
}

void RunCarWr(benchmark::State& state, const std::string& algo) {
  const UncertainDataset& dataset = CarDataset();
  auto wr = WeightRatioConstraints::Create(
      std::vector<std::pair<double, double>>(3, {0.65, 1.4625}));
  ARSP_CHECK(wr.ok());
  QueryRequest request;
  request.dataset = bench_util::SharedHandle(dataset);
  request.constraints = ConstraintSpec::WeightRatios(*wr);
  request.solver = algo;
  request.derived.kind = DerivedKind::kTopKObjects;
  request.derived.k = 10;
  request.use_cache = false;
  request.pool_context = false;
  std::shared_ptr<const ArspResult> result;
  for (auto _ : state) {
    StatusOr<QueryResponse> response =
        bench_util::SharedEngine().Solve(request);
    ARSP_CHECK_MSG(response.ok(), "%s", response.status().ToString().c_str());
    result = response->result;
    benchmark::DoNotOptimize(result.get());
  }
  ExportWorkCounters(state, dataset, *result);
}

void RegisterHotpath() {
  for (const char* algo : kKernelizedAlgos) {
    benchmark::RegisterBenchmark(
        ("Hotpath/NBA/" + AlgoName(algo)).c_str(),
        [algo = std::string(algo)](benchmark::State& state) {
          RunHotpath(state, algo);
        })
        ->Unit(benchmark::kMillisecond);
  }
  for (const char* algo : {"dual", "kdtt+"}) {
    benchmark::RegisterBenchmark(
        ("Hotpath/CAR-wr/" + AlgoName(algo)).c_str(),
        [algo = std::string(algo)](benchmark::State& state) {
          RunCarWr(state, algo);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace arsp

int main(int argc, char** argv) {
  arsp::RegisterHotpath();
  return arsp::bench_util::BenchMain(argc, argv);
}
