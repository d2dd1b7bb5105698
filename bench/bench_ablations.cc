// Copyright 2026 The ARSP Authors.
//
// Ablation benchmarks for this repo's design choices (ARCHITECTURE.md):
//   * ENUM's exponential blow-up (why the paper's Fig. 5 reports INF),
//   * Theorem-5 O(d) F-dominance test vs the Theorem-2 vertex test,
//   * KDTT+ fused construction vs KDTT build-then-traverse,
//   * the §III-B space-partitioning remark (KDTT+ / QDTT+ / MWTT fan-outs),
//   * B&B with and without the Theorem-3/4 pruning set,
//   * R-tree fan-out sensitivity of B&B,
//   * empirical scaling on the Theorem-1 OV reduction instances (the
//     quadratic hardness wall).
//
// Every ARSP run goes through the SolverRegistry: the ablation axes are
// registry names (KDTT versus KDTT+) and the solvers' typed options
// (fanout, pruning, rtree_fanout), not separate entry points.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/ov_reduction.h"
#include "src/core/solver.h"
#include "src/prefs/fdominance.h"

namespace arsp {
namespace {

using bench_util::MakeSynthetic;
using bench_util::MakeWrRegion;
using bench_util::MustCreate;
using bench_util::MustSolve;

// ---- ENUM blow-up: doubling m multiplies worlds by cnt+1. -----------------
void BM_EnumBlowup(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const UncertainDataset dataset = MakeSynthetic(
      Distribution::kIndependent, m, 3, 2, 0.2, 0.0);
  const PreferenceRegion region = MakeWrRegion(2, 1);
  const auto solver =
      MustCreate("enum", SolverOptions().SetDouble("max_worlds", 1e9));
  ExecutionContext context(dataset, region);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountNonZero(MustSolve(*solver, context)));
  }
  state.counters["worlds"] = dataset.NumPossibleWorlds();
}
BENCHMARK(BM_EnumBlowup)->DenseRange(4, 14, 2)->Unit(benchmark::kMillisecond);

// ---- F-dominance test cost: Theorem 2 vs Theorem 5. -----------------------
void BM_FDominanceVertexTest(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<std::pair<double, double>> ranges;
  for (int i = 0; i < d - 1; ++i) ranges.emplace_back(0.5, 2.0);
  const auto wr = WeightRatioConstraints::Create(ranges).value();
  const PreferenceRegion region = PreferenceRegion::FromWeightRatios(wr);
  std::vector<Point> pts;
  for (int i = 0; i < 1024; ++i) {
    Point p(d);
    for (int k = 0; k < d; ++k) p[k] = rng.Uniform01();
    pts.push_back(std::move(p));
  }
  size_t i = 0;
  for (auto _ : state) {
    const bool dom = FDominatesVertex(pts[i % 1024], pts[(i + 7) % 1024],
                                      region.vertices());
    benchmark::DoNotOptimize(dom);
    ++i;
  }
  state.counters["vertices"] = region.num_vertices();
}
BENCHMARK(BM_FDominanceVertexTest)->DenseRange(2, 8, 2);

void BM_FDominanceRatioTest(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<std::pair<double, double>> ranges;
  for (int i = 0; i < d - 1; ++i) ranges.emplace_back(0.5, 2.0);
  const auto wr = WeightRatioConstraints::Create(ranges).value();
  std::vector<Point> pts;
  for (int i = 0; i < 1024; ++i) {
    Point p(d);
    for (int k = 0; k < d; ++k) p[k] = rng.Uniform01();
    pts.push_back(std::move(p));
  }
  size_t i = 0;
  for (auto _ : state) {
    const bool dom =
        FDominatesWeightRatio(pts[i % 1024], pts[(i + 7) % 1024], wr);
    benchmark::DoNotOptimize(dom);
    ++i;
  }
}
BENCHMARK(BM_FDominanceRatioTest)->DenseRange(2, 8, 2);

// ---- KDTT construction fusion ablation. -----------------------------------
void BM_KdttConstruction(benchmark::State& state) {
  const bool integrated = state.range(0) == 1;
  // CORR data prunes aggressively near the origin — the regime where fusing
  // construction with traversal pays (paper Fig. 5c).
  const UncertainDataset dataset = MakeSynthetic(
      Distribution::kCorrelated, bench_util::ScaledM(512), 20, 4, 0.2, 0.0);
  const PreferenceRegion region = MakeWrRegion(4, 3);
  const auto solver = MustCreate(integrated ? "kdtt+" : "kdtt");
  ExecutionContext context(dataset, region);
  int64_t nodes = 0;
  for (auto _ : state) {
    const ArspResult result = MustSolve(*solver, context);
    nodes = result.nodes_visited;
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes_visited"] = static_cast<double>(nodes);
  state.SetLabel(integrated ? "KDTT+ (fused)" : "KDTT (build-then-traverse)");
}
BENCHMARK(BM_KdttConstruction)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ---- Space-partitioning tree ablation: the §III-B remark. ------------------
// KDTT+ (binary kd splits) vs QDTT+ (quadrants) vs MWTT fan-out sweep, all
// as registered solvers sharing one ExecutionContext per workload.
void BM_PartitioningTree(benchmark::State& state, const std::string& algo,
                         const SolverOptions& options,
                         const std::string& label) {
  const UncertainDataset dataset = MakeSynthetic(
      Distribution::kIndependent, bench_util::ScaledM(512), 20, 4, 0.2, 0.0);
  const PreferenceRegion region = MakeWrRegion(4, 3);
  const auto solver = MustCreate(algo, options);
  ExecutionContext context(dataset, region);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountNonZero(MustSolve(*solver, context)));
  }
  state.SetLabel(label);
}

void RegisterPartitioningTree() {
  benchmark::RegisterBenchmark(
      "BM_PartitioningTree/kdtt+", [](benchmark::State& state) {
        BM_PartitioningTree(state, "kdtt+", {}, "KDTT+ (binary kd)");
      })->Unit(benchmark::kMillisecond)->Iterations(1);
  benchmark::RegisterBenchmark(
      "BM_PartitioningTree/qdtt+", [](benchmark::State& state) {
        BM_PartitioningTree(state, "qdtt+", {}, "QDTT+ (quadrants)");
      })->Unit(benchmark::kMillisecond)->Iterations(1);
  for (int fanout : {4, 8, 16, 64}) {
    benchmark::RegisterBenchmark(
        ("BM_PartitioningTree/mwtt_fanout=" + std::to_string(fanout)).c_str(),
        [fanout](benchmark::State& state) {
          BM_PartitioningTree(state, "mwtt",
                              SolverOptions().SetInt("fanout", fanout),
                              "MWTT fanout=" + std::to_string(fanout));
        })->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

// ---- B&B pruning-set ablation. ---------------------------------------------
void BM_BnbPruning(benchmark::State& state) {
  const bool pruning = state.range(0) == 1;
  const UncertainDataset dataset = MakeSynthetic(
      Distribution::kIndependent, bench_util::ScaledM(512), 20, 4, 0.2, 0.0);
  const PreferenceRegion region = MakeWrRegion(4, 3);
  const auto solver =
      MustCreate("bnb", SolverOptions().SetBool("pruning", pruning));
  ExecutionContext context(dataset, region);
  int64_t pruned = 0;
  for (auto _ : state) {
    const ArspResult result = MustSolve(*solver, context);
    pruned = result.nodes_pruned;
    benchmark::DoNotOptimize(pruned);
  }
  state.counters["pruned"] = static_cast<double>(pruned);
  state.SetLabel(pruning ? "with Theorem-3/4 pruning" : "pruning disabled");
}
BENCHMARK(BM_BnbPruning)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ---- B&B R-tree fan-out sensitivity. ----------------------------------------
void BM_BnbFanout(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  const UncertainDataset dataset = MakeSynthetic(
      Distribution::kIndependent, bench_util::ScaledM(256), 10, 4, 0.2, 0.0);
  const PreferenceRegion region = MakeWrRegion(4, 3);
  const auto solver =
      MustCreate("bnb", SolverOptions().SetInt("rtree_fanout", fanout));
  ExecutionContext context(dataset, region);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountNonZero(MustSolve(*solver, context)));
  }
}
BENCHMARK(BM_BnbFanout)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// ---- Goal pushdown ablation: bound-based pruning vs post-hoc slicing. -------
// Objects with Pr_rsky >= 0.5 on the Fig. 6 NBA-like config, answered by
// KDTT+ through the engine with goal pushdown on vs off. Threshold is the
// only goal that pushes down (top-k and count-controlled queries always
// slice a full solve). Context pooling is on and result caching off, so
// iterations measure the warm solve the goal actually changes.
void BM_GoalPushdown(benchmark::State& state) {
  const bool pushdown = state.range(0) == 1;
  static const UncertainDataset& dataset = *new UncertainDataset(
      GenerateNbaLike(bench_util::ScaledM(250), 4, 1003, nullptr));
  QueryRequest request;
  request.dataset = bench_util::SharedHandle(dataset);
  request.constraints = ConstraintSpec::Region(MakeWrRegion(4, 3));
  request.solver = "kdtt+";
  request.use_cache = false;
  request.allow_pushdown = pushdown;
  request.derived.kind = DerivedKind::kObjectsAboveThreshold;
  request.derived.threshold = 0.5;
  int64_t refinements = 0;
  int64_t objects_pruned = 0;
  for (auto _ : state) {
    auto response = bench_util::SharedEngine().Solve(request);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    refinements = response->stats.bound_refinements;
    objects_pruned = response->stats.objects_pruned;
    benchmark::DoNotOptimize(response->ranked);
  }
  state.counters["bound_refinements"] = static_cast<double>(refinements);
  state.counters["objects_pruned"] = static_cast<double>(objects_pruned);
  state.counters["n"] = dataset.num_instances();
  state.SetLabel(pushdown ? "threshold>=0.5 / pushdown"
                          : "threshold>=0.5 / post-hoc");
}
BENCHMARK(BM_GoalPushdown)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- OV hardness wall: the Theorem-1 reduction instances. -------------------
void BM_OvReductionScaling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = 8;  // c log n flavour
  const OvInstance ov = MakeRandomOvInstance(n, d, 0.5, 99);
  const UncertainDataset dataset = BuildOvDataset(ov);
  const PreferenceRegion region = PreferenceRegion::FullSimplex(d);
  const auto solver = MustCreate("kdtt+");
  ExecutionContext context(dataset, region);
  bool found = false;
  for (auto _ : state) {
    const ArspResult result = MustSolve(*solver, context);
    found = OvPairExists(result, dataset);
    benchmark::DoNotOptimize(found);
  }
  state.counters["n"] = n;
  state.counters["pair_found"] = found ? 1 : 0;
}
BENCHMARK(BM_OvReductionScaling)->RangeMultiplier(2)->Range(256, 4096)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace arsp

int main(int argc, char** argv) {
  arsp::RegisterPartitioningTree();
  return arsp::bench_util::BenchMain(argc, argv);
}
