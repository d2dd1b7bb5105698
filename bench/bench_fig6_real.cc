// Copyright 2026 The ARSP Authors.
//
// Fig. 6: ARSP algorithms on the simulated real datasets.
//   (a) IIP-like, vary m% of 19,668 single-instance records (ϕ = 1: B&B's
//       pruning set stays empty and it degenerates toward LOOP, the paper's
//       observation);
//   (b) CAR-like, vary m% of the model count;
//   (c) NBA-like, vary m% of the player count;
//   (d) NBA-like, vary d ∈ 2..8;
//   (e) NBA-like, vary c ∈ 1..7.
// Simulators replace the proprietary datasets — see ARCHITECTURE.md,
// "Deviations from the paper".

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace arsp {
namespace {

using bench_util::AlgoCaps;
using bench_util::AlgoName;
using bench_util::kLinearAlgos;
using bench_util::MakeWrRegion;
using bench_util::RunAlgo;
using bench_util::RunAlgoOnHandle;
using bench_util::Scale;
using bench_util::SharedEngine;
using bench_util::SharedPrefixHandle;

// Base cardinalities, scaled down from the real datasets' sizes
// (IIP 19,668 records; CAR 184,810 cars; NBA 354,698 records of 1,878
// players) to container scale. ARSP_BENCH_SCALE grows them.
int IipRecords() { return std::max(200, static_cast<int>(8000 * Scale())); }
int CarModels() { return std::max(50, static_cast<int>(600 * Scale())); }
int NbaPlayers() { return std::max(30, static_cast<int>(250 * Scale())); }

const UncertainDataset& IipFull() {
  static const UncertainDataset dataset = GenerateIipLike(IipRecords(), 1001);
  return dataset;
}
const UncertainDataset& CarFull() {
  static const UncertainDataset dataset = GenerateCarLike(CarModels(), 1002);
  return dataset;
}
UncertainDataset NbaFull(int dim) {
  return GenerateNbaLike(NbaPlayers(), dim, 1003, nullptr);
}
// The m% panel shares one engine-registered dataset across all prefixes
// (views need the base to stay alive), so d=4 NBA data is a static here.
const UncertainDataset& NbaFull4() {
  static const UncertainDataset dataset = NbaFull(4);
  return dataset;
}

void RunCase(benchmark::State& state, const UncertainDataset& dataset, int c,
             const std::string& algo) {
  if ((AlgoCaps(algo) & kCapQuadraticTime) != 0 &&
      dataset.num_instances() > 20000) {
    state.SkipWithError(
        "quadratic solver over 20K instances exceeds the harness budget");
    return;
  }
  const PreferenceRegion region = MakeWrRegion(dataset.dim(), c);
  int arsp_size = 0;
  for (auto _ : state) {
    const ArspResult result = RunAlgo(algo, dataset, region);
    arsp_size = CountNonZero(result);
    benchmark::DoNotOptimize(arsp_size);
  }
  state.counters["n"] = dataset.num_instances();
  state.counters["m"] = dataset.num_objects();
  state.counters["arsp_size"] = arsp_size;
}

// The m% panels run on engine-held prefix views instead of TakeObjects
// copies: no instance payloads are duplicated, and the view queries share
// the base dataset's pooled artifacts, so one sweep performs a single full
// index build / SV(·) mapping — the cost model the paper's Fig. 6
// actually varies.
void RunPrefixCase(benchmark::State& state, const UncertainDataset& full,
                   int pct, int c, const std::string& algo) {
  const int count = std::max(1, full.num_objects() * pct / 100);
  const DatasetHandle handle = SharedPrefixHandle(full, count);
  const DatasetView view = SharedEngine().view(handle);
  if ((AlgoCaps(algo) & kCapQuadraticTime) != 0 &&
      view.num_instances() > 20000) {
    state.SkipWithError(
        "quadratic solver over 20K instances exceeds the harness budget");
    return;
  }
  const PreferenceRegion region = MakeWrRegion(view.dim(), c);
  int arsp_size = 0;
  for (auto _ : state) {
    const ArspResult result = RunAlgoOnHandle(algo, handle, region);
    arsp_size = CountNonZero(result);
    benchmark::DoNotOptimize(arsp_size);
  }
  state.counters["n"] = view.num_instances();
  state.counters["m"] = view.num_objects();
  state.counters["arsp_size"] = arsp_size;
}

void RegisterAll() {
  // ---- Fig. 6 (a): IIP-like, vary m% (engine-held prefix views).
  for (int pct : {20, 40, 60, 80, 100}) {
    for (const char* algo : kLinearAlgos) {
      benchmark::RegisterBenchmark(
          ("Fig6a_IIP/m%=" + std::to_string(pct) + "/" + AlgoName(algo)).c_str(),
          [pct, algo = std::string(algo)](benchmark::State& state) {
            RunPrefixCase(state, IipFull(), pct, 1, algo);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  // ---- Fig. 6 (b): CAR-like, vary m% (engine-held prefix views).
  for (int pct : {20, 40, 60, 80, 100}) {
    for (const char* algo : kLinearAlgos) {
      benchmark::RegisterBenchmark(
          ("Fig6b_CAR/m%=" + std::to_string(pct) + "/" + AlgoName(algo)).c_str(),
          [pct, algo = std::string(algo)](benchmark::State& state) {
            RunPrefixCase(state, CarFull(), pct, 3, algo);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  // ---- Fig. 6 (c): NBA-like (d=4), vary m% (engine-held prefix views).
  for (int pct : {20, 40, 60, 80, 100}) {
    for (const char* algo : kLinearAlgos) {
      benchmark::RegisterBenchmark(
          ("Fig6c_NBA/m%=" + std::to_string(pct) + "/" + AlgoName(algo)).c_str(),
          [pct, algo = std::string(algo)](benchmark::State& state) {
            RunPrefixCase(state, NbaFull4(), pct, 3, algo);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  // ---- Fig. 6 (d): NBA-like, vary d.
  for (int d : {2, 3, 4, 5, 6, 8}) {
    for (const char* algo : kLinearAlgos) {
      benchmark::RegisterBenchmark(
          ("Fig6d_NBA/d=" + std::to_string(d) + "/" + AlgoName(algo)).c_str(),
          [d, algo = std::string(algo)](benchmark::State& state) {
            RunCase(state, NbaFull(d), d - 1, algo);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  // ---- Fig. 6 (e): NBA-like (d=8), vary c.
  for (int c : {1, 3, 5, 7}) {
    for (const char* algo : kLinearAlgos) {
      benchmark::RegisterBenchmark(
          ("Fig6e_NBA/c=" + std::to_string(c) + "/" + AlgoName(algo)).c_str(),
          [c, algo = std::string(algo)](benchmark::State& state) {
            RunCase(state, NbaFull(8), c, algo);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace arsp

int main(int argc, char** argv) {
  arsp::RegisterAll();
  return arsp::bench_util::BenchMain(argc, argv);
}
