// Copyright 2026 The ARSP Authors.
//
// Fig. 7 (b): the specialized d = 2 DUAL-MS structure versus KDTT+ on the
// IIP-like dataset under weight ratio constraints, varying m%. Reported per
// point:
//   * DUAL-MS query time (the benchmark's wall time),
//   * preprocess_s — the quadratic preprocessing cost (counter, seconds),
//   * index_mib    — the quadratic memory cost (counter),
//   * the KDTT+ time for the same query as a separate series (KDTT+ gets a
//     zero-skyline-probability prefilter, matching the paper's setup).
// The paper's conclusion to reproduce: queries become faster than KDTT+,
// but preprocessing time and memory are orders of magnitude larger.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/core/dual2d_ms.h"
#include "src/core/skyline_probability.h"
#include "src/core/solver.h"
#include "src/prefs/preference_region.h"

namespace arsp {
namespace {

using bench_util::Scale;

int IipRecords() { return std::max(200, static_cast<int>(4000 * Scale())); }

const UncertainDataset& IipFull() {
  static const UncertainDataset dataset = GenerateIipLike(IipRecords(), 77);
  return dataset;
}

// Shared per-m% preprocessing so the build cost is paid once per subset and
// reported as a counter. Prefixes are zero-copy DatasetViews over the full
// dataset — only the quadratic angular index itself is materialized.
struct PreparedIndex {
  DatasetView subset;
  std::unique_ptr<Dual2dMs> index;
  double preprocess_seconds = 0.0;
};

DatasetView PrefixView(int pct) {
  auto view = DatasetView::Create(
      IipFull(), std::max(1, IipFull().num_objects() * pct / 100));
  ARSP_CHECK_MSG(view.ok(), "%s", view.status().ToString().c_str());
  return std::move(view).value();
}

PreparedIndex* Prepare(int pct) {
  static std::map<int, std::unique_ptr<PreparedIndex>> cache;
  auto it = cache.find(pct);
  if (it != cache.end()) return it->second.get();
  auto prepared = std::make_unique<PreparedIndex>();
  prepared->subset = PrefixView(pct);
  Stopwatch sw;
  auto built = Dual2dMs::Build(prepared->subset);
  ARSP_CHECK_MSG(built.ok(), "%s", built.status().ToString().c_str());
  prepared->preprocess_seconds = sw.ElapsedSeconds();
  prepared->index = std::make_unique<Dual2dMs>(std::move(built).value());
  return cache.emplace(pct, std::move(prepared)).first->second.get();
}

void BM_DualMsQuery(benchmark::State& state, int pct) {
  PreparedIndex* prepared = Prepare(pct);
  int arsp_size = 0;
  for (auto _ : state) {
    const ArspResult result = prepared->index->Query(0.5, 2.0);
    arsp_size = CountNonZero(result);
    benchmark::DoNotOptimize(arsp_size);
  }
  state.counters["n"] = prepared->subset.num_instances();
  state.counters["arsp_size"] = arsp_size;
  state.counters["preprocess_s"] = prepared->preprocess_seconds;
  state.counters["index_mib"] =
      static_cast<double>(prepared->index->MemoryBytes()) / (1 << 20);
}

void BM_KdttPlusQuery(benchmark::State& state, int pct) {
  const DatasetHandle handle = bench_util::SharedPrefixHandle(
      IipFull(), std::max(1, IipFull().num_objects() * pct / 100));
  const auto wr = WeightRatioConstraints::Create({{0.5, 2.0}}).value();
  const PreferenceRegion region = PreferenceRegion::FromWeightRatios(wr);
  int arsp_size = 0;
  for (auto _ : state) {
    // The engine-held view path: KDTT+'s SV(·) mapping is a zero-copy
    // window over the base context's one full mapping, so what remains per
    // query is the traversal — the honest counterpart of DUAL-MS's
    // amortized-preprocessing queries.
    const ArspResult result =
        bench_util::RunAlgoOnHandle("kdtt+", handle, region, &wr);
    arsp_size = CountNonZero(result);
    benchmark::DoNotOptimize(arsp_size);
  }
  state.counters["n"] =
      bench_util::SharedEngine().view(handle).num_instances();
  state.counters["arsp_size"] = arsp_size;
}

void RegisterAll() {
  for (int pct : {20, 40, 60, 80, 100}) {
    benchmark::RegisterBenchmark(
        ("Fig7b_IIP/m%=" + std::to_string(pct) + "/DUAL-MS").c_str(),
        [pct](benchmark::State& state) { BM_DualMsQuery(state, pct); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("Fig7b_IIP/m%=" + std::to_string(pct) + "/KDTT+").c_str(),
        [pct](benchmark::State& state) { BM_KdttPlusQuery(state, pct); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

}  // namespace
}  // namespace arsp

int main(int argc, char** argv) {
  arsp::RegisterAll();
  return arsp::bench_util::BenchMain(argc, argv);
}
