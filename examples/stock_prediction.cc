// Copyright 2026 The ARSP Authors.
//
// The paper's prediction-service scenario (§I): model predictions of stock
// price (P) and growth rate (GR) carry confidence values, forming an
// uncertain dataset of single-instance objects. The analyst's preference is
// a weight ratio constraint 0.5 ω_GR <= ω_P <= 2 ω_GR. This is exactly the
// regime of the §IV algorithms: the example runs the half-space-reporting
// DUAL algorithm and the preprocessed d=2 DUAL-MS structure and shows they
// agree, then reuses the same preprocessing for a second analyst with a
// different ratio range.
//
//   $ ./example_stock_prediction

#include <cstdio>

#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/core/dual2d_ms.h"
#include "src/core/solver.h"

int main() {
  using namespace arsp;

  // Predictions: price (lower = cheaper entry) and negated growth rate
  // (lower = stronger growth). Confidence in {0.6..0.95}.
  Rng rng(7);
  UncertainDatasetBuilder builder(/*dim=*/2);
  const int kStocks = 400;
  for (int s = 0; s < kStocks; ++s) {
    const double price = rng.Uniform(10.0, 500.0);
    const double growth = rng.Normal(0.05, 0.12) - price / 8000.0;
    const double confidence = rng.Uniform(0.6, 0.95);
    builder.AddSingleton(Point{price, -growth}, confidence);
  }
  const auto dataset = builder.Build();
  if (!dataset.ok()) return 1;

  const auto wr = WeightRatioConstraints::Create({{0.5, 2.0}}).value();

  auto dual = SolverRegistry::Create("dual");
  if (!dual.ok()) return 1;
  ExecutionContext context(*dataset, wr);
  Stopwatch sw;
  const auto via_dual = (*dual)->Solve(context);
  const double dual_ms = sw.ElapsedMillis();
  if (!via_dual.ok()) return 1;

  sw.Restart();
  auto index = Dual2dMs::Build(*dataset);
  const double build_ms = sw.ElapsedMillis();
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  sw.Restart();
  const ArspResult via_ms = index->Query(0.5, 2.0);
  const double query_ms = sw.ElapsedMillis();

  std::printf("DUAL (no preprocessing):   %.2f ms\n", dual_ms);
  std::printf("DUAL-MS: build %.2f ms, query %.2f ms, index %.1f MiB\n",
              build_ms, query_ms,
              static_cast<double>(index->MemoryBytes()) / (1 << 20));
  std::printf("max |difference| = %.2e\n\n", MaxAbsDiff(*via_dual, via_ms));

  std::printf("top stock predictions, ratio range [0.5, 2]:\n");
  for (const auto& [object, prob] : TopKObjects(via_ms, *dataset, 8)) {
    const Instance inst = dataset->instance(dataset->object_range(object).first);
    std::printf("  stock-%03d  Pr_rsky=%.4f  price=%6.1f  growth=%+.3f\n",
                object + 1, prob, inst.point[0], -inst.point[1]);
  }

  // A second analyst weighs growth much higher; the same index answers
  // instantly (the whole point of the preprocessing).
  sw.Restart();
  const ArspResult growth_heavy = index->Query(0.1, 0.5);
  std::printf("\nsecond query [0.1, 0.5] reused the index in %.2f ms:\n",
              sw.ElapsedMillis());
  for (const auto& [object, prob] : TopKObjects(growth_heavy, *dataset, 5)) {
    const Instance inst = dataset->instance(dataset->object_range(object).first);
    std::printf("  stock-%03d  Pr_rsky=%.4f  price=%6.1f  growth=%+.3f\n",
                object + 1, prob, inst.point[0], -inst.point[1]);
  }
  return 0;
}
