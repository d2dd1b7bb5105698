// Copyright 2026 The ARSP Authors.
//
// The paper's e-commerce scenario (§I): probabilistic selling on a car
// rental platform. Each "probabilistic car" is an uncertain object over a
// group of real cars; the customer only states that fuel economy matters at
// least as much as horsepower. ARSP ranks probabilistic cars by the chance
// of obtaining a non-F-dominated car, and the example contrasts that with
// the traditional rskyline over per-group averages, which hides
// distribution information.
//
//   $ ./example_car_rental

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/common/rng.h"
#include "src/core/certain_rskyline.h"
#include "src/core/solver.h"
#include "src/prefs/constraint_generators.h"
#include "src/uncertain/generators.h"

int main() {
  using namespace arsp;

  // Build probabilistic cars: each category groups cars with varying
  // horsepower (HP) and fuel economy (MPG). Lower is better in the library,
  // so we store negated HP and MPG.
  Rng rng(2024);
  UncertainDatasetBuilder builder(/*dim=*/2);
  const int kGroups = 40;
  for (int g = 0; g < kGroups; ++g) {
    const double base_hp = rng.Uniform(90.0, 320.0);
    const double base_mpg = 52.0 - base_hp / 12.0 + rng.Normal(0.0, 4.0);
    const int cars = rng.UniformInt(2, 8);
    std::vector<Point> points;
    std::vector<double> probs;
    for (int i = 0; i < cars; ++i) {
      const double hp = base_hp * (1.0 + rng.Normal(0.0, 0.15));
      const double mpg = std::max(8.0, base_mpg + rng.Normal(0.0, 3.0));
      points.push_back(Point{-hp, -mpg});
      probs.push_back(1.0 / cars);
    }
    builder.AddObject(std::move(points), std::move(probs));
  }
  const auto dataset = builder.Build();
  if (!dataset.ok()) return 1;

  // "MPG is more important than HP": ω_HP <= ω_MPG.
  LinearConstraints constraints(2);
  constraints.Add({1.0, -1.0}, 0.0);
  const auto region = PreferenceRegion::FromLinearConstraints(constraints);
  if (!region.ok()) return 1;

  auto solver = SolverRegistry::Create("kdtt+");
  if (!solver.ok()) return 1;
  ExecutionContext context(*dataset, *region);
  const auto result = (*solver)->Solve(context);
  if (!result.ok()) return 1;

  // Traditional rskyline over aggregated (average) cars, for contrast.
  const std::vector<Point> averages = AggregateByMean(*dataset);
  const std::vector<int> aggregated = ComputeRskyline(averages, *region);

  std::printf("top probabilistic cars by rskyline probability\n");
  std::printf("(* = also in the rskyline of the aggregated dataset)\n\n");
  std::printf("%-10s %-10s %-8s %-8s %s\n", "group", "Pr_rsky", "avg HP",
              "avg MPG", "agg");
  for (const auto& [object, prob] : TopKObjects(*result, *dataset, 12)) {
    const bool in_agg = std::binary_search(aggregated.begin(),
                                           aggregated.end(), object);
    std::printf("group-%02d   %-10.4f %-8.0f %-8.1f %s\n", object + 1, prob,
                -averages[static_cast<size_t>(object)][0],
                -averages[static_cast<size_t>(object)][1], in_agg ? "*" : "");
  }

  // The paper's §I observation: groups outside the aggregated rskyline can
  // still carry high rskyline probability (good cars inside a mediocre
  // group), and aggregated-rskyline groups can rank low (high variance).
  int high_prob_not_agg = 0;
  for (const auto& [object, prob] : TopKObjects(*result, *dataset, 12)) {
    if (!std::binary_search(aggregated.begin(), aggregated.end(), object)) {
      ++high_prob_not_agg;
    }
  }
  std::printf(
      "\n%d of the top 12 probabilistic cars are invisible to the "
      "aggregated rskyline (%zu groups).\n",
      high_prob_not_agg, aggregated.size());
  return 0;
}
