// Copyright 2026 The ARSP Authors.
//
// Reproduction of the paper's effectiveness study (§V-B, Tables I and II)
// on the simulated NBA-like dataset: players are uncertain objects over
// per-game stat lines; F ranks rebounds >= assists >= points.
//
// Prints Table-I style output (top players by rskyline probability, with
// aggregated-rskyline membership marked "*") and Table-II style output
// (top players by plain skyline probability), plus the paper's headline
// observations computed from the data.
//
//   $ ./example_nba_analysis

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/core/certain_rskyline.h"
#include "src/core/skyline_probability.h"
#include "src/core/solver.h"
#include "src/prefs/constraint_generators.h"
#include "src/uncertain/generators.h"

int main() {
  using namespace arsp;

  std::vector<std::string> names;
  const UncertainDataset nba =
      GenerateNbaLike(/*num_players=*/250, /*dim=*/3, /*seed=*/2021, &names);

  // F = {ω1·Rebound + ω2·Assist + ω3·Point | ω1 >= ω2 >= ω3}.
  const auto region = PreferenceRegion::FromLinearConstraints(
      MakeWeakRankingConstraints(3, 2));
  if (!region.ok()) return 1;

  auto solver = SolverRegistry::Create("kdtt+");
  if (!solver.ok()) return 1;
  ExecutionContext context(nba, *region);
  const auto rsky = (*solver)->Solve(context);
  if (!rsky.ok()) return 1;
  const ArspResult sky = ComputeAllSkylineProbabilities(nba);

  const std::vector<Point> averages = AggregateByMean(nba);
  const std::vector<int> aggregated = ComputeRskyline(averages, *region);

  std::printf("Table I style: top-14 players by rskyline probability\n");
  std::printf("(* = member of the aggregated rskyline)\n\n");
  for (const auto& [player, prob] : TopKObjects(*rsky, nba, 14)) {
    const bool agg = std::binary_search(aggregated.begin(), aggregated.end(),
                                        player);
    std::printf("  %s %-12s Pr_rsky = %.3f\n", agg ? "*" : " ",
                names[static_cast<size_t>(player)].c_str(), prob);
  }

  std::printf("\nTable II style: top-14 players by skyline probability\n\n");
  for (const auto& [player, prob] : TopKObjects(sky, nba, 14)) {
    std::printf("    %-12s Pr_sky  = %.3f\n",
                names[static_cast<size_t>(player)].c_str(), prob);
  }

  // Observation 1 (§V-B): rskyline probability <= skyline probability,
  // because F strengthens every instance's dominance ability.
  const std::vector<double> rsky_obj = ObjectProbabilities(*rsky, nba);
  const std::vector<double> sky_obj = ObjectProbabilities(sky, nba);
  int violations = 0;
  for (int j = 0; j < nba.num_objects(); ++j) {
    if (rsky_obj[static_cast<size_t>(j)] >
        sky_obj[static_cast<size_t>(j)] + 1e-9) {
      ++violations;
    }
  }
  std::printf("\nPr_rsky <= Pr_sky violations: %d (expect 0)\n", violations);

  // Observation 2: high-skyline players can rank poorly under F (the
  // paper's Trae Young case). Report the largest rank drop.
  auto rank_of = [&](const std::vector<double>& probs) {
    std::vector<int> order(static_cast<size_t>(nba.num_objects()));
    for (int j = 0; j < nba.num_objects(); ++j) order[static_cast<size_t>(j)] = j;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return probs[static_cast<size_t>(a)] > probs[static_cast<size_t>(b)];
    });
    std::vector<int> rank(static_cast<size_t>(nba.num_objects()));
    for (int r = 0; r < nba.num_objects(); ++r) {
      rank[static_cast<size_t>(order[static_cast<size_t>(r)])] = r + 1;
    }
    return rank;
  };
  const std::vector<int> rsky_rank = rank_of(rsky_obj);
  const std::vector<int> sky_rank = rank_of(sky_obj);
  int worst_player = 0;
  int worst_drop = 0;
  for (int j = 0; j < nba.num_objects(); ++j) {
    const int drop = rsky_rank[static_cast<size_t>(j)] -
                     sky_rank[static_cast<size_t>(j)];
    if (sky_rank[static_cast<size_t>(j)] <= 20 && drop > worst_drop) {
      worst_drop = drop;
      worst_player = j;
    }
  }
  std::printf(
      "largest rank drop among skyline top-20: %s, skyline rank %d -> "
      "rskyline rank %d\n",
      names[static_cast<size_t>(worst_player)].c_str(),
      sky_rank[static_cast<size_t>(worst_player)],
      rsky_rank[static_cast<size_t>(worst_player)]);

  std::printf("aggregated rskyline size: %zu (uncontrollable); ARSP top-k "
              "is any size you ask for\n",
              aggregated.size());
  return 0;
}
