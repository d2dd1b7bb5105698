// Copyright 2026 The ARSP Authors.
//
// Goal pushdown mechanics: GoalPruner decision rules and activation gates,
// partial-result invariants (is_complete / decided / bounds enclosure, and
// the CHECK guards that keep partial results out of full-result helpers),
// the SolverStats pruning counters, and the headline acceptance property —
// on the Fig. 6 real-data config (NBA-like, d = 4, c = 3), a p = 0.5
// threshold query performs strictly fewer bound refinements / exact
// instance evaluations than the full solve, for KDTT+ and MWTT, while a
// top-10 query does exactly the full solve's work (top-k never pushes
// down).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/queries.h"
#include "src/core/solver.h"
#include "src/uncertain/generators.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::WrRegion;

// ------------------------------------------------------------- GoalPruner

UncertainDataset TwoObjectDataset() {
  // Object 0: two instances of mass 0.5 each. Object 1: four of 0.25.
  UncertainDatasetBuilder builder(2);
  builder.AddObject({Point{0.1, 0.2}, Point{0.2, 0.1}}, {0.5, 0.5});
  builder.AddObject({Point{0.5, 0.6}, Point{0.6, 0.5}, Point{0.7, 0.8},
                     Point{0.8, 0.7}},
                    {0.25, 0.25, 0.25, 0.25});
  return std::move(builder.Build()).value();
}

TEST(GoalPrunerTest, InactiveWhenNothingCanBePruned) {
  const UncertainDataset dataset = TwoObjectDataset();
  const DatasetView view{dataset};
  EXPECT_FALSE(GoalPruner(QueryGoal::Full(), view).active());
  // Only a threshold pushes down: every top-k and count-controlled goal is
  // answered by slicing a complete result, whatever its k.
  for (const int k : {-1, 0, 1, 2, 99}) {
    EXPECT_FALSE(GoalPruner(QueryGoal::TopK(k), view).active()) << k;
    EXPECT_FALSE(GoalPruner(QueryGoal::CountControlled(k), view).active())
        << k;
  }
  EXPECT_FALSE(GoalPruner(QueryGoal::Threshold(0.0), view).active());
  EXPECT_FALSE(GoalPruner(QueryGoal::Threshold(-1.0), view).active());
  EXPECT_FALSE(
      GoalPruner(QueryGoal::Threshold(std::nan("")), view).active());
  EXPECT_TRUE(GoalPruner(QueryGoal::Threshold(0.5), view).active());
}

TEST(GoalPrunerTest, ThresholdDecidesByBounds) {
  const UncertainDataset dataset = TwoObjectDataset();
  const DatasetView view{dataset};
  GoalPruner pruner(QueryGoal::Threshold(0.6), view);
  ASSERT_TRUE(pruner.active());
  EXPECT_FALSE(pruner.GoalMet());

  // Object 1's upper bound starts at 1.0; after two zero resolutions it is
  // 0.5 < 0.6 - eps: excluded with two instances still unresolved.
  pruner.Resolve(2, 0.0);
  EXPECT_FALSE(pruner.ObjectDecided(1));
  pruner.Resolve(3, 0.0);
  EXPECT_TRUE(pruner.ObjectDecided(1));
  EXPECT_EQ(pruner.objects_pruned(), 1);

  // Object 0 resolves fully (exact); the goal is then met with object 1's
  // tail never evaluated.
  pruner.Resolve(0, 0.5);
  EXPECT_FALSE(pruner.GoalMet());
  pruner.Resolve(1, 0.45);
  EXPECT_TRUE(pruner.ObjectDecided(0));
  EXPECT_TRUE(pruner.GoalMet());
  EXPECT_FALSE(pruner.all_resolved());
  EXPECT_EQ(pruner.bound_refinements(), 4);

  const int skipped[] = {4, 5};
  EXPECT_TRUE(pruner.AllDecided(skipped, 2));

  ArspResult result;
  result.instance_probs = {0.5, 0.45, 0.0, 0.0, 0.0, 0.0};
  pruner.Finish(&result);
  EXPECT_FALSE(result.is_complete());
  EXPECT_EQ(result.goal, QueryGoal::Threshold(0.6));
  ASSERT_EQ(result.object_bounds.size(), 2u);
  EXPECT_EQ(result.object_decisions[0], ObjectDecision::kExact);
  EXPECT_EQ(result.object_decisions[1], ObjectDecision::kExcluded);
  EXPECT_DOUBLE_EQ(result.object_bounds[0].lower, 0.95);
  EXPECT_DOUBLE_EQ(result.object_bounds[0].upper, 0.95);
  EXPECT_DOUBLE_EQ(result.object_bounds[1].lower, 0.0);
  EXPECT_DOUBLE_EQ(result.object_bounds[1].upper, 0.5);
  EXPECT_TRUE(result.decided(0));
  EXPECT_TRUE(result.decided(1));
}

TEST(GoalPrunerTest, ThresholdAboveTotalMassExcludesBeforeTraversal) {
  // Every object's existence mass is below the threshold: all excluded at
  // construction, the goal is met before a single instance is evaluated.
  UncertainDatasetBuilder builder(2);
  builder.AddObject({Point{0.1, 0.2}}, {0.4});
  builder.AddObject({Point{0.3, 0.4}, Point{0.4, 0.3}}, {0.2, 0.2});
  const UncertainDataset dataset = std::move(builder.Build()).value();
  const DatasetView view{dataset};
  GoalPruner pruner(QueryGoal::Threshold(0.5), view);
  ASSERT_TRUE(pruner.active());
  EXPECT_TRUE(pruner.GoalMet());
  EXPECT_EQ(pruner.objects_pruned(), 2);
  EXPECT_EQ(pruner.bound_refinements(), 0);
}

// -------------------------------------------------- partial-result guards

TEST(PartialResultGuards, FullResultHelpersRejectPartialResults) {
  ArspResult partial;
  partial.instance_probs = {0.5, 0.0};
  partial.complete = false;
  EXPECT_DEATH(CountNonZero(partial), "complete");
  EXPECT_DEATH(InstancesAboveThreshold(partial, 0.5), "complete");
  const UncertainDataset dataset = TwoObjectDataset();
  ArspResult sized;
  sized.instance_probs.assign(6, 0.0);
  sized.complete = false;
  EXPECT_DEATH(ObjectProbabilities(sized, dataset), "complete");
  EXPECT_DEATH(TopKObjects(sized, dataset, 1), "complete");
}

TEST(PartialResultGuards, AnswerGoalRejectsMismatchedGoal) {
  const UncertainDataset dataset = TwoObjectDataset();
  ExecutionContext context(dataset, WrRegion(2, 1));
  auto solver = SolverRegistry::Create("kdtt+");
  ASSERT_TRUE(solver.ok());
  auto result = (*solver)->Solve(context, QueryGoal::Threshold(0.6));
  ASSERT_TRUE(result.ok());
  if (!result->is_complete()) {
    EXPECT_DEATH(
        AnswerGoal(*result, context.view(), QueryGoal::Threshold(0.9)),
        "answers goal");
  }
}

// -------------------------------------------------- bounds are enclosures

TEST(GoalPushdown, PartialBoundsEncloseTheTrueProbabilities) {
  const UncertainDataset dataset = RandomDataset(30, 4, 3, 0.3, 42);
  const PreferenceRegion region = WrRegion(3, 2);
  ExecutionContext context(dataset, region);
  auto solver = SolverRegistry::Create("kdtt+");
  ASSERT_TRUE(solver.ok());
  auto reference = (*solver)->Solve(context);
  ASSERT_TRUE(reference.ok());
  const std::vector<double> truth = ObjectProbabilities(*reference, dataset);

  auto result = (*solver)->Solve(context, QueryGoal::Threshold(0.4));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->object_bounds.size(), truth.size());
  for (size_t j = 0; j < truth.size(); ++j) {
    const ProbabilityBounds& b = result->object_bounds[j];
    EXPECT_LE(b.lower, truth[j] + 1e-9) << j;
    EXPECT_GE(b.upper, truth[j] - 1e-9) << j;
    if (result->object_decisions[j] == ObjectDecision::kExact) {
      EXPECT_EQ(b.lower, b.upper) << j;
      EXPECT_EQ(b.lower, truth[j]) << j;
    }
  }
}

// ----------------------------------------------- the acceptance criterion

// The Fig. 6 real-data configuration the benches run: NBA-like data at
// d = 4 with the c = 3 weak-ranking region (bench_fig6_real.cc).
struct PushdownSavings {
  SolverStats full;
  SolverStats goal;
  ArspResult goal_result;
  std::vector<std::pair<int, double>> oracle;
  std::vector<std::pair<int, double>> pushed;
};

PushdownSavings RunFig6Case(const std::string& name, const QueryGoal& goal) {
  const UncertainDataset dataset = GenerateNbaLike(250, 4, 1003, nullptr);
  const PreferenceRegion region = WrRegion(4, 3);
  PushdownSavings out;
  auto solver = SolverRegistry::Create(name).value();
  ExecutionContext context(dataset, region);
  const ArspResult reference =
      solver->Solve(context, QueryGoal::Full(), &out.full).value();
  out.goal_result = solver->Solve(context, goal, &out.goal).value();
  out.oracle = AnswerGoal(reference, context.view(), goal);
  out.pushed = AnswerGoal(out.goal_result, context.view(), goal);
  return out;
}

TEST(GoalPushdown, Fig6RealConfigStrictSavings) {
  const UncertainDataset probe = GenerateNbaLike(250, 4, 1003, nullptr);
  const int64_t n = probe.num_instances();
  for (const std::string& name : {std::string("kdtt+"), std::string("mwtt")}) {
    for (const QueryGoal& goal :
         {QueryGoal::TopK(10), QueryGoal::Threshold(0.5)}) {
      SCOPED_TRACE(name + "/" + goal.ToString());
      const PushdownSavings s = RunFig6Case(name, goal);
      EXPECT_EQ(s.full.bound_refinements, 0);  // no pruner on full solves
      if (goal.PushesDown()) {
        // The full solve evaluates every instance exactly; pushdown must do
        // strictly less — fewer bound refinements than instances (some
        // were never evaluated), objects decided out, and fewer visited
        // nodes.
        EXPECT_LT(s.goal.bound_refinements, n);
        EXPECT_GT(s.goal.bound_refinements, 0);
        EXPECT_GT(s.goal.objects_pruned, 0);
        EXPECT_LT(s.goal.nodes_visited, s.full.nodes_visited);
        EXPECT_FALSE(s.goal_result.is_complete());
      } else {
        // Top-k does not push down: the solve is the full solve.
        EXPECT_TRUE(s.goal_result.is_complete());
        EXPECT_EQ(s.goal.bound_refinements, 0);
        EXPECT_EQ(s.goal.objects_pruned, 0);
        EXPECT_EQ(s.goal.nodes_visited, s.full.nodes_visited);
      }
      // And the answer is the post-hoc answer, bit for bit.
      EXPECT_EQ(s.oracle, s.pushed);
    }
  }
}

TEST(GoalPushdown, StatsStringCarriesPruningCounters) {
  const UncertainDataset dataset = GenerateNbaLike(60, 4, 1003, nullptr);
  ExecutionContext context(dataset, WrRegion(4, 3));
  auto solver = SolverRegistry::Create("kdtt+");
  ASSERT_TRUE(solver.ok());
  SolverStats stats;
  ASSERT_TRUE(
      (*solver)->Solve(context, QueryGoal::Threshold(0.5), &stats).ok());
  const std::string line = stats.ToString();
  EXPECT_NE(line.find("objects_pruned="), std::string::npos);
  EXPECT_NE(line.find("bound_refinements="), std::string::npos);
  EXPECT_NE(line.find("early_exit="), std::string::npos);
  EXPECT_GT(stats.objects_pruned, 0);
}

}  // namespace
}  // namespace arsp
