// Copyright 2026 The ARSP Authors.
//
// Goal-pushdown equivalence: for EVERY registered solver — with and without
// kCapGoalPushdown, on base datasets and on shared DatasetView contexts —
// a solve for a goal must give exactly the answer that post-hoc slicing of
// that solver's full solve gives (the oracle): the same objects in the same
// order with bit-identical probabilities, because a skipped subtree cannot
// move any value. ENUM cross-checks on tiny inputs. Tie cases are exercised
// at both cut sites: probability ties at the k-th object (id tie-break,
// count-controlled extension) and an object's probability exactly equal to
// the threshold.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/core/queries.h"
#include "src/core/solver.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RandomWr;
using testing_util::WrRegion;

// ENUM sums over possible worlds, a different algorithm from the ones
// under test, so its probabilities agree with theirs only up to rounding.
// Every other comparison in this file is exact.
constexpr double kEnumTolerance = 1e-12;

// `tolerance` 0 demands equal probabilities.
void ExpectRankedEquivalent(
    const std::vector<std::pair<int, double>>& oracle,
    const std::vector<std::pair<int, double>>& pushed,
    const std::string& label, double tolerance = 0.0) {
  ASSERT_EQ(oracle.size(), pushed.size()) << label;
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].first, pushed[i].first) << label << " rank " << i;
    EXPECT_NEAR(oracle[i].second, pushed[i].second, tolerance)
        << label << " rank " << i;
  }
}

std::vector<QueryGoal> GoalsUnderTest(const ArspResult& reference,
                                      const DatasetView& view) {
  std::vector<QueryGoal> goals = {
      QueryGoal::TopK(1),          QueryGoal::TopK(3),
      QueryGoal::CountControlled(3), QueryGoal::Threshold(0.25),
      QueryGoal::Threshold(0.6),
  };
  // A threshold lying exactly on an object's probability: the p-threshold
  // boundary tie ("probability == threshold" must be included, as in the
  // post-hoc ObjectsAboveThreshold contract).
  const std::vector<std::pair<int, double>> ranked =
      TopKObjects(reference, view, -1);
  if (ranked.size() >= 2 && ranked[1].second > 0.0) {
    goals.push_back(QueryGoal::Threshold(ranked[1].second));
  }
  return goals;
}

// Solves `name` on `context` for each goal and compares against post-hoc
// slicing of the solver's own full result on the same context.
// Inapplicable solvers are expected to fail validation identically with and
// without a goal.
void SweepSolverGoals(const std::string& name,
                      std::shared_ptr<ExecutionContext> context) {
  SCOPED_TRACE(name);
  auto solver = SolverRegistry::Create(name);
  ASSERT_TRUE(solver.ok());
  const bool has_pushdown =
      ((*solver)->capabilities() & kCapGoalPushdown) != 0;
  if (!(*solver)->ValidateContext(*context).ok()) return;
  auto reference = (*solver)->Solve(*context);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->is_complete());

  const DatasetView& view = context->view();
  for (const QueryGoal& goal : GoalsUnderTest(*reference, view)) {
    SCOPED_TRACE(goal.ToString());
    auto result = (*solver)->Solve(*context, goal);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!has_pushdown) {
      // Goal-oblivious solvers must return the full answer regardless.
      EXPECT_TRUE(result->is_complete());
      EXPECT_EQ(reference->instance_probs, result->instance_probs);
    }
    double oracle_threshold = 0.0;
    double pushed_threshold = 0.0;
    const auto oracle = AnswerGoal(*reference, view, goal, &oracle_threshold);
    const auto pushed = AnswerGoal(*result, view, goal, &pushed_threshold);
    ExpectRankedEquivalent(oracle, pushed, name + "/" + goal.ToString());
    EXPECT_EQ(oracle_threshold, pushed_threshold);
  }
}

TEST(GoalEquivalence, RegistrySweepWeightRatios) {
  for (uint64_t seed = 600; seed < 604; ++seed) {
    SCOPED_TRACE(seed);
    const int dim = 2 + static_cast<int>(seed % 3);
    const UncertainDataset dataset =
        RandomDataset(12, 3, dim, 0.4, seed, seed % 2 == 0);
    auto context =
        std::make_shared<ExecutionContext>(dataset, RandomWr(dim, seed));
    for (const std::string& name : SolverRegistry::Names()) {
      SweepSolverGoals(name, context);
    }
  }
}

TEST(GoalEquivalence, RegistrySweepWeakRankingAndSingleInstance2d) {
  // Weak-ranking constraints, plus the d=2 single-instance regime where
  // every solver (DUAL-2D-MS included, under ratios) participates.
  const UncertainDataset ranked_data = RandomDataset(15, 4, 3, 0.3, 700);
  auto ranked_context =
      std::make_shared<ExecutionContext>(ranked_data, WrRegion(3, 2));
  const UncertainDataset iip = RandomDataset(20, 1, 2, 0.5, 701);
  auto iip_context =
      std::make_shared<ExecutionContext>(iip, RandomWr(2, 701));
  for (const std::string& name : SolverRegistry::Names()) {
    SweepSolverGoals(name, ranked_context);
    SweepSolverGoals(name, iip_context);
  }
}

TEST(GoalEquivalence, RegistrySweepOnSharedViewContexts) {
  // Goals must push down through the zero-copy view plane: goal solves on
  // prefix view contexts (over one base context's artifacts, as the
  // engine's sweep path makes them) answer like sliced full view solves.
  const UncertainDataset dataset = RandomDataset(16, 3, 3, 0.4, 800);
  auto base = std::make_shared<ExecutionContext>(dataset, RandomWr(3, 800));
  for (const int num_objects : {10, 14}) {
    SCOPED_TRACE(num_objects);
    auto view = DatasetView::Create(dataset, num_objects);
    ASSERT_TRUE(view.ok());
    auto shared = base->ForView(*view);
    for (const std::string& name : SolverRegistry::Names()) {
      SweepSolverGoals(name, shared);
    }
  }
}

TEST(GoalEquivalence, EnumOracleOnTinyInputs) {
  // The exponential ground truth: pushdown answers of the traversal
  // solvers sliced against ENUM's exact full result.
  const UncertainDataset dataset = RandomDataset(7, 3, 2, 0.4, 900);
  ExecutionContext enum_context(dataset, WrRegion(2, 1));
  auto enum_solver = SolverRegistry::Create("enum");
  ASSERT_TRUE(enum_solver.ok());
  auto reference = (*enum_solver)->Solve(enum_context);
  ASSERT_TRUE(reference.ok());
  const DatasetView& view = enum_context.view();
  for (const char* name : {"kdtt", "kdtt+", "qdtt+", "mwtt", "bnb"}) {
    for (const QueryGoal& goal :
         {QueryGoal::TopK(2), QueryGoal::Threshold(0.5)}) {
      ExecutionContext context(dataset, WrRegion(2, 1));
      auto solver = SolverRegistry::Create(name);
      ASSERT_TRUE(solver.ok());
      auto result = (*solver)->Solve(context, goal);
      ASSERT_TRUE(result.ok());
      ExpectRankedEquivalent(AnswerGoal(*reference, view, goal),
                             AnswerGoal(*result, context.view(), goal),
                             std::string(name) + "/" + goal.ToString(),
                             kEnumTolerance);
    }
  }
}

// ---------------------------------------------------------------- tie cases

// Objects 1 and 2 share an identical instance layout, so their rskyline
// probabilities are exactly equal doubles; object 0 is the certain winner
// (incomparable to the tied pair, dominating object 3). The exact tie sits
// at every interesting cut.
UncertainDataset TiedDataset() {
  UncertainDatasetBuilder builder(2);
  builder.AddObject({Point{0.1, 0.9}}, {1.0});
  builder.AddObject({Point{0.3, 0.5}, Point{0.5, 0.3}}, {0.5, 0.5});
  builder.AddObject({Point{0.3, 0.5}, Point{0.5, 0.3}}, {0.5, 0.5});
  builder.AddObject({Point{0.7, 0.8}, Point{0.9, 0.6}}, {0.5, 0.5});
  return std::move(builder.Build()).value();
}

TEST(GoalEquivalence, TiesAtTheKthObjectAndAtTheThreshold) {
  const UncertainDataset dataset = TiedDataset();
  const PreferenceRegion region = WrRegion(2, 1);
  ExecutionContext full(dataset, region);
  auto loop = SolverRegistry::Create("loop");
  ASSERT_TRUE(loop.ok());
  auto reference = (*loop)->Solve(full);
  ASSERT_TRUE(reference.ok());
  const std::vector<double> probs =
      ObjectProbabilities(*reference, dataset);
  ASSERT_EQ(probs[1], probs[2]);  // the exact tie the cuts land on
  ASSERT_GT(probs[1], 0.0);

  const DatasetView& view = full.view();
  for (const char* name : {"kdtt", "kdtt+", "qdtt+", "mwtt", "bnb"}) {
    SCOPED_TRACE(name);
    auto solver = SolverRegistry::Create(name);
    ASSERT_TRUE(solver.ok());

    // k = 2 cuts through the tie: id order keeps object 1, drops object 2.
    {
      const QueryGoal goal = QueryGoal::TopK(2);
      ExecutionContext context(dataset, region);
      auto result = (*solver)->Solve(context, goal);
      ASSERT_TRUE(result.ok());
      const auto pushed = AnswerGoal(*result, context.view(), goal);
      ExpectRankedEquivalent(AnswerGoal(*reference, view, goal), pushed,
                             "topk-tie");
      ASSERT_EQ(pushed.size(), 2u);
      EXPECT_EQ(pushed[1].first, 1);
    }
    // Count-controlled k = 2: the tie extends the answer to 3 objects.
    {
      const QueryGoal goal = QueryGoal::CountControlled(2);
      ExecutionContext context(dataset, region);
      auto result = (*solver)->Solve(context, goal);
      ASSERT_TRUE(result.ok());
      double threshold = 0.0;
      const auto pushed =
          AnswerGoal(*result, context.view(), goal, &threshold);
      double oracle_threshold = 0.0;
      ExpectRankedEquivalent(
          AnswerGoal(*reference, view, goal, &oracle_threshold), pushed,
          "count-tie");
      EXPECT_EQ(threshold, oracle_threshold);
      ASSERT_EQ(pushed.size(), 3u);  // ties only ever extend
    }
    // Threshold exactly equal to the tied probability: both included.
    {
      const QueryGoal goal = QueryGoal::Threshold(probs[1]);
      ExecutionContext context(dataset, region);
      auto result = (*solver)->Solve(context, goal);
      ASSERT_TRUE(result.ok());
      const auto pushed = AnswerGoal(*result, context.view(), goal);
      ExpectRankedEquivalent(AnswerGoal(*reference, view, goal), pushed,
                             "threshold-tie");
      ASSERT_EQ(pushed.size(), 3u);
      EXPECT_EQ(pushed[1].first, 1);
      EXPECT_EQ(pushed[2].first, 2);
    }
  }
}

}  // namespace
}  // namespace arsp
