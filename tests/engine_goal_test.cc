// Copyright 2026 The ARSP Authors.
//
// Engine-level goal pushdown: routing (only thresholds push down, and only
// into capable solvers; allow_pushdown override; top-k, count-controlled
// and instance-level goals stay full), the result-cache completeness rules
// — a threshold-pruned partial result is cached only under its goal key
// and is NEVER returned for a full or different-goal request, while a
// cached full result IS reused (sliced) for derived goals, so one top-k
// solve serves every later goal on its spec — and concurrent Solve calls
// with mixed goals over one pooled context (the TSan target for solves of
// different goals sharing one context).

#include "src/core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/queries.h"
#include "src/uncertain/generators.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomWr;

// NBA-like Fig. 6 data, small enough for tests but rich enough that every
// pushdown solver provably skips work (goal-pruned results are partial).
std::shared_ptr<const UncertainDataset> NbaData(int players = 60) {
  return std::make_shared<const UncertainDataset>(
      GenerateNbaLike(players, 4, 1003, nullptr));
}

QueryRequest ThresholdRequest(DatasetHandle handle, double p,
                              const std::string& solver = "kdtt+") {
  QueryRequest request;
  request.dataset = handle;
  request.constraints = ConstraintSpec::WeightRatios(RandomWr(4, 7));
  request.solver = solver;
  request.derived.kind = DerivedKind::kObjectsAboveThreshold;
  request.derived.threshold = p;
  return request;
}

void ExpectSameRanked(const std::vector<std::pair<int, double>>& a,
                      const std::vector<std::pair<int, double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << i;
    EXPECT_EQ(a[i].second, b[i].second) << i;
  }
}

TEST(EngineGoalPushdown, PushdownExecutesAndMatchesTheFallback) {
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(NbaData());

  QueryRequest pushed = ThresholdRequest(handle, 0.4);
  pushed.use_cache = false;
  auto with = engine.Solve(pushed);
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(with->pushdown);
  EXPECT_FALSE(with->result->is_complete());
  EXPECT_GT(with->stats.objects_pruned, 0);
  EXPECT_LT(with->stats.bound_refinements,
            engine.dataset(handle)->num_instances());

  QueryRequest fallback = pushed;
  fallback.allow_pushdown = false;
  auto without = engine.Solve(fallback);
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without->pushdown);
  EXPECT_TRUE(without->result->is_complete());
  EXPECT_EQ(without->stats.bound_refinements, 0);
  ExpectSameRanked(without->ranked, with->ranked);
}

TEST(EngineGoalPushdown, PushdownRequiresTheCapability) {
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(NbaData(30));
  // LOOP declares no kCapGoalPushdown: the engine must fall back.
  auto response = engine.Solve(ThresholdRequest(handle, 0.4, "loop"));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->pushdown);
  EXPECT_TRUE(response->result->is_complete());
}

TEST(EngineGoalPushdown, DegenerateTopKValuesStaySafe) {
  // k == 0 and k < 0 are sliced from a full solve like any other k;
  // answers match the historical TopKObjects semantics: empty, and
  // rank-everything.
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(NbaData(30));
  QueryRequest request = ThresholdRequest(handle, 0.0);
  request.derived.kind = DerivedKind::kTopKObjects;
  request.derived.k = 0;
  auto empty = engine.Solve(request);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->ranked.empty());
  EXPECT_FALSE(empty->pushdown);
  EXPECT_TRUE(empty->result->is_complete());
  request.derived.k = -1;
  request.use_cache = false;
  auto all = engine.Solve(request);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->pushdown);  // "all objects" is full work by definition
  EXPECT_EQ(static_cast<int>(all->ranked.size()),
            engine.dataset(handle)->num_objects());
}

TEST(EngineGoalPushdown, InstanceLevelGoalsStayFull) {
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(NbaData(30));
  QueryRequest request = ThresholdRequest(handle, 0.4);
  request.derived.kind = DerivedKind::kTopKInstances;
  request.derived.k = 5;
  auto response = engine.Solve(request);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->pushdown);
  ASSERT_TRUE(response->result->is_complete());
  EXPECT_EQ(response->ranked, TopKInstances(*response->result, 5));
}

TEST(EngineGoalPushdown, PartialResultIsNeverServedForFullOrOtherGoals) {
  // The cache-completeness regression: a goal-pruned partial entry must be
  // invisible to every request except its exact goal.
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(NbaData());

  auto pushed = engine.Solve(ThresholdRequest(handle, 0.4));
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(pushed->pushdown);
  ASSERT_FALSE(pushed->cache_hit);
  // The premise of the regression: the cached entry IS partial.
  ASSERT_FALSE(pushed->result->is_complete());

  // A full request with identical dataset/constraints/solver/options must
  // NOT hit that entry — it solves fresh and gets a complete result.
  QueryRequest full = ThresholdRequest(handle, 0.4);
  full.derived = DerivedSpec{};
  auto fresh = engine.Solve(full);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cache_hit);
  EXPECT_TRUE(fresh->result->is_complete());

  // A different-goal request must not see it either (it now subsumes from
  // the full entry cached by the previous solve instead).
  auto other_goal = engine.Solve(ThresholdRequest(handle, 0.7));
  ASSERT_TRUE(other_goal.ok());
  EXPECT_TRUE(other_goal->result->is_complete());
  ExpectSameRanked(
      other_goal->ranked,
      ObjectsAboveThreshold(*fresh->result, *engine.dataset(handle), 0.7));

  // The exact same goal DOES reuse the partial entry.
  auto again = engine.Solve(ThresholdRequest(handle, 0.4));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_TRUE(again->pushdown);
  EXPECT_EQ(again->result.get(), pushed->result.get());
  ExpectSameRanked(again->ranked, pushed->ranked);
}

TEST(EngineGoalPushdown, CachedFullResultIsSlicedForDerivedGoals) {
  // Subsumption: a complete cached result answers every derived goal.
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(NbaData(40));
  QueryRequest full = ThresholdRequest(handle, 0.4);
  full.derived = DerivedSpec{};
  auto first = engine.Solve(full);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->cache_hit);

  QueryRequest topk = full;
  topk.derived.kind = DerivedKind::kTopKObjects;
  topk.derived.k = 5;
  auto sliced = engine.Solve(topk);
  ASSERT_TRUE(sliced.ok());
  EXPECT_TRUE(sliced->cache_hit);
  EXPECT_FALSE(sliced->pushdown);  // served post hoc from the full entry
  EXPECT_EQ(sliced->result.get(), first->result.get());
  EXPECT_EQ(sliced->ranked,
            TopKObjects(*first->result, *engine.dataset(handle), 5));
}

TEST(EngineGoalPushdown, CountControlledIsPostHocAndMatchesQueriesH) {
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(NbaData());
  QueryRequest request = ThresholdRequest(handle, 0.0);
  request.derived.kind = DerivedKind::kCountControlled;
  request.derived.max_objects = 5;
  request.use_cache = false;
  auto controlled = engine.Solve(request);
  ASSERT_TRUE(controlled.ok());
  EXPECT_FALSE(controlled->pushdown);
  EXPECT_TRUE(controlled->result->is_complete());

  QueryRequest fallback = request;
  fallback.allow_pushdown = false;
  auto oracle = engine.Solve(fallback);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(controlled->count_threshold, oracle->count_threshold);
  EXPECT_EQ(oracle->count_threshold,
            ThresholdForObjectCount(*oracle->result,
                                    *engine.dataset(handle), 5));
  ExpectSameRanked(controlled->ranked, oracle->ranked);
  EXPECT_GE(controlled->ranked.size(), 5u);
}

TEST(EngineGoalPushdown, MixedGoalsShareOnePooledContextConcurrently) {
  // The TSan target: many concurrent requests with different goals and
  // solvers against ONE (dataset, constraints) pair. A context holds no
  // goal, so every request solves the one pooled context for its own goal
  // and the pool must still hold exactly one context afterwards.
  ArspEngine engine;
  const auto data = NbaData(40);
  const DatasetHandle handle = engine.AddDataset(data);
  const char* solvers[] = {"kdtt+", "mwtt", "qdtt+", "bnb"};
  std::vector<QueryRequest> requests;
  for (int round = 0; round < 3; ++round) {
    for (const char* solver : solvers) {
      QueryRequest full = ThresholdRequest(handle, 0.4, solver);
      full.derived = DerivedSpec{};
      full.use_cache = round % 2 == 0;
      requests.push_back(full);

      QueryRequest threshold = ThresholdRequest(handle, 0.4, solver);
      threshold.use_cache = round % 2 == 0;
      requests.push_back(threshold);

      QueryRequest topk = ThresholdRequest(handle, 0.4, solver);
      topk.derived.kind = DerivedKind::kTopKObjects;
      topk.derived.k = 5;
      topk.use_cache = round % 2 == 1;
      requests.push_back(topk);
    }
  }
  const auto outcomes = testing_util::SolveConcurrently(engine, requests);

  ArspEngine serial_engine;
  const DatasetHandle serial_handle = serial_engine.AddDataset(data);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok())
        << i << ": " << outcomes[i].status().ToString();
    QueryRequest serial_request = requests[i];
    serial_request.dataset = serial_handle;
    const auto serial = serial_engine.Solve(serial_request);
    ASSERT_TRUE(serial.ok()) << i;
    ExpectSameRanked(outcomes[i]->ranked, serial->ranked);
  }
  EXPECT_EQ(engine.pooled_contexts(), 1u);
}

TEST(EngineGoalPushdown, GoalsPropagateThroughViewSweeps) {
  // A Fig. 6-style m% sweep with --threshold semantics: every prefix view's
  // pushdown answer must match its own post-hoc answer, and the view
  // contexts still derive from one base build.
  ArspEngine engine;
  const DatasetHandle base = engine.AddDataset(NbaData());
  const int m = engine.dataset(base)->num_objects();
  for (int pct : {40, 70, 100}) {
    SCOPED_TRACE(pct);
    const int count = std::max(1, m * pct / 100);
    auto view_handle = engine.AddView(base, ViewSpec::Prefix(count));
    ASSERT_TRUE(view_handle.ok());
    QueryRequest request = ThresholdRequest(*view_handle, 0.4);
    request.use_cache = false;
    auto pushed = engine.Solve(request);
    ASSERT_TRUE(pushed.ok());
    EXPECT_TRUE(pushed->pushdown);

    QueryRequest fallback = request;
    fallback.allow_pushdown = false;
    auto oracle = engine.Solve(fallback);
    ASSERT_TRUE(oracle.ok());
    ExpectSameRanked(pushed->ranked, oracle->ranked);
  }
  // One full score mapping on the base; the prefix views reuse it.
  ExecutionContext::IndexBuildStats stats = engine.index_stats(base);
  EXPECT_EQ(stats.score_maps, 1);
}

TEST(EngineGoalPushdown, TopKResultServesEveryLaterGoalOnTheSameSpec) {
  // The Fig. 6 config: a top-10 solve is complete and stored under the
  // full key, so a later threshold and a later full query on the same spec
  // are cache hits on that one result instead of solving again.
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(
      std::make_shared<const UncertainDataset>(
          GenerateNbaLike(250, 4, 1003, nullptr)));
  QueryRequest topk;
  topk.dataset = handle;
  topk.constraints = ConstraintSpec::Region(testing_util::WrRegion(4, 3));
  topk.solver = "kdtt+";
  topk.derived.kind = DerivedKind::kTopKObjects;
  topk.derived.k = 10;
  auto first = engine.Solve(topk);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_FALSE(first->pushdown);
  ASSERT_TRUE(first->result->is_complete());

  QueryRequest threshold = topk;
  threshold.derived.kind = DerivedKind::kObjectsAboveThreshold;
  threshold.derived.threshold = 0.5;
  auto second = engine.Solve(threshold);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_FALSE(second->pushdown);
  EXPECT_EQ(second->result.get(), first->result.get());
  EXPECT_EQ(second->ranked, ObjectsAboveThreshold(*first->result,
                                                  engine.view(handle), 0.5));

  QueryRequest full = topk;
  full.derived = DerivedSpec{};
  auto third = engine.Solve(full);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->cache_hit);
  EXPECT_EQ(third->result.get(), first->result.get());
}

TEST(EngineGoalPushdown, NanThresholdIsInvalidArgument) {
  // No probability compares below NaN, so a NaN threshold would select
  // every object; the engine rejects it instead.
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(NbaData(30));
  for (const char* solver : {"kdtt+", "loop"}) {
    auto response = engine.Solve(ThresholdRequest(handle, std::nan(""),
                                                  solver));
    ASSERT_FALSE(response.ok()) << solver;
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
        << solver;
  }
}

}  // namespace
}  // namespace arsp
