// Copyright 2026 The ARSP Authors.
//
// Tests for the ArspEngine session API: request validation, result-cache
// correctness (a cached answer must be bit-identical to a fresh solve),
// concurrent-vs-serial equivalence, "auto" solver selection respecting
// capability flags, context pooling, and concurrent Solve calls against
// shared pooled contexts (lazy-init is exercised from many threads — the
// CI "tsan" job runs this binary under ThreadSanitizer).

#include "src/core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/queries.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::Example1Dataset;
using testing_util::Example1Wr;
using testing_util::RandomDataset;
using testing_util::RandomWr;
using testing_util::SolveConcurrently;
using testing_util::WrRegion;

QueryRequest WrRequest(DatasetHandle handle, int dim, uint64_t seed,
                       const std::string& solver = "auto") {
  QueryRequest request;
  request.dataset = handle;
  request.constraints = ConstraintSpec::WeightRatios(RandomWr(dim, seed));
  request.solver = solver;
  return request;
}

TEST(ArspEngineTest, SolveRejectsBadRequests) {
  ArspEngine engine;
  QueryRequest request;  // no dataset, no constraints
  request.constraints = ConstraintSpec::WeightRatios(Example1Wr());
  auto no_dataset = engine.Solve(request);
  ASSERT_FALSE(no_dataset.ok());
  EXPECT_EQ(no_dataset.status().code(), StatusCode::kNotFound);

  const DatasetHandle handle = engine.AddDataset(Example1Dataset());
  QueryRequest no_constraints;
  no_constraints.dataset = handle;
  auto missing = engine.Solve(no_constraints);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  QueryRequest bad_derived = WrRequest(handle, 2, 7);
  bad_derived.derived.kind = DerivedKind::kCountControlled;
  bad_derived.derived.max_objects = 0;
  auto derived = engine.Solve(bad_derived);
  ASSERT_FALSE(derived.ok());
  EXPECT_EQ(derived.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArspEngineTest, CachedResultIsIdenticalToFreshSolve) {
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(25, 3, 3, 0.3, 11));

  const QueryRequest request = WrRequest(handle, 3, 11, "kdtt+");
  auto first = engine.Solve(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);

  auto second = engine.Solve(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  // The cached answer is the same shared result object.
  EXPECT_EQ(second->result.get(), first->result.get());
  EXPECT_EQ(second->solver, "kdtt+");

  // And it matches a fresh, cache-bypassing solve exactly.
  QueryRequest fresh = request;
  fresh.use_cache = false;
  fresh.pool_context = false;
  auto uncached = engine.Solve(fresh);
  ASSERT_TRUE(uncached.ok());
  EXPECT_FALSE(uncached->cache_hit);
  EXPECT_EQ(MaxAbsDiff(*uncached->result, *first->result), 0.0);

  const ArspEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);  // the bypassing request never touched it
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ArspEngineTest, CacheDiscriminatesSolverOptionsAndConstraints) {
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(20, 3, 3, 0.0, 12));

  ASSERT_TRUE(engine.Solve(WrRequest(handle, 3, 12, "kdtt+")).ok());
  // Different solver, options, or constraints: all misses.
  auto other_solver = engine.Solve(WrRequest(handle, 3, 12, "bnb"));
  ASSERT_TRUE(other_solver.ok());
  EXPECT_FALSE(other_solver->cache_hit);

  QueryRequest with_options = WrRequest(handle, 3, 12, "mwtt");
  with_options.options.SetInt("fanout", 4);
  auto a = engine.Solve(with_options);
  with_options.options.SetInt("fanout", 8);
  auto b = engine.Solve(with_options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->cache_hit);

  auto other_constraints = engine.Solve(WrRequest(handle, 3, 99, "kdtt+"));
  ASSERT_TRUE(other_constraints.ok());
  EXPECT_FALSE(other_constraints->cache_hit);
  EXPECT_EQ(engine.cache_stats().hits, 0);
}

TEST(ArspEngineTest, LruEvictsLeastRecentlyUsed) {
  EngineOptions options;
  options.result_cache_capacity = 2;
  ArspEngine engine(options);
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(10, 2, 2, 0.0, 13));

  const QueryRequest r1 = WrRequest(handle, 2, 1, "loop");
  const QueryRequest r2 = WrRequest(handle, 2, 2, "loop");
  const QueryRequest r3 = WrRequest(handle, 2, 3, "loop");
  ASSERT_TRUE(engine.Solve(r1).ok());
  ASSERT_TRUE(engine.Solve(r2).ok());
  ASSERT_TRUE(engine.Solve(r1).ok());  // refresh r1; r2 is now LRU
  ASSERT_TRUE(engine.Solve(r3).ok());  // evicts r2
  EXPECT_TRUE(engine.Solve(r1)->cache_hit);
  EXPECT_FALSE(engine.Solve(r2)->cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 2u);
}

TEST(ArspEngineTest, ContextPoolReusesPreprocessing) {
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(20, 3, 3, 0.0, 14));

  QueryRequest request = WrRequest(handle, 3, 14, "kdtt+");
  request.use_cache = false;
  auto first = engine.Solve(request);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.setup_millis, 0.0);
  EXPECT_EQ(engine.pooled_contexts(), 1u);

  // Same constraints, different solver: same pooled context, zero setup.
  request.solver = "qdtt+";
  auto second = engine.Solve(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.setup_millis, 0.0);
  EXPECT_EQ(engine.pooled_contexts(), 1u);

  // A cacheable miss that only found the context leaves it pooled: only
  // the pool can answer the cache-off requests' repeats.
  QueryRequest cached = request;
  cached.solver = "kdtt+";
  cached.use_cache = true;
  auto third = engine.Solve(cached);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);
  EXPECT_EQ(third->stats.setup_millis, 0.0);
  EXPECT_EQ(engine.pooled_contexts(), 1u);
  EXPECT_EQ(engine.index_stats(handle).score_maps, 1);

  ASSERT_TRUE(engine.DropDataset(handle).ok());
  EXPECT_EQ(engine.pooled_contexts(), 0u);
  EXPECT_FALSE(engine.Solve(request).ok());
  EXPECT_FALSE(engine.DropDataset(handle).ok());
}

TEST(ArspEngineTest, ContextPoolEvictsLeastRecentlyUsedBeyondCap) {
  EngineOptions options;
  options.context_pool_capacity = 2;
  ArspEngine engine(options);
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(10, 2, 2, 0.0, 26));
  for (uint64_t seed = 0; seed < 5; ++seed) {
    QueryRequest request = WrRequest(handle, 2, seed, "kdtt+");
    request.use_cache = false;
    ASSERT_TRUE(engine.Solve(request).ok());
    EXPECT_LE(engine.pooled_contexts(), 2u);
  }
  EXPECT_EQ(engine.pooled_contexts(), 2u);
  // The handle's counters still count the evicted contexts' work.
  EXPECT_EQ(engine.index_stats(handle).score_maps, 5);
}

TEST(ArspEngineTest, CacheableMissesReleaseTheirContexts) {
  // Once the result cache answers a miss's repeat, the miss's context
  // leaves the pool; the handle's counters still count what it built.
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(20, 3, 3, 0.0, 30));
  constexpr int kQueries = 70;  // more than the default pool capacity
  for (int seed = 0; seed < kQueries; ++seed) {
    auto response = engine.Solve(WrRequest(handle, 3, seed, "kdtt+"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_FALSE(response->cache_hit) << seed;
  }
  EXPECT_EQ(engine.pooled_contexts(), 0u);
  EXPECT_EQ(engine.index_stats(handle).score_maps, kQueries);
  // Each repeat is a cache hit and builds nothing.
  auto repeat = engine.Solve(WrRequest(handle, 3, 0, "kdtt+"));
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->cache_hit);
  EXPECT_EQ(engine.index_stats(handle).score_maps, kQueries);
}

TEST(ArspEngineTest, DropDatasetFreesItsCachedResults) {
  ArspEngine engine;
  const DatasetHandle base =
      engine.AddDataset(RandomDataset(20, 3, 3, 0.0, 33));
  auto view = engine.AddView(base, 10);
  ASSERT_TRUE(view.ok());
  const DatasetHandle other =
      engine.AddDataset(RandomDataset(20, 3, 3, 0.0, 34));
  for (const DatasetHandle handle : {base, *view, other}) {
    ASSERT_TRUE(engine.Solve(WrRequest(handle, 3, 33, "kdtt+")).ok());
  }
  ASSERT_EQ(engine.cache_stats().entries, 3u);
  // Dropping the base cascades to its view and takes both results along.
  ASSERT_TRUE(engine.DropDataset(base).ok());
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  EXPECT_TRUE(engine.Solve(WrRequest(other, 3, 33, "kdtt+"))->cache_hit);
  ASSERT_TRUE(engine.DropDataset(other).ok());
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  EXPECT_EQ(engine.index_stats(other).score_maps, 0);
}

TEST(ArspEngineTest, DatasetAccessorReturnsNullForUnknownHandles) {
  ArspEngine engine;
  EXPECT_EQ(engine.dataset(DatasetHandle{}), nullptr);
  const DatasetHandle handle = engine.AddDataset(Example1Dataset());
  ASSERT_NE(engine.dataset(handle), nullptr);
  EXPECT_EQ(engine.dataset(handle)->num_objects(), 4);
  ASSERT_TRUE(engine.DropDataset(handle).ok());
  EXPECT_EQ(engine.dataset(handle), nullptr);
}

TEST(ArspEngineTest, BatchMatchesSerialOnMixedRequests) {
  ArspEngine engine;
  const UncertainDataset small = RandomDataset(12, 2, 2, 0.3, 15);
  const UncertainDataset medium = RandomDataset(30, 3, 3, 0.2, 16);
  const DatasetHandle h_small = engine.AddDataset(small);
  const DatasetHandle h_medium = engine.AddDataset(medium);

  // Mixed families, solvers, and derived queries.
  std::vector<QueryRequest> requests;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    QueryRequest wr2 = WrRequest(h_small, 2, seed, "auto");
    wr2.derived.kind = DerivedKind::kTopKObjects;
    wr2.derived.k = 5;
    requests.push_back(wr2);

    QueryRequest wr3 = WrRequest(h_medium, 3, seed,
                                 seed % 2 == 0 ? "kdtt+" : "bnb");
    wr3.derived.kind = DerivedKind::kCountControlled;
    wr3.derived.max_objects = 4;
    requests.push_back(wr3);

    QueryRequest rank;
    rank.dataset = h_medium;
    rank.constraints = ConstraintSpec::Region(WrRegion(3, 2));
    rank.solver = "loop";
    rank.derived.kind = DerivedKind::kObjectsAboveThreshold;
    rank.derived.threshold = 0.3;
    requests.push_back(rank);
  }
  // Serial reference on a separate engine so batch caching cannot help.
  ArspEngine serial_engine;
  const DatasetHandle s_small = serial_engine.AddDataset(small);
  const DatasetHandle s_medium = serial_engine.AddDataset(medium);
  std::vector<QueryRequest> serial_requests = requests;
  for (QueryRequest& r : serial_requests) {
    r.dataset = r.dataset.id == h_small.id ? s_small : s_medium;
  }

  const auto batch = SolveConcurrently(engine, requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << i << ": " << batch[i].status().ToString();
    const auto serial = serial_engine.Solve(serial_requests[i]);
    ASSERT_TRUE(serial.ok()) << i;
    EXPECT_EQ(MaxAbsDiff(*batch[i]->result, *serial->result), 0.0) << i;
    EXPECT_EQ(batch[i]->ranked, serial->ranked) << i;
    EXPECT_EQ(batch[i]->count_threshold, serial->count_threshold) << i;
    EXPECT_EQ(batch[i]->solver, serial->solver) << i;
  }
}

TEST(ArspEngineTest, ConcurrentBatchSharesOnePooledContext) {
  // Many concurrent requests against the same (dataset, constraints) pair:
  // every thread races on the shared context's lazy preprocessing. The
  // pattern is the TSan target for the locked lazy-init.
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(25, 3, 3, 0.3, 17));
  const char* solvers[] = {"loop", "kdtt", "kdtt+", "qdtt+", "bnb", "mwtt"};
  std::vector<QueryRequest> requests;
  for (int round = 0; round < 3; ++round) {
    for (const char* solver : solvers) {
      QueryRequest request = WrRequest(handle, 3, 17, solver);
      request.use_cache = round % 2 == 0;
      requests.push_back(request);
    }
  }
  const auto outcomes = SolveConcurrently(engine, requests);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].status().ToString();
  const ArspResult& reference = *outcomes[0]->result;
  for (size_t i = 1; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok())
        << i << ": " << outcomes[i].status().ToString();
    EXPECT_LT(MaxAbsDiff(reference, *outcomes[i]->result), 1e-8) << i;
  }
  EXPECT_EQ(engine.pooled_contexts(), 1u);
}

TEST(ArspEngineTest, BatchReportsPerRequestErrors) {
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(10, 2, 3, 0.0, 18));
  std::vector<QueryRequest> requests;
  requests.push_back(WrRequest(handle, 3, 18, "kdtt+"));
  // dual-2d-ms needs d=2 single-instance data: clean FailedPrecondition.
  requests.push_back(WrRequest(handle, 3, 18, "dual-2d-ms"));
  requests.push_back(WrRequest(DatasetHandle{1234}, 3, 18));
  const auto outcomes = SolveConcurrently(engine, requests);
  EXPECT_TRUE(outcomes[0].ok());
  ASSERT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].status().code(), StatusCode::kFailedPrecondition);
  ASSERT_FALSE(outcomes[2].ok());
  EXPECT_EQ(outcomes[2].status().code(), StatusCode::kNotFound);
}

// ----------------------------------------------------------- auto selection

TEST(AutoSelection, RespectsCapabilityFlags) {
  // Every shape resolves to a solver whose ValidateContext accepts it:
  // LOOP up to 64 instances, KDTT+ above. Weight ratios follow the same
  // rule — d=3, multi-instance d=2 and single-instance d=2 (where
  // DUAL-2D-MS applies) all resolve like a general region, and the DUAL
  // family is never handed out.
  struct Case {
    UncertainDataset dataset;
    bool ratios;
    const char* want;
  };
  std::vector<Case> cases;
  cases.push_back({RandomDataset(10, 1, 2, 0.0, 19), false, "loop"});
  cases.push_back({RandomDataset(200, 1, 2, 0.0, 19), false, "kdtt+"});
  cases.push_back({RandomDataset(20, 3, 3, 0.0, 20), true, "loop"});
  cases.push_back({RandomDataset(70, 3, 3, 0.0, 20), true, "kdtt+"});
  cases.push_back({RandomDataset(20, 3, 2, 0.0, 21), true, "loop"});
  cases.push_back({RandomDataset(70, 3, 2, 0.0, 21), true, "kdtt+"});
  cases.push_back({RandomDataset(40, 1, 2, 0.5, 22), true, "loop"});
  cases.push_back({RandomDataset(500, 1, 2, 0.5, 22), true, "kdtt+"});
  for (const Case& c : cases) {
    const int dim = c.dataset.dim();
    const std::unique_ptr<ExecutionContext> context =
        c.ratios
            ? std::make_unique<ExecutionContext>(c.dataset, RandomWr(dim, 20))
            : std::make_unique<ExecutionContext>(c.dataset, WrRegion(dim, 1));
    const std::string choice = AutoSelectSolverName(*context);
    EXPECT_EQ(choice, c.want) << "n=" << c.dataset.num_instances()
                              << " d=" << dim << " ratios=" << c.ratios;
    auto solver = SolverRegistry::Create(choice);
    ASSERT_TRUE(solver.ok());
    EXPECT_TRUE((*solver)->ValidateContext(*context).ok());
    EXPECT_EQ((*solver)->capabilities() & kCapRequiresWeightRatios, 0u);
  }
}

TEST(AutoSelection, EngineResolvesAutoToConcreteSolverAndMatchesIt) {
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(70, 3, 3, 0.2, 23));
  auto auto_resp = engine.Solve(WrRequest(handle, 3, 23, "auto"));
  ASSERT_TRUE(auto_resp.ok());
  EXPECT_EQ(auto_resp->solver, "kdtt+");
  // An explicit request for the resolved solver shares the cache entry.
  auto explicit_resp = engine.Solve(WrRequest(handle, 3, 23, "kdtt+"));
  ASSERT_TRUE(explicit_resp.ok());
  EXPECT_TRUE(explicit_resp->cache_hit);
  EXPECT_EQ(explicit_resp->result.get(), auto_resp->result.get());
}

TEST(AutoSelection, AutoHitOnACachedExplicitResultBuildsNoContext) {
  // "auto" resolves from the view before the one cache probe, so an auto
  // request that an explicit solve already answered never acquires a
  // context.
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(70, 3, 3, 0.2, 28));
  ASSERT_TRUE(engine.Solve(WrRequest(handle, 3, 28, "kdtt+")).ok());

  obs::Trace trace(1, "engine_query");
  QueryRequest request = WrRequest(handle, 3, 28, "auto");
  request.derived.kind = DerivedKind::kTopKObjects;
  request.trace = &trace;
  auto response = engine.Solve(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->cache_hit);
  EXPECT_EQ(response->solver, "kdtt+");
  trace.Finish();
  std::vector<std::string> phases;
  for (const obs::Span& child : trace.root().children) {
    phases.push_back(child.name);
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"cache_probe", "goal_answer"}));
}

// The annotations of the first `index_setup` span in `span`'s tree.
std::map<std::string, std::string> IndexSetupNotes(const obs::Span& span) {
  if (span.name == "index_setup") {
    return {span.annotations.begin(), span.annotations.end()};
  }
  for (const obs::Span& child : span.children) {
    auto notes = IndexSetupNotes(child);
    if (!notes.empty()) return notes;
  }
  return {};
}

TEST(EngineTracing, IndexSetupCountsBuildsOnTheSharedArtifacts) {
  // A cold threshold pushdown solves the context it pools for its goal,
  // so its index_setup span shows that context's own score mapping and
  // nothing else. A cold view query solves a context for its view over the
  // base's pooled artifacts: the score rows are mapped over the base, and
  // the traced index_setup span must report that mapping.
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(70, 3, 3, 0.2, 31));
  {
    obs::Trace trace(1, "engine_query");
    QueryRequest request = WrRequest(handle, 3, 31, "kdtt+");
    request.derived.kind = DerivedKind::kObjectsAboveThreshold;
    request.derived.threshold = 0.5;
    request.trace = &trace;
    auto response = engine.Solve(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->pushdown);
    trace.Finish();
    const auto notes = IndexSetupNotes(trace.root());
    EXPECT_EQ(notes,
              (std::map<std::string, std::string>{{"score_maps", "1"}}));
  }
  {
    auto view = engine.AddView(handle, 35);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    obs::Trace trace(2, "engine_query");
    QueryRequest request = WrRequest(*view, 3, 32, "kdtt+");
    request.trace = &trace;
    auto response = engine.Solve(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    trace.Finish();
    const auto notes = IndexSetupNotes(trace.root());
    EXPECT_EQ(notes,
              (std::map<std::string, std::string>{{"score_maps", "1"}}));
  }
}

TEST(AutoSelection, SolverNamesAreCaseInsensitive) {
  // The registry lowercases lookups; engine-side resolution and cache keys
  // must agree, so "AUTO" resolves like "auto" and shares its entries.
  ArspEngine engine;
  const DatasetHandle handle =
      engine.AddDataset(RandomDataset(20, 3, 3, 0.0, 27));
  auto upper = engine.Solve(WrRequest(handle, 3, 27, "AUTO"));
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(upper->solver, "loop");
  auto lower = engine.Solve(WrRequest(handle, 3, 27, "Loop"));
  ASSERT_TRUE(lower.ok());
  EXPECT_TRUE(lower->cache_hit);
  EXPECT_EQ(lower->result.get(), upper->result.get());
}

// ------------------------------------------------------------ derived specs

TEST(ArspEngineTest, DerivedQueriesMatchQueriesH) {
  ArspEngine engine;
  const UncertainDataset dataset = RandomDataset(30, 3, 3, 0.2, 25);
  const DatasetHandle handle = engine.AddDataset(dataset);

  QueryRequest request = WrRequest(handle, 3, 25, "kdtt+");
  request.derived.kind = DerivedKind::kTopKInstances;
  request.derived.k = 7;
  auto top_instances = engine.Solve(request);
  ASSERT_TRUE(top_instances.ok());
  EXPECT_EQ(top_instances->ranked,
            TopKInstances(*top_instances->result, 7));

  request.derived.kind = DerivedKind::kObjectsAboveThreshold;
  request.derived.threshold = 0.25;
  auto above = engine.Solve(request);
  ASSERT_TRUE(above.ok());
  EXPECT_TRUE(above->cache_hit);  // derived spec is not part of the key
  EXPECT_EQ(above->ranked,
            ObjectsAboveThreshold(*above->result, dataset, 0.25));

  request.derived.kind = DerivedKind::kCountControlled;
  request.derived.max_objects = 5;
  auto controlled = engine.Solve(request);
  ASSERT_TRUE(controlled.ok());
  EXPECT_EQ(controlled->count_threshold,
            ThresholdForObjectCount(*controlled->result, dataset, 5));
  EXPECT_EQ(controlled->ranked,
            ObjectsAboveThreshold(*controlled->result, dataset,
                                  controlled->count_threshold));
  EXPECT_GE(controlled->ranked.size(), 5u);  // ties only ever extend
}

// ------------------------------------------------------------ spec parsing

TEST(ParseConstraintSpecTest, ParsesWeightRatiosAndRank) {
  auto wr = ParseConstraintSpec("wr:0.5,2.0", 2);
  ASSERT_TRUE(wr.ok());
  EXPECT_TRUE(wr->has_weight_ratios());
  EXPECT_DOUBLE_EQ(wr->weight_ratios().lo(0), 0.5);
  EXPECT_DOUBLE_EQ(wr->weight_ratios().hi(0), 2.0);

  auto rank = ParseConstraintSpec("rank:2", 3);
  ASSERT_TRUE(rank.ok());
  EXPECT_FALSE(rank->has_weight_ratios());
  EXPECT_EQ(rank->region().dim(), 3);

  EXPECT_FALSE(ParseConstraintSpec("wr:0.5", 2).ok());       // odd values
  EXPECT_FALSE(ParseConstraintSpec("wr:0.5,2.0", 3).ok());   // wrong arity
  EXPECT_FALSE(ParseConstraintSpec("wr:0.5,,2.0", 2).ok());  // empty token
  EXPECT_FALSE(ParseConstraintSpec("wr:0.5,2.0,", 2).ok());  // trailing comma
  EXPECT_FALSE(ParseConstraintSpec("wr:", 2).ok());          // no values
  EXPECT_FALSE(ParseConstraintSpec("wr:1x,2.0", 2).ok());    // non-numeric
  EXPECT_FALSE(ParseConstraintSpec("rank:5", 3).ok());       // out of range
  EXPECT_FALSE(ParseConstraintSpec("rank:two", 3).ok());     // non-numeric
  EXPECT_FALSE(ParseConstraintSpec("rank:", 3).ok());        // empty count
  EXPECT_FALSE(ParseConstraintSpec("linear:1,2", 2).ok());   // unknown family
}

TEST(ParseConstraintSpecTest, CacheKeysDiscriminate) {
  const auto a = ParseConstraintSpec("wr:0.5,2.0", 2);
  const auto b = ParseConstraintSpec("wr:0.5,2.5", 2);
  const auto c = ParseConstraintSpec("rank:1", 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->CacheKey(), b->CacheKey());
  EXPECT_NE(a->CacheKey(), c->CacheKey());
  EXPECT_EQ(a->CacheKey(), ParseConstraintSpec("wr:0.5,2.0", 2)->CacheKey());
  EXPECT_TRUE(ConstraintSpec().CacheKey().empty());
}

}  // namespace
}  // namespace arsp
