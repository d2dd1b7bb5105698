// Copyright 2026 The ARSP Authors.
//
// Unit tests for the solver abstraction itself: registry lookup, capability
// flag rejection (a solver handed a context it cannot serve must return a
// clean Status, never compute garbage), the typed option bag, preprocessing
// reuse through ExecutionContext, and instrumentation.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/solver.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RandomWr;
using testing_util::WrRegion;

TEST(SolverRegistry, NamesCoverAllEightFamilies) {
  const std::vector<std::string> names = SolverRegistry::Names();
  const std::vector<std::string> expected = {
      "auto", "bnb", "dual", "dual-2d-ms", "enum",
      "kdtt", "kdtt+", "loop", "mwtt", "qdtt+"};
  EXPECT_EQ(names, expected);
  // The registry's names sit in a table apart from each solver's own
  // name(): a swapped row would hand out the wrong algorithm under a name
  // the engine echoes back unchecked.
  for (const std::string& name : names) {
    auto solver = SolverRegistry::Create(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ((*solver)->name(), name);
  }
}

TEST(SolverRegistry, UnknownNameIsNotFoundAndListsAlternatives) {
  auto solver = SolverRegistry::Create("kdtt++");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kNotFound);
  EXPECT_NE(solver.status().message().find("kdtt+"), std::string::npos);
}

TEST(SolverRegistry, LookupIsCaseInsensitive) {
  auto solver = SolverRegistry::Create("KDTT+");
  ASSERT_TRUE(solver.ok());
  EXPECT_STREQ((*solver)->name(), "kdtt+");
}

TEST(SolverRegistry, DisplayNamesMatchThePaper) {
  const std::pair<const char*, const char*> expected[] = {
      {"loop", "LOOP"},   {"kdtt", "KDTT"}, {"kdtt+", "KDTT+"},
      {"qdtt+", "QDTT+"}, {"bnb", "B&B"},   {"dual", "DUAL"},
      {"mwtt", "MWTT"},   {"enum", "ENUM"}, {"dual-2d-ms", "DUAL-2D-MS"}};
  for (const auto& [name, display] : expected) {
    auto solver = SolverRegistry::Create(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_STREQ((*solver)->display_name(), display);
  }
}

// ---------------------------------------------------------------- capability
// flag rejection

TEST(Capabilities, DualOnGeneralRegionFailsCleanly) {
  const UncertainDataset dataset = RandomDataset(10, 2, 3, 0.0, 1);
  ExecutionContext context(dataset, WrRegion(3, 2));
  auto dual = SolverRegistry::Create("dual");
  ASSERT_TRUE(dual.ok());
  auto result = (*dual)->Solve(context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("weight-ratio"),
            std::string::npos);
}

TEST(Capabilities, Dual2dMsRejectsHigherDimensions) {
  const UncertainDataset dataset = RandomDataset(10, 1, 3, 0.0, 2);
  ExecutionContext context(dataset, RandomWr(3, 2));
  auto solver = SolverRegistry::Create("dual-2d-ms");
  ASSERT_TRUE(solver.ok());
  auto result = (*solver)->Solve(context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Capabilities, Dual2dMsRejectsMultiInstanceObjects) {
  const UncertainDataset dataset = RandomDataset(10, 3, 2, 0.0, 3);
  ExecutionContext context(dataset, RandomWr(2, 3));
  auto solver = SolverRegistry::Create("dual-2d-ms");
  ASSERT_TRUE(solver.ok());
  auto result = (*solver)->Solve(context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Capabilities, QdttRejectsMoreVerticesThanQuadrantCodesHold) {
  // Seven ratio ranges in d = 8 span a 2^7 = 128-vertex region: more
  // mapped dimensions than a 64-bit quadrant code holds.
  const UncertainDataset dataset = RandomDataset(10, 2, 8, 0.0, 6);
  ExecutionContext context(dataset, RandomWr(8, 6));
  ASSERT_GT(context.region().num_vertices(), 63);
  auto solver = SolverRegistry::Create("qdtt+");
  ASSERT_TRUE(solver.ok());
  auto result = (*solver)->Solve(context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("63"), std::string::npos);
}

TEST(Capabilities, GeneralSolversAcceptWeightRatioContexts) {
  // A weight-ratio context serves general-F solvers through the lazily
  // derived preference region.
  const UncertainDataset dataset = RandomDataset(10, 2, 2, 0.0, 4);
  ExecutionContext context(dataset, RandomWr(2, 4));
  for (const char* name : {"kdtt+", "loop", "bnb"}) {
    auto solver = SolverRegistry::Create(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_TRUE((*solver)->Solve(context).ok()) << name;
  }
}

// ------------------------------------------------------------------- options

TEST(Options, UnknownKeyIsRejected) {
  auto solver = SolverRegistry::Create(
      "kdtt+", SolverOptions().SetInt("fanout", 8));
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solver.status().message().find("fanout"), std::string::npos);
}

TEST(Options, FrontierDepthIsNotAnOption) {
  // The traversal solvers derive the parallel frontier depth from the
  // worker count and their branching factor.
  for (const char* name : {"kdtt", "kdtt+", "qdtt+", "mwtt"}) {
    auto solver = SolverRegistry::Create(
        name, SolverOptions().SetInt("frontier_depth", 4));
    ASSERT_FALSE(solver.ok()) << name;
    EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(Options, TypeMismatchIsRejected) {
  auto solver = SolverRegistry::Create(
      "mwtt", SolverOptions().SetString("fanout", "eight"));
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument);
}

TEST(Options, OutOfRangeValueIsRejected) {
  // Each is rejected in Configure, before a value can wrap to another int,
  // reach a fatal CHECK, or size a tree's nodes: a daemon hands client
  // options straight to the registry.
  const std::pair<const char*, const char*> cases[] = {
      {"mwtt", "fanout=1"},
      {"mwtt", "fanout=1025"},
      {"mwtt", "fanout=2147483648"},
      {"bnb", "rtree_fanout=3"},
      {"bnb", "rtree_fanout=1025"},
      {"bnb", "rtree_fanout=1073741824"},
      {"bnb", "rtree_fanout=2147483648"},
      {"bnb", "parallelism=4294967298"},
      {"enum", "max_worlds=nan"},
      {"kdtt+", "parallelism=4294967298"},
  };
  for (const auto& [name, spec] : cases) {
    SolverOptions options;
    ASSERT_TRUE(options.ParseKeyValue(spec).ok()) << spec;
    auto solver = SolverRegistry::Create(name, options);
    ASSERT_FALSE(solver.ok()) << name << " " << spec;
    EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument)
        << name << " " << spec;
  }
}

TEST(Options, ConfiguredOptionsChangeBehaviour) {
  const UncertainDataset dataset = RandomDataset(30, 3, 3, 0.0, 5);
  const PreferenceRegion region = WrRegion(3, 2);
  ExecutionContext context(dataset, region);

  auto narrow = SolverRegistry::Create(
      "mwtt", SolverOptions().SetInt("fanout", 2));
  auto wide = SolverRegistry::Create(
      "mwtt", SolverOptions().SetInt("fanout", 32));
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  SolverStats narrow_stats;
  SolverStats wide_stats;
  auto narrow_result =
      (*narrow)->Solve(context, QueryGoal::Full(), &narrow_stats);
  auto wide_result = (*wide)->Solve(context, QueryGoal::Full(), &wide_stats);
  ASSERT_TRUE(narrow_result.ok());
  ASSERT_TRUE(wide_result.ok());
  EXPECT_LT(MaxAbsDiff(*narrow_result, *wide_result), 1e-10);
  // The fan-out changes the tree shape.
  EXPECT_NE(narrow_stats.nodes_visited, wide_stats.nodes_visited);
}

TEST(Options, ParseKeyValueInfersTypes) {
  SolverOptions options;
  ASSERT_TRUE(options.ParseKeyValue("fanout=8").ok());
  ASSERT_TRUE(options.ParseKeyValue("pruning=false").ok());
  ASSERT_TRUE(options.ParseKeyValue("ratio=1.5").ok());
  ASSERT_TRUE(options.ParseKeyValue("mode=fused").ok());
  EXPECT_FALSE(options.ParseKeyValue("no-equals-sign").ok());
  // Overflowing numbers are rejected, not silently clamped.
  EXPECT_FALSE(options.ParseKeyValue("n=99999999999999999999").ok());
  EXPECT_FALSE(options.ParseKeyValue("x=1e999").ok());
  EXPECT_EQ(options.IntOr("fanout", 0).value(), 8);
  EXPECT_FALSE(options.BoolOr("pruning", true).value());
  EXPECT_DOUBLE_EQ(options.DoubleOr("ratio", 0.0).value(), 1.5);
  EXPECT_EQ(options.StringOr("mode", "").value(), "fused");
  // Ints widen to double, but not the reverse.
  EXPECT_DOUBLE_EQ(options.DoubleOr("fanout", 0.0).value(), 8.0);
  EXPECT_FALSE(options.IntOr("ratio", 0).ok());
}

TEST(Options, CacheKeyIsInjective) {
  // Delimiter characters inside string values must not let two distinct
  // bags render the same cache key (they are length-prefixed).
  SolverOptions smuggled;
  smuggled.SetString("a", "x;b=bool:true");
  SolverOptions split;
  split.SetString("a", "x");
  split.SetBool("b", true);
  EXPECT_NE(smuggled.CacheKey(), split.CacheKey());
  SolverOptions same;
  same.SetString("a", "x;b=bool:true");
  EXPECT_EQ(smuggled.CacheKey(), same.CacheKey());
  EXPECT_TRUE(SolverOptions().CacheKey().empty());
}

// ------------------------------------------------- context reuse and stats

TEST(ExecutionContextTest, PreprocessingIsComputedOnceAndShared) {
  const UncertainDataset dataset = RandomDataset(20, 3, 3, 0.0, 6);
  ExecutionContext context(dataset, WrRegion(3, 2));
  const ScoreSpan scores = context.scores();
  EXPECT_EQ(scores.coords, context.scores().coords);  // same storage
  EXPECT_EQ(scores.n, dataset.num_instances());
  EXPECT_EQ(&context.instance_kdtree(), &context.instance_kdtree());

  // A second solver on the same context pays zero setup: everything lazy
  // was already computed by the first.
  auto first = SolverRegistry::Create("kdtt+");
  auto second = SolverRegistry::Create("qdtt+");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE((*first)->Solve(context).ok());
  SolverStats stats;
  ASSERT_TRUE((*second)->Solve(context, QueryGoal::Full(), &stats).ok());
  EXPECT_EQ(stats.solver, "qdtt+");
  EXPECT_EQ(stats.setup_millis, 0.0);
}

TEST(ExecutionContextTest, StatsMirrorResultCounters) {
  const UncertainDataset dataset = RandomDataset(20, 3, 3, 0.0, 7);
  ExecutionContext context(dataset, WrRegion(3, 2));
  auto solver = SolverRegistry::Create("kdtt+");
  ASSERT_TRUE(solver.ok());
  SolverStats stats;
  auto result = (*solver)->Solve(context, QueryGoal::Full(), &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.solver, "kdtt+");
  EXPECT_EQ(stats.dominance_tests, result->dominance_tests);
  EXPECT_EQ(stats.nodes_visited, result->nodes_visited);
  EXPECT_GT(stats.nodes_visited, 0);
  EXPECT_GE(stats.solve_millis, stats.setup_millis);
  EXPECT_NE(stats.ToString().find("solver=kdtt+"), std::string::npos);
}

TEST(ExecutionContextTest, RtreeIsCachedPerFanout) {
  // Regression: a single cached slot used to rebuild the R-tree on every
  // fan-out alternation; now each fan-out keeps its own tree (up to the
  // kMaxCachedRtrees bound, evicting safely via shared ownership).
  const UncertainDataset dataset = RandomDataset(20, 3, 2, 0.0, 60);
  ExecutionContext context(dataset, WrRegion(2, 1));
  const auto narrow = context.instance_rtree(4);
  const auto wide = context.instance_rtree(32);
  EXPECT_NE(narrow.get(), wide.get());
  // Alternating fan-outs returns the identical trees — no rebuilds.
  EXPECT_EQ(context.instance_rtree(4).get(), narrow.get());
  EXPECT_EQ(context.instance_rtree(32).get(), wide.get());
  EXPECT_EQ(context.instance_rtree(4).get(), narrow.get());
  EXPECT_EQ(narrow->size(), dataset.num_instances());
  EXPECT_EQ(wide->size(), dataset.num_instances());
  // Flooding with distinct fan-outs stays bounded, and a previously handed
  // out tree survives eviction through its shared_ptr.
  const int flood =  // RTree requires fan-out >= 4
      4 + 2 * static_cast<int>(ExecutionContext::kMaxCachedRtrees);
  for (int fanout = 4; fanout < flood; ++fanout) {
    EXPECT_EQ(context.instance_rtree(fanout)->size(),
              dataset.num_instances());
  }
  EXPECT_EQ(narrow->size(), dataset.num_instances());  // still alive
}

TEST(ExecutionContextTest, StatsAreFreshPerRunOnReusedContext) {
  // A pooled context serves many queries; each run's stats must start from
  // zero instead of accumulating counters across runs.
  const UncertainDataset dataset = RandomDataset(25, 3, 3, 0.2, 61);
  ExecutionContext context(dataset, WrRegion(3, 2));
  auto solver = SolverRegistry::Create("kdtt+");
  ASSERT_TRUE(solver.ok());
  SolverStats first;
  SolverStats second;
  ASSERT_TRUE((*solver)->Solve(context, QueryGoal::Full(), &first).ok());
  ASSERT_TRUE((*solver)->Solve(context, QueryGoal::Full(), &second).ok());
  EXPECT_GT(first.nodes_visited, 0);
  EXPECT_EQ(first.nodes_visited, second.nodes_visited);  // not doubled
  EXPECT_EQ(first.dominance_tests, second.dominance_tests);
  EXPECT_GT(first.setup_millis, 0.0);   // this run built the mapping
  EXPECT_EQ(second.setup_millis, 0.0);  // everything already cached
}

TEST(ExecutionContextTest, WeightRatioAccessorRequiresWrContext) {
  const UncertainDataset dataset = RandomDataset(5, 1, 2, 0.0, 8);
  ExecutionContext wr_context(dataset, RandomWr(2, 8));
  EXPECT_TRUE(wr_context.has_weight_ratios());
  EXPECT_EQ(wr_context.weight_ratios().dim(), 2);
  EXPECT_EQ(wr_context.region().dim(), 2);  // derived lazily

  ExecutionContext region_context(dataset, WrRegion(2, 1));
  EXPECT_FALSE(region_context.has_weight_ratios());
}

}  // namespace
}  // namespace arsp
