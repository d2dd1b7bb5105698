// Copyright 2026 The ARSP Authors.
//
// Engine-level tests of the zero-copy data plane: AddView handles, the
// Fig. 6-style m% sweep invariant (exactly one full kd-/R-tree build plus
// per-view delta work, no TakeObjects copies anywhere on the path), view
// result-cache fingerprints, derived queries carrying base object ids, and
// DropDataset cascade semantics.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/core/engine.h"
#include "src/uncertain/generators.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;

ExecutionContext::IndexBuildStats SweepStats(
    const ArspEngine& engine, DatasetHandle base,
    const std::vector<DatasetHandle>& views) {
  ExecutionContext::IndexBuildStats total = engine.index_stats(base);
  for (const DatasetHandle& v : views) {
    total += engine.index_stats(v);
  }
  return total;
}

TEST(EngineViewTest, AddViewValidation) {
  ArspEngine engine;
  const DatasetHandle base =
      engine.AddDataset(RandomDataset(10, 2, 2, 0.0, 21));
  EXPECT_FALSE(engine.AddView(DatasetHandle{999}, ViewSpec::Prefix(1)).ok());
  EXPECT_FALSE(engine.AddView(base, ViewSpec::Prefix(11)).ok());
  auto view = engine.AddView(base, ViewSpec::Prefix(5));
  ASSERT_TRUE(view.ok());
  // Views of views are rejected with a pointer back to the base.
  auto nested = engine.AddView(*view, ViewSpec::Prefix(2));
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.view(*view).num_objects(), 5);
  EXPECT_EQ(engine.dataset(*view).get(), engine.dataset(base).get());
}

// The acceptance-criterion test: a 10%..100% prefix sweep through the
// engine performs exactly ONE full kd-tree build (DUAL sweep) and ONE full
// R-tree bulk load (B&B sweep); every view run is served through the base
// context's indexes and score storage.
TEST(EngineViewTest, PrefixSweepBuildsIndexesExactlyOnce) {
  ArspEngine engine;
  const UncertainDataset data = RandomDataset(40, 2, 3, 0.2, 22);
  const int m = data.num_objects();
  const DatasetHandle base = engine.AddDataset(data);

  const auto wr = testing_util::RandomWr(3, 22);
  const auto region = testing_util::WrRegion(3, 2);

  std::vector<DatasetHandle> views;
  for (int pct = 10; pct <= 100; pct += 10) {
    auto view = engine.AddView(
        base, ViewSpec::Prefix(std::max(1, m * pct / 100)));
    ASSERT_TRUE(view.ok());
    views.push_back(*view);
  }

  // DUAL probes the shared kd-tree on every view of the sweep.
  for (const DatasetHandle& v : views) {
    QueryRequest request;
    request.dataset = v;
    request.constraints = ConstraintSpec::WeightRatios(wr);
    request.solver = "dual";
    request.use_cache = false;  // every step really solves
    ASSERT_TRUE(engine.Solve(request).ok());
  }
  ExecutionContext::IndexBuildStats stats = SweepStats(engine, base, views);
  EXPECT_EQ(stats.kdtree_builds, 1);  // ONE full build for the whole sweep
  EXPECT_GE(stats.parent_index_hits, static_cast<int64_t>(views.size()));

  // B&B walks the shared R-tree; KDTT+ iterates shared score spans.
  for (const DatasetHandle& v : views) {
    for (const char* solver : {"bnb", "kdtt+"}) {
      QueryRequest request;
      request.dataset = v;
      request.constraints = ConstraintSpec::Region(region);
      request.solver = solver;
      request.use_cache = false;
      ASSERT_TRUE(engine.Solve(request).ok());
    }
  }
  stats = SweepStats(engine, base, views);
  EXPECT_EQ(stats.rtree_builds, 1);   // ONE bulk load for the whole sweep
  EXPECT_EQ(stats.kdtree_builds, 1);  // unchanged by the region sweep
  // Score storage: one full SoA mapping per constraint family on the base
  // context; every view run reuses it (prefix spans are zero-copy).
  EXPECT_LE(stats.score_maps, 2);
  EXPECT_GE(stats.score_reuses, static_cast<int64_t>(views.size()));
}

TEST(EngineViewTest, FullSpecViewDerivesInsteadOfRebuilding) {
  // A Full-spec view is still a view handle: its pooled queries must
  // derive from the base context, not pay a duplicate full build.
  ArspEngine engine;
  const DatasetHandle base =
      engine.AddDataset(RandomDataset(20, 2, 3, 0.0, 30));
  auto alias = engine.AddView(base, ViewSpec::Full());
  ASSERT_TRUE(alias.ok());
  const auto wr = testing_util::RandomWr(3, 30);
  for (const DatasetHandle handle : {base, *alias}) {
    QueryRequest request;
    request.dataset = handle;
    request.constraints = ConstraintSpec::WeightRatios(wr);
    request.solver = "dual";
    request.use_cache = false;
    ASSERT_TRUE(engine.Solve(request).ok());
  }
  const ExecutionContext::IndexBuildStats stats =
      SweepStats(engine, base, {*alias});
  EXPECT_EQ(stats.kdtree_builds, 1);
  EXPECT_GE(stats.parent_index_hits, 1);
}

TEST(EngineViewTest, ViewResultsMatchMaterializedCopies) {
  ArspEngine engine;
  const UncertainDataset data = RandomDataset(25, 3, 3, 0.4, 23);
  const DatasetHandle base = engine.AddDataset(data);
  const auto region = testing_util::WrRegion(3, 1);

  for (int count : {6, 13, 25}) {
    auto view_handle = engine.AddView(base, ViewSpec::Prefix(count));
    ASSERT_TRUE(view_handle.ok());
    const DatasetHandle copy_handle =
        engine.AddDataset(TakeObjects(data, count));
    for (const char* solver : {"kdtt+", "loop", "bnb"}) {
      QueryRequest on_view;
      on_view.dataset = *view_handle;
      on_view.constraints = ConstraintSpec::Region(region);
      on_view.solver = solver;
      QueryRequest on_copy = on_view;
      on_copy.dataset = copy_handle;
      auto view_response = engine.Solve(on_view);
      auto copy_response = engine.Solve(on_copy);
      ASSERT_TRUE(view_response.ok());
      ASSERT_TRUE(copy_response.ok());
      EXPECT_LE(MaxAbsDiff(*view_response->result, *copy_response->result),
                1e-12)
          << solver << " prefix " << count;
    }
  }
}

TEST(EngineViewTest, CacheFingerprintsAreDistinctPerView) {
  ArspEngine engine;
  const DatasetHandle base =
      engine.AddDataset(RandomDataset(20, 2, 2, 0.0, 24));
  auto half = engine.AddView(base, ViewSpec::Prefix(10));
  auto full_view = engine.AddView(base, ViewSpec::Prefix(20));
  ASSERT_TRUE(half.ok());
  ASSERT_TRUE(full_view.ok());
  const auto region = testing_util::WrRegion(2, 1);

  auto solve = [&](DatasetHandle handle) {
    QueryRequest request;
    request.dataset = handle;
    request.constraints = ConstraintSpec::Region(region);
    request.solver = "kdtt+";
    auto response = engine.Solve(request);
    ARSP_CHECK(response.ok());
    return *std::move(response);
  };

  // Same constraints + solver on three different handles: all misses (the
  // handle id is part of the fingerprint), then each repeat hits its own
  // entry with the right payload size.
  const QueryResponse base_first = solve(base);
  const QueryResponse half_first = solve(*half);
  const QueryResponse full_first = solve(*full_view);
  EXPECT_FALSE(base_first.cache_hit);
  EXPECT_FALSE(half_first.cache_hit);
  EXPECT_FALSE(full_first.cache_hit);
  EXPECT_EQ(static_cast<int>(half_first.result->instance_probs.size()),
            engine.view(*half).num_instances());

  const QueryResponse half_again = solve(*half);
  EXPECT_TRUE(half_again.cache_hit);
  EXPECT_EQ(half_again.result.get(), half_first.result.get());
  const QueryResponse base_again = solve(base);
  EXPECT_TRUE(base_again.cache_hit);
  EXPECT_EQ(base_again.result.get(), base_first.result.get());
}

TEST(EngineViewTest, RankedResultsCarryBaseObjectIds) {
  ArspEngine engine;
  const UncertainDataset data = RandomDataset(12, 2, 2, 0.0, 25);
  const DatasetHandle base = engine.AddDataset(data);
  auto view = engine.AddView(base, ViewSpec::Subset({8, 9, 10, 11}));
  ASSERT_TRUE(view.ok());
  QueryRequest request;
  request.dataset = *view;
  request.constraints = ConstraintSpec::Region(testing_util::WrRegion(2, 1));
  request.derived.kind = DerivedKind::kTopKObjects;
  request.derived.k = -1;
  auto response = engine.Solve(request);
  ASSERT_TRUE(response.ok());
  ASSERT_FALSE(response->ranked.empty());
  std::set<int> allowed = {8, 9, 10, 11};
  for (const auto& [object, prob] : response->ranked) {
    EXPECT_TRUE(allowed.count(object)) << object;
  }
}

TEST(EngineViewTest, DroppingTheBaseCascadesToViews) {
  ArspEngine engine;
  const DatasetHandle base =
      engine.AddDataset(RandomDataset(10, 2, 2, 0.0, 26));
  auto view = engine.AddView(base, ViewSpec::Prefix(4));
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(engine.DropDataset(base).ok());
  EXPECT_EQ(engine.dataset(*view), nullptr);
  EXPECT_FALSE(engine.view(*view).valid());
  QueryRequest request;
  request.dataset = *view;
  request.constraints = ConstraintSpec::Region(testing_util::WrRegion(2, 1));
  auto response = engine.Solve(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  // Dropping a view leaves the base (and sibling views) alone.
  const DatasetHandle base2 =
      engine.AddDataset(RandomDataset(10, 2, 2, 0.0, 27));
  auto v1 = engine.AddView(base2, ViewSpec::Prefix(3));
  auto v2 = engine.AddView(base2, ViewSpec::Prefix(7));
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(engine.DropDataset(*v1).ok());
  EXPECT_NE(engine.dataset(base2), nullptr);
  EXPECT_TRUE(engine.view(*v2).valid());
}

TEST(EngineViewTest, ConcurrentViewSweepMatchesSerialAndBuildsOnce) {
  // Concurrent Solve calls over every prefix view at once: pool threads
  // race to create/derive contexts and first-touch the shared parent's
  // artifacts. Results must equal the serial ones and the sweep must still
  // perform exactly one full index build (TSan covers the data-race side).
  ArspEngine engine;
  const UncertainDataset data = RandomDataset(30, 2, 3, 0.2, 29);
  const DatasetHandle base = engine.AddDataset(data);
  const auto wr = testing_util::RandomWr(3, 29);

  std::vector<DatasetHandle> views;
  std::vector<QueryRequest> requests;
  for (int pct = 10; pct <= 100; pct += 10) {
    auto view = engine.AddView(
        base, ViewSpec::Prefix(std::max(1, data.num_objects() * pct / 100)));
    ASSERT_TRUE(view.ok());
    views.push_back(*view);
    QueryRequest request;
    request.dataset = *view;
    request.constraints = ConstraintSpec::WeightRatios(wr);
    request.solver = "dual";
    request.use_cache = false;
    requests.push_back(std::move(request));
  }

  const std::vector<StatusOr<QueryResponse>> batch =
      testing_util::SolveConcurrently(engine, requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    auto serial = engine.Solve(requests[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_LE(MaxAbsDiff(*batch[i]->result, *serial->result), 0.0);
  }
  const ExecutionContext::IndexBuildStats stats =
      SweepStats(engine, base, views);
  EXPECT_EQ(stats.kdtree_builds, 1);
}

TEST(EngineViewTest, AutoSelectionSeesTheViewShape) {
  // A big base with a tiny view: "auto" must pick by the view's instance
  // count (LOOP territory), not the base's.
  ArspEngine engine;
  const DatasetHandle base =
      engine.AddDataset(RandomDataset(200, 3, 3, 0.0, 28));
  auto tiny = engine.AddView(base, ViewSpec::Prefix(5));
  ASSERT_TRUE(tiny.ok());
  QueryRequest request;
  request.dataset = *tiny;
  request.constraints = ConstraintSpec::Region(testing_util::WrRegion(3, 1));
  request.solver = "auto";
  auto response = engine.Solve(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->solver, "loop");
}

}  // namespace
}  // namespace arsp
