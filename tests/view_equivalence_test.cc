// Copyright 2026 The ARSP Authors.
//
// View-vs-copy equivalence: for random datasets and prefix views, every
// registry solver run on a DatasetView must agree with the same solver run
// on the materialized copy of that view — both as a standalone view context
// and as a context over a full-view context's artifacts (ForView, the path
// the engine's pool takes), and those two must give the same bits: one
// view, one answer. Plus SoA-vs-AoS ScoreMapper identity (bit-exact), the
// score spans' base columns, and the zero-copy artifact-sharing property
// itself.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/core/solver.h"
#include "src/prefs/score_mapper.h"
#include "src/uncertain/dataset_view.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RandomWr;

// A view context and the copy's perform identical arithmetic on identical
// values, except that indexes over the base and over the copy differ in
// shape: B&B may drain tied heap entries and DUAL may visit kd leaves in a
// different order (summation order inside σ), so view-vs-copy agreement is
// asserted to a tight tolerance rather than bit-exactly. The two view
// contexts share the base's indexes and must agree bit for bit.
constexpr double kTol = 1e-12;

ArspResult MustSolve(const std::string& name, ExecutionContext& context) {
  auto solver = SolverRegistry::Create(name);
  ARSP_CHECK(solver.ok());
  auto result = (*solver)->Solve(context);
  ARSP_CHECK_MSG(result.ok(), "%s: %s", name.c_str(),
                 result.status().ToString().c_str());
  return std::move(result).value();
}

// Runs every registry solver (skipping those whose capability flags reject
// the context — both paths must agree on that too) on:
//   (a) the materialized copy,
//   (b) a standalone context over the view,
//   (c) a context for the view over a full-view context's artifacts,
// and asserts (a) ≈ (b) and (a) ≈ (c) to kTol, and (b) == (c) bit for bit.
void CheckAllSolvers(const std::shared_ptr<const UncertainDataset>& base,
                     int num_objects) {
  SCOPED_TRACE(std::to_string(num_objects) + " objects");
  auto view = DatasetView::Create(base, num_objects);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const UncertainDataset copy = view->Materialize();

  const WeightRatioConstraints wr = RandomWr(base->dim(), 991);
  const PreferenceRegion region = PreferenceRegion::FromWeightRatios(wr);

  for (const std::string& name : SolverRegistry::Names()) {
    auto probe = SolverRegistry::Create(name);
    ASSERT_TRUE(probe.ok());
    const uint32_t caps = (*probe)->capabilities();
    // ENUM on the larger specs would blow the world budget; it is covered
    // by the small cases.
    if ((caps & kCapExponentialTime) && view->NumPossibleWorlds() > 5e5) {
      continue;
    }
    const bool use_wr = (caps & kCapRequiresWeightRatios) != 0;

    auto make_copy_context = [&]() {
      return use_wr ? std::make_unique<ExecutionContext>(copy, wr)
                    : std::make_unique<ExecutionContext>(copy, region);
    };
    auto make_view_context = [&]() {
      return use_wr ? std::make_unique<ExecutionContext>(*view, wr)
                    : std::make_unique<ExecutionContext>(*view, region);
    };
    auto full = use_wr ? std::make_shared<ExecutionContext>(
                             DatasetView(base), wr)
                       : std::make_shared<ExecutionContext>(
                             DatasetView(base), region);

    auto copy_context = make_copy_context();
    const Status copy_ok = (*probe)->ValidateContext(*copy_context);
    auto view_context = make_view_context();
    const Status view_ok = (*probe)->ValidateContext(*view_context);
    // The view and its materialization have identical shape, so the solver
    // must accept or reject both.
    ASSERT_EQ(copy_ok.ok(), view_ok.ok()) << name;
    if (!copy_ok.ok()) continue;

    const ArspResult on_copy = MustSolve(name, *copy_context);
    const ArspResult standalone = MustSolve(name, *view_context);
    EXPECT_LE(MaxAbsDiff(on_copy, standalone), kTol)
        << name << " standalone view vs copy";

    auto shared = full->ForView(*view);
    const ArspResult via_shared = MustSolve(name, *shared);
    EXPECT_LE(MaxAbsDiff(on_copy, via_shared), kTol)
        << name << " shared view vs copy";
    ASSERT_EQ(standalone.instance_probs.size(),
              via_shared.instance_probs.size());
    EXPECT_EQ(std::memcmp(standalone.instance_probs.data(),
                          via_shared.instance_probs.data(),
                          standalone.instance_probs.size() * sizeof(double)),
              0)
        << name << " standalone view vs shared view";
  }
}

TEST(ViewEquivalence, PrefixViewsSmall2d) {
  auto base = std::make_shared<const UncertainDataset>(
      RandomDataset(8, 1, 2, 0.5, 101));  // single-instance: dual-2d-ms runs
  for (int count : {1, 3, 8}) {
    CheckAllSolvers(base, count);
  }
}

TEST(ViewEquivalence, PrefixViewsMultiInstance3d) {
  auto base = std::make_shared<const UncertainDataset>(
      RandomDataset(30, 3, 3, 0.3, 103));
  for (int count : {7, 19, 30}) {
    CheckAllSolvers(base, count);
  }
}

TEST(ViewEquivalence, DuplicateProneGridData) {
  // Grid-snapped coordinates produce exact ties and duplicates — the cases
  // where leaf/chi handling and tie batching must agree across paths.
  auto base = std::make_shared<const UncertainDataset>(
      RandomDataset(20, 3, 2, 0.4, 105, /*grid=*/true));
  CheckAllSolvers(base, 11);
  CheckAllSolvers(base, 17);
}

// ---------------------------------------------------------- SoA identity

TEST(ScoreMapperSoA, MapViewMatchesAosMapBitExactly) {
  const UncertainDataset dataset = RandomDataset(25, 3, 3, 0.2, 106);
  const PreferenceRegion region = testing_util::WrRegion(3, 2);
  const ScoreMapper mapper(region);
  const DatasetView view(dataset);
  const ScoreBuffer buffer = mapper.MapView(view);
  ASSERT_EQ(buffer.size(), dataset.num_instances());
  ASSERT_EQ(buffer.dim, mapper.mapped_dim());
  for (int i = 0; i < buffer.size(); ++i) {
    const Point aos = mapper.Map(dataset.instance(i).point);  // AoS path
    const double* soa = buffer.row(i);
    for (int k = 0; k < buffer.dim; ++k) {
      EXPECT_EQ(aos[k], soa[k]) << "instance " << i << " coord " << k;
    }
  }
}

TEST(ScoreMapperSoA, ContextSpansReadTheBaseColumnsForFullAndPrefixViews) {
  // Scores hold mapped coordinates only: a view's ids are its base's, so a
  // context's span reads the probabilities and object ids straight from
  // the base's columns, and its coordinates are the view's mapped rows.
  const auto dataset = std::make_shared<const UncertainDataset>(
      RandomDataset(30, 3, 3, 0.2, 109));
  const PreferenceRegion region = testing_util::WrRegion(3, 2);
  const ScoreMapper mapper(region);
  for (const int num_objects : {dataset->num_objects(), 12}) {
    SCOPED_TRACE(std::to_string(num_objects) + " objects");
    const DatasetView view = DatasetView::Create(dataset, num_objects).value();
    ExecutionContext context(view, region);
    const ScoreSpan span = context.scores();
    const int n = view.num_instances();
    const int dim = mapper.mapped_dim();
    ASSERT_EQ(span.n, n);
    ASSERT_EQ(span.dim, dim);
    EXPECT_EQ(span.probs, dataset->probs_column().data());
    EXPECT_EQ(span.objects, dataset->instance_objects_column().data());
    std::vector<double> coords(static_cast<size_t>(n * dim));
    for (int i = 0; i < n; ++i) {
      mapper.MapRowInto(view.coords(i), &coords[static_cast<size_t>(i * dim)]);
    }
    EXPECT_EQ(std::memcmp(span.coords, coords.data(),
                          coords.size() * sizeof(double)), 0);
  }
}

// --------------------------------------------- zero-copy artifact sharing

TEST(ZeroCopyDataPlane, ViewsOfOneBaseShareTheArtifactsByPointer) {
  auto base = std::make_shared<const UncertainDataset>(
      RandomDataset(20, 3, 3, 0.0, 108));
  const PreferenceRegion region = testing_util::WrRegion(3, 2);
  const DatasetView prefix = DatasetView::Create(base, 9).value();
  auto first = std::make_shared<ExecutionContext>(prefix, region);
  // No containment: the artifacts cover the base, so a context over the
  // 9-object prefix can serve the whole base too.
  auto second = first->ForView(DatasetView(base));

  const ScoreSpan first_span = first->scores();
  const ScoreSpan second_span = second->scores();
  // Both spans alias one buffer, mapped once over the whole base.
  EXPECT_EQ(first_span.coords, second_span.coords);
  EXPECT_EQ(first_span.probs, second_span.probs);
  EXPECT_EQ(first_span.objects, second_span.objects);
  EXPECT_EQ(first_span.n, prefix.num_instances());
  EXPECT_EQ(second_span.n, base->num_instances());
  EXPECT_LT(first_span.n, second_span.n);

  // Index sharing: one kd-tree and one R-tree, by pointer.
  EXPECT_EQ(&first->instance_kdtree(), &second->instance_kdtree());
  EXPECT_EQ(first->instance_rtree(16).get(), second->instance_rtree(16).get());

  // One build of each, counted once on the artifacts both contexts share.
  for (const ExecutionContext* context : {first.get(), second.get()}) {
    const auto stats = context->index_build_stats();
    EXPECT_EQ(stats.score_maps, 1);
    EXPECT_EQ(stats.kdtree_builds, 1);
    EXPECT_EQ(stats.rtree_builds, 1);
    EXPECT_EQ(stats.snapshot_hits, 0);
  }
}

TEST(ZeroCopyDataPlane, ForViewRejectsAForeignBase) {
  // Equal contents, distinct datasets: artifacts belong to one base object.
  auto base = std::make_shared<const UncertainDataset>(
      RandomDataset(10, 2, 2, 0.0, 109));
  auto twin = std::make_shared<const UncertainDataset>(
      RandomDataset(10, 2, 2, 0.0, 109));
  const PreferenceRegion region = testing_util::WrRegion(2, 1);
  const ExecutionContext context(DatasetView::Create(base, 4).value(),
                                 region);
  EXPECT_DEATH(context.ForView(DatasetView(twin)), "different base");
}

}  // namespace
}  // namespace arsp
