// Copyright 2026 The ARSP Authors.
//
// DatasetView unit tests: object-count validation, accessor correctness
// against the base, recomputed bounds, possible-world counts, and
// Materialize (the explicit-copy escape hatch the zero-copy plane is
// measured against).

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "src/uncertain/dataset_view.h"
#include "src/uncertain/generators.h"
#include "src/uncertain/possible_worlds.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;

TEST(DatasetViewTest, FullViewMirrorsTheBase) {
  const UncertainDataset dataset = RandomDataset(12, 3, 3, 0.3, 11);
  const DatasetView view(dataset);
  EXPECT_EQ(view.num_objects(), dataset.num_objects());
  EXPECT_EQ(view.num_instances(), dataset.num_instances());
  EXPECT_EQ(view.dim(), dataset.dim());
  for (int i = 0; i < view.num_instances(); ++i) {
    // Zero-copy: the view's coords are the base's columnar storage rows.
    EXPECT_EQ(view.coords(i), dataset.coords(i));
    EXPECT_EQ(view.point(i), dataset.instance(i).point);
    EXPECT_EQ(view.prob(i), dataset.instance(i).prob);
    EXPECT_EQ(view.object_of(i), dataset.instance(i).object_id);
  }
  EXPECT_EQ(view.bounds().min_corner(), dataset.bounds().min_corner());
  EXPECT_EQ(view.bounds().max_corner(), dataset.bounds().max_corner());
  EXPECT_DOUBLE_EQ(view.NumPossibleWorlds(), dataset.NumPossibleWorlds());
}

TEST(DatasetViewTest, PrefixViewMatchesTakeObjects) {
  const UncertainDataset dataset = RandomDataset(15, 4, 2, 0.4, 12);
  for (int count : {1, 5, 15}) {
    auto view = DatasetView::Create(dataset, count);
    ASSERT_TRUE(view.ok());
    const UncertainDataset copy = TakeObjects(dataset, count);
    EXPECT_EQ(view->num_objects(), copy.num_objects());
    EXPECT_EQ(view->num_instances(), copy.num_instances());
    for (int j = 0; j < copy.num_objects(); ++j) {
      EXPECT_EQ(view->object_range(j), copy.object_range(j));
      EXPECT_DOUBLE_EQ(view->object_prob(j), copy.object_prob(j));
    }
    for (int i = 0; i < copy.num_instances(); ++i) {
      // Zero-copy: a prefix's rows are the base's first rows.
      EXPECT_EQ(view->coords(i), dataset.coords(i));
      EXPECT_EQ(view->point(i), copy.instance(i).point);
      EXPECT_EQ(view->prob(i), copy.instance(i).prob);
      EXPECT_EQ(view->object_of(i), copy.instance(i).object_id);
    }
    EXPECT_EQ(view->bounds().min_corner(), copy.bounds().min_corner());
    EXPECT_EQ(view->bounds().max_corner(), copy.bounds().max_corner());
    EXPECT_DOUBLE_EQ(view->NumPossibleWorlds(), copy.NumPossibleWorlds());
  }
}

TEST(DatasetViewTest, MaterializeEqualsView) {
  const UncertainDataset dataset = RandomDataset(9, 4, 3, 0.5, 14);
  auto view = DatasetView::Create(dataset, 6);
  ASSERT_TRUE(view.ok());
  const UncertainDataset copy = view->Materialize();
  ASSERT_EQ(copy.num_objects(), view->num_objects());
  ASSERT_EQ(copy.num_instances(), view->num_instances());
  for (int i = 0; i < copy.num_instances(); ++i) {
    EXPECT_EQ(copy.instance(i).point, view->point(i));
    EXPECT_EQ(copy.instance(i).prob, view->prob(i));
    EXPECT_EQ(copy.instance(i).object_id, view->object_of(i));
  }
  EXPECT_EQ(copy.bounds().min_corner(), view->bounds().min_corner());
  EXPECT_EQ(copy.bounds().max_corner(), view->bounds().max_corner());
}

TEST(DatasetViewTest, InvalidSpecsAreRejected) {
  const UncertainDataset dataset = RandomDataset(5, 2, 2, 0.0, 15);
  EXPECT_FALSE(DatasetView::Create(dataset, -1).ok());
  EXPECT_FALSE(DatasetView::Create(dataset, 6).ok());
  EXPECT_TRUE(DatasetView::Create(dataset, 0).ok());
  EXPECT_TRUE(DatasetView::Create(dataset, 5).ok());
}

TEST(DatasetViewTest, EmptyViewBehaves) {
  const UncertainDataset dataset = RandomDataset(5, 2, 2, 0.0, 16);
  auto view = DatasetView::Create(dataset, 0);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_objects(), 0);
  EXPECT_EQ(view->num_instances(), 0);
  EXPECT_DOUBLE_EQ(view->NumPossibleWorlds(), 1.0);
  EXPECT_TRUE(view->single_instance_objects());
}

TEST(DatasetViewTest, SharedOwnershipKeepsTheBaseAlive) {
  auto owned = std::make_shared<const UncertainDataset>(
      RandomDataset(6, 2, 2, 0.0, 17));
  const UncertainDataset* raw = owned.get();
  auto view = DatasetView::Create(owned, 3);
  ASSERT_TRUE(view.ok());
  owned.reset();  // the view keeps the dataset alive
  EXPECT_EQ(&view->base(), raw);
  EXPECT_GT(view->num_instances(), 0);
  EXPECT_EQ(view->point(0).dim(), 2);
}

TEST(DatasetViewTest, PossibleWorldEnumerationMatchesMaterializedCopy) {
  const UncertainDataset dataset = RandomDataset(5, 2, 2, 0.6, 18);
  auto view = DatasetView::Create(dataset, 3);
  ASSERT_TRUE(view.ok());
  const UncertainDataset copy = view->Materialize();
  std::vector<PossibleWorld> from_view;
  std::vector<PossibleWorld> from_copy;
  ForEachPossibleWorld(*view,
                       [&](const PossibleWorld& w) { from_view.push_back(w); });
  ForEachPossibleWorld(copy,
                       [&](const PossibleWorld& w) { from_copy.push_back(w); });
  ASSERT_EQ(from_view.size(), from_copy.size());
  for (size_t w = 0; w < from_view.size(); ++w) {
    EXPECT_EQ(from_view[w].choice, from_copy[w].choice);
    EXPECT_DOUBLE_EQ(from_view[w].prob, from_copy[w].prob);
  }
}

}  // namespace
}  // namespace arsp
