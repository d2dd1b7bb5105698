// Copyright 2026 The ARSP Authors.
//
// Possible-world semantics (§II-B, Eq. 1): a possible world samples each
// object independently — one of its instances, or absence when the object's
// probabilities sum to less than 1. Enumeration is exponential and exists to
// serve the ENUM baseline and ground-truth checks in tests.

#ifndef ARSP_UNCERTAIN_POSSIBLE_WORLDS_H_
#define ARSP_UNCERTAIN_POSSIBLE_WORLDS_H_

#include <functional>
#include <vector>

#include "src/uncertain/dataset_view.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// One possible world: `choice[j]` is the instance id the j-th object
/// materialized as, or -1 when the object is absent. Ids are local to the
/// dataset or view being enumerated (identical for full views).
struct PossibleWorld {
  std::vector<int> choice;
  double prob = 1.0;
};

/// Invokes `fn` for every possible world of `dataset` with its probability
/// (Eq. 1). Aborts if the world count exceeds `max_worlds` — this is a
/// ground-truth tool for small datasets only.
void ForEachPossibleWorld(const UncertainDataset& dataset,
                          const std::function<void(const PossibleWorld&)>& fn,
                          double max_worlds = 2e7);

/// View variant: enumerates the worlds of the view's objects.
void ForEachPossibleWorld(const DatasetView& view,
                          const std::function<void(const PossibleWorld&)>& fn,
                          double max_worlds = 2e7);

/// Probability of one fully specified world (Eq. 1); mostly for tests.
double WorldProbability(const UncertainDataset& dataset,
                        const PossibleWorld& world);

}  // namespace arsp

#endif  // ARSP_UNCERTAIN_POSSIBLE_WORLDS_H_
