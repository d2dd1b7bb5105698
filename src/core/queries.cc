// Copyright 2026 The ARSP Authors.

#include "src/core/queries.h"

#include <algorithm>

#include "src/common/macros.h"

namespace arsp {

std::vector<std::pair<int, double>> ObjectsAboveThreshold(
    const ArspResult& result, const UncertainDataset& dataset,
    double threshold) {
  return ObjectsAboveThreshold(result, DatasetView(dataset), threshold);
}

std::vector<std::pair<int, double>> ObjectsAboveThreshold(
    const ArspResult& result, const DatasetView& view, double threshold) {
  std::vector<std::pair<int, double>> ranked = TopKObjects(result, view, -1);
  auto cut = std::find_if(ranked.begin(), ranked.end(),
                          [threshold](const std::pair<int, double>& e) {
                            return e.second < threshold;
                          });
  ranked.erase(cut, ranked.end());
  return ranked;
}

std::vector<std::pair<int, double>> InstancesAboveThreshold(
    const ArspResult& result, double threshold) {
  ARSP_CHECK_MSG(result.is_complete(),
                 "InstancesAboveThreshold needs a complete result (goal "
                 "pushdown tracks object bounds, not instance answers)");
  std::vector<std::pair<int, double>> out;
  for (size_t i = 0; i < result.instance_probs.size(); ++i) {
    if (result.instance_probs[i] >= threshold) {
      out.emplace_back(static_cast<int>(i), result.instance_probs[i]);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::vector<std::pair<int, double>> TopKInstances(const ArspResult& result,
                                                  int k) {
  std::vector<std::pair<int, double>> out =
      InstancesAboveThreshold(result, 0.0);
  if (k >= 0 && static_cast<int>(out.size()) > k) {
    out.resize(static_cast<size_t>(k));
  }
  return out;
}

double ThresholdForObjectCount(const ArspResult& result,
                               const UncertainDataset& dataset,
                               int max_objects) {
  return ThresholdForObjectCount(result, DatasetView(dataset), max_objects);
}

double ThresholdForObjectCount(const ArspResult& result,
                               const DatasetView& view, int max_objects) {
  ARSP_CHECK(max_objects >= 1);
  const std::vector<std::pair<int, double>> ranked =
      TopKObjects(result, view, max_objects);
  if (ranked.empty()) return 0.0;
  return ranked.back().second;
}

namespace {

// Shared tail of both AnswerGoal paths: `ranked` holds (base id, exact
// probability) pairs sorted by (probability desc, id asc) — all objects for
// the complete path, all exactly evaluated objects for the partial path
// (which by the GoalPruner invariants is a superset of the answer set).
std::vector<std::pair<int, double>> SliceRanked(
    std::vector<std::pair<int, double>> ranked, const QueryGoal& goal,
    double* count_threshold) {
  switch (goal.kind) {
    case GoalKind::kFull:
      break;  // "rank everything" (k < 0 top-k collapses to this too)
    case GoalKind::kTopK: {
      if (goal.ties == TiePolicy::kIncludeTies) {
        // Count-controlled: the k-th probability is a derived threshold and
        // boundary ties extend the answer (identical to the historical
        // ThresholdForObjectCount + ObjectsAboveThreshold recipe).
        const size_t cut =
            std::min(ranked.size(), static_cast<size_t>(goal.k));
        const double threshold = cut == 0 ? 0.0 : ranked[cut - 1].second;
        if (count_threshold != nullptr) *count_threshold = threshold;
        while (!ranked.empty() && ranked.back().second < threshold) {
          ranked.pop_back();
        }
      } else if (goal.k >= 0 &&
                 ranked.size() > static_cast<size_t>(goal.k)) {
        ranked.resize(static_cast<size_t>(goal.k));
      }
      break;
    }
    case GoalKind::kThreshold: {
      const auto cut = std::find_if(
          ranked.begin(), ranked.end(),
          [&goal](const std::pair<int, double>& e) {
            return e.second < goal.p;
          });
      ranked.erase(cut, ranked.end());
      break;
    }
  }
  return ranked;
}

}  // namespace

std::vector<std::pair<int, double>> AnswerGoal(
    const ArspResult& result, const DatasetView& view, const QueryGoal& goal,
    double* count_threshold) {
  if (result.is_complete()) {
    return SliceRanked(TopKObjects(result, view, -1), goal, count_threshold);
  }
  // Partial results answer exactly the goal they were pruned for: the
  // GoalPruner guarantees every object in the answer set (plus every object
  // needed to place the cut) was refined to exactness, and every excluded
  // object lies strictly below the cut.
  ARSP_CHECK_MSG(result.goal == goal,
                 "partial result answers goal '%s', not '%s'",
                 result.goal.ToString().c_str(), goal.ToString().c_str());
  const int m = view.num_objects();
  ARSP_CHECK(static_cast<int>(result.object_bounds.size()) == m);
  std::vector<std::pair<int, double>> exact;
  exact.reserve(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    if (result.object_decisions[static_cast<size_t>(j)] ==
        ObjectDecision::kExact) {
      exact.emplace_back(j, result.object_bounds[static_cast<size_t>(j)].lower);
    }
  }
  std::sort(exact.begin(), exact.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return SliceRanked(std::move(exact), goal, count_threshold);
}

}  // namespace arsp
