// Copyright 2026 The ARSP Authors.

#include "src/core/arsp_result.h"

#include <algorithm>
#include <cmath>

#include "src/common/macros.h"

namespace arsp {

int CountNonZero(const ArspResult& result, double eps) {
  ARSP_CHECK_MSG(result.is_complete(),
                 "CountNonZero needs a complete result; this one was pruned "
                 "for a goal");
  int count = 0;
  for (double p : result.instance_probs) {
    if (p > eps) ++count;
  }
  return count;
}

std::vector<double> ObjectProbabilities(const ArspResult& result,
                                        const UncertainDataset& dataset) {
  return ObjectProbabilities(result, DatasetView(dataset));
}

std::vector<double> ObjectProbabilities(const ArspResult& result,
                                        const DatasetView& view) {
  ARSP_CHECK_MSG(result.is_complete(),
                 "ObjectProbabilities needs a complete result; partial "
                 "(goal-pruned) results answer through AnswerGoal");
  ARSP_CHECK(static_cast<int>(result.instance_probs.size()) ==
             view.num_instances());
  std::vector<double> out(static_cast<size_t>(view.num_objects()), 0.0);
  for (int i = 0; i < view.num_instances(); ++i) {
    out[static_cast<size_t>(view.object_of(i))] +=
        result.instance_probs[static_cast<size_t>(i)];
  }
  return out;
}

std::vector<std::pair<int, double>> TopKObjects(
    const ArspResult& result, const UncertainDataset& dataset, int k) {
  return TopKObjects(result, DatasetView(dataset), k);
}

std::vector<std::pair<int, double>> TopKObjects(
    const ArspResult& result, const DatasetView& view, int k) {
  std::vector<double> probs = ObjectProbabilities(result, view);
  std::vector<std::pair<int, double>> ranked;
  ranked.reserve(probs.size());
  for (int j = 0; j < view.num_objects(); ++j) {
    ranked.emplace_back(j, probs[static_cast<size_t>(j)]);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (k >= 0 && static_cast<int>(ranked.size()) > k) ranked.resize(
      static_cast<size_t>(k));
  return ranked;
}

double MaxAbsDiff(const ArspResult& a, const ArspResult& b) {
  ARSP_CHECK(a.instance_probs.size() == b.instance_probs.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.instance_probs.size(); ++i) {
    worst = std::max(worst,
                     std::fabs(a.instance_probs[i] - b.instance_probs[i]));
  }
  return worst;
}

}  // namespace arsp
