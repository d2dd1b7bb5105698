// Copyright 2026 The ARSP Authors.
//
// LOOP (§III-A, second baseline): evaluate Eq. (3) directly. Instances are
// sorted by score under one vertex of the preference region, which
// guarantees that no instance is F-dominated by a successor; each instance
// is then tested against every candidate predecessor with the Theorem-2
// vertex test. O(c² + d d' n²).

#include <algorithm>
#include <memory>
#include <numeric>

#include "src/core/solver.h"
#include "src/prefs/fdominance.h"

namespace arsp {

namespace {

ArspResult RunLoop(const DatasetView& view, const PreferenceRegion& region) {
  const int n = view.num_instances();
  const int m = view.num_objects();
  ArspResult result;
  result.instance_probs.assign(static_cast<size_t>(n), 0.0);
  if (n == 0) return result;

  const std::vector<Point>& vertices = region.vertices();
  const Point& omega = vertices.front();

  // Sort instance ids by score under ω; an F-dominator of t can only appear
  // at a score ≤ t's score, i.e. at an earlier position or inside t's
  // equal-score group.
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> keys(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys[static_cast<size_t>(i)] = Score(omega, view.coords(i));
  }
  std::sort(order.begin(), order.end(), [&keys](int a, int b) {
    return keys[static_cast<size_t>(a)] < keys[static_cast<size_t>(b)];
  });

  // σ[j] is reset lazily through the touched list (m can be large).
  std::vector<double> sigma(static_cast<size_t>(m), 0.0);
  std::vector<int> touched;

  int group_begin = 0;
  while (group_begin < n) {
    // The equal-score group [group_begin, group_end).
    int group_end = group_begin + 1;
    const double key = keys[static_cast<size_t>(order[
        static_cast<size_t>(group_begin)])];
    while (group_end < n &&
           keys[static_cast<size_t>(order[static_cast<size_t>(group_end)])] ==
               key) {
      ++group_end;
    }

    for (int pos = group_begin; pos < group_end; ++pos) {
      const int tid = order[static_cast<size_t>(pos)];
      const double* t_row = view.coords(tid);
      const int t_object = view.object_of(tid);
      touched.clear();
      // Candidate dominators: everything strictly before the group plus the
      // other members of the group.
      for (int prev = 0; prev < group_end; ++prev) {
        if (prev == pos) continue;
        const int sid = order[static_cast<size_t>(prev)];
        const int s_object = view.object_of(sid);
        if (s_object == t_object) continue;
        ++result.dominance_tests;
        if (FDominatesVertex(view.coords(sid), t_row, vertices)) {
          if (sigma[static_cast<size_t>(s_object)] == 0.0) {
            touched.push_back(s_object);
          }
          sigma[static_cast<size_t>(s_object)] += view.prob(sid);
        }
      }
      double prob = view.prob(tid);
      for (int j : touched) {
        const double sum = sigma[static_cast<size_t>(j)];
        if (sum >= 1.0 - kProbabilityEps) {
          prob = 0.0;
          break;
        }
        prob *= (1.0 - sum);
      }
      result.instance_probs[static_cast<size_t>(tid)] = prob;
      for (int j : touched) sigma[static_cast<size_t>(j)] = 0.0;
    }
    group_begin = group_end;
  }
  return result;
}

class LoopSolver : public ArspSolver {
 public:
  const char* name() const override { return "loop"; }
  const char* display_name() const override { return "LOOP"; }
  const char* description() const override {
    return "quadratic sorted-scan baseline evaluating Eq. (3) directly";
  }
  uint32_t capabilities() const override { return kCapQuadraticTime; }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context,
                                 const QueryGoal& /*goal*/) override {
    return RunLoop(context.view(), context.region());
  }
};

}  // namespace

namespace internal {
std::unique_ptr<ArspSolver> NewLoopSolver() {
  return std::make_unique<LoopSolver>();
}
}  // namespace internal

}  // namespace arsp
