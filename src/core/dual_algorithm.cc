// Copyright 2026 The ARSP Authors.
//
// DUAL (§IV-A): under weight ratio constraints, finding the instances that
// F-dominate t reduces to 2^{d-1} half-space reporting problems — one per
// orthant of the space partitioned by the axis hyperplanes through t, each
// with the query hyperplane h_{t,k} of Eq. (6).
//
// The paper serves these queries with Meiser point location over hyperplane
// arrangements (Theorem 6), which it itself calls "inherently theoretical"
// (O(n^{d+ε}) space). We substitute a kd-tree: each probe intersects an
// orthant box with the half-space below h_{t,k} and reports the per-object
// probability mass. The query pattern (2^{d-1} probes per instance) and the
// reduction are exactly the paper's; see ARCHITECTURE.md, "Deviations from
// the paper".

#include "src/core/dual_algorithm.h"

#include <memory>
#include <vector>

#include "src/core/solver.h"
#include "src/index/kdtree.h"

namespace arsp {

namespace {

// Vertical tolerance for the below-or-on test of Eq. (6); dominance at the
// boundary (h'(r*) = 0) is inclusive per Theorem 5.
constexpr double kBelowEps = 1e-9;

// Region code of s relative to t: bit i = 1 iff s[i] >= t[i] (the paper's
// "0 if less than t[i], 1 otherwise"). Raw rows straight out of the
// flattened kd-tree arena and the view's columnar storage.
int RegionCode(const double* s, const double* t, int d) {
  int code = 0;
  for (int i = 0; i < d - 1; ++i) {
    if (s[i] >= t[i]) code |= (1 << i);
  }
  return code;
}

ArspResult RunDual(ExecutionContext& context) {
  const DatasetView& view = context.view();
  const WeightRatioConstraints& wr = context.weight_ratios();
  const int d = wr.dim();
  const int n = view.num_instances();
  const int m = view.num_objects();

  ArspResult result;
  result.instance_probs.assign(static_cast<size_t>(n), 0.0);
  if (n == 0) return result;

  // Kd-tree over the original points, shared through the context. For a
  // derived view this is the parent's full-coverage tree (item ids are base
  // instance ids): probes filter hits through LocalInstanceOf and pass the
  // view's id_bound so all-delta subtrees are pruned without descent —
  // the prefix-reuse path that makes m% sweeps pay one tree build total.
  const KdTree& tree = context.instance_kdtree();
  const Mbr& bounds = tree.root_mbr();
  const int id_bound = view.id_bound();

  std::vector<double> sigma(static_cast<size_t>(m), 0.0);
  std::vector<int> touched;

  for (int ti = 0; ti < n; ++ti) {
    const double* t_row = view.coords(ti);
    const Point t_point = view.point(ti);
    const int t_object = view.object_of(ti);
    touched.clear();
    for (int k = 0; k < (1 << (d - 1)); ++k) {
      // Orthant box of region k, clipped to the indexed bounds (a superset
      // of the view's — exact, just looser clipping). Boxes of adjacent
      // regions share their boundary; the exact region-code check in the
      // visitor prevents double counting at s[i] == t[i].
      Point lo = bounds.min_corner();
      Point hi = bounds.max_corner();
      bool feasible = true;
      for (int i = 0; i < d - 1 && feasible; ++i) {
        if ((k >> i) & 1) {
          lo[i] = t_point[i];
          feasible = t_point[i] <= hi[i];
        } else {
          hi[i] = t_point[i];
          feasible = lo[i] <= t_point[i];
        }
      }
      if (!feasible) continue;
      const Mbr box(lo, hi);
      const Hyperplane plane = MakeRegionHyperplane(t_point, k, wr);

      ++result.index_probes;
      tree.ForEachInBoxBelow(
          box, plane, kBelowEps, id_bound, [&](const KdTree::EntryRef& item) {
            const int si = view.LocalInstanceOf(item.id);
            if (si < 0) return;  // outside the view (shared tree)
            const int s_object = view.object_of(si);
            if (s_object == t_object) return;
            if (RegionCode(item.coords, t_row, d) != k) return;
            ++result.dominance_tests;
            double& bucket = sigma[static_cast<size_t>(s_object)];
            if (bucket == 0.0) touched.push_back(s_object);
            bucket += item.weight;
          });
    }

    double prob = view.prob(ti);
    for (int j : touched) {
      const double sum = sigma[static_cast<size_t>(j)];
      if (sum >= 1.0 - kProbabilityEps) {
        prob = 0.0;
        break;
      }
      prob *= (1.0 - sum);
    }
    result.instance_probs[static_cast<size_t>(ti)] = prob;
    for (int j : touched) sigma[static_cast<size_t>(j)] = 0.0;
  }
  return result;
}

class DualSolver : public ArspSolver {
 public:
  const char* name() const override { return "dual"; }
  const char* display_name() const override { return "DUAL"; }
  const char* description() const override {
    return "half-space reporting reduction for weight ratio constraints "
           "(Eq. 6), served by kd-tree probes";
  }
  uint32_t capabilities() const override { return kCapRequiresWeightRatios; }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context,
                                 const QueryGoal& /*goal*/) override {
    return RunDual(context);
  }
};

}  // namespace

namespace internal {
std::unique_ptr<ArspSolver> NewDualSolver() {
  return std::make_unique<DualSolver>();
}
}  // namespace internal

Hyperplane MakeRegionHyperplane(const Point& t, int region_code,
                                const WeightRatioConstraints& wr) {
  const int d = wr.dim();
  // Eq. (6): x[d] = Σ_i c_i (t[i] - x[i]) + t[d] with c_i = l_i for bit 0
  // and h_i for bit 1. In the library's x[d] = coef·x - offset form:
  //   coef_i = -c_i,  offset = -(Σ_i c_i t[i] + t[d]).
  std::vector<double> coef(static_cast<size_t>(d - 1));
  double constant = t[d - 1];
  for (int i = 0; i < d - 1; ++i) {
    const double c = ((region_code >> i) & 1) ? wr.hi(i) : wr.lo(i);
    coef[static_cast<size_t>(i)] = -c;
    constant += c * t[i];
  }
  return Hyperplane(std::move(coef), -constant);
}

}  // namespace arsp
