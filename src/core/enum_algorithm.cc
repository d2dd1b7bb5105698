// Copyright 2026 The ARSP Authors.
//
// ENUM (§III-A, first baseline): enumerate every possible world, compute its
// rskyline, and accumulate world probabilities per instance (Eq. 2).
// Exponential time — it exists as executable ground truth for the other
// algorithms and for the paper's Fig. 5 "ENUM never finishes" observation.

#include <memory>

#include "src/core/solver.h"
#include "src/prefs/fdominance.h"
#include "src/uncertain/possible_worlds.h"

namespace arsp {

namespace {

// Up to this many instances (a 1 MB table) ENUM decides the F-dominance of
// every instance pair once per solve rather than once per world; a larger
// view tests each pair per world, with no table.
constexpr int kDominanceTableMaxInstances = 1024;

// Accumulates Eq. 2 over every possible world of `view` into `result`;
// dominates(s, t) says whether instance s F-dominates instance t.
template <typename Dominates>
void SumOverWorlds(const DatasetView& view, double max_worlds,
                   const Dominates& dominates, ArspResult* result) {
  const int m = view.num_objects();
  double* probs = result->instance_probs.data();
  ForEachPossibleWorld(
      view,
      [&](const PossibleWorld& world) {
        // An instance is in the world's rskyline iff no other present
        // instance F-dominates it.
        const int* choice = world.choice.data();
        int64_t tests = 0;
        for (int j = 0; j < m; ++j) {
          const int tid = choice[j];
          if (tid < 0) continue;
          bool dominated = false;
          for (int l = 0; l < m && !dominated; ++l) {
            const int sid = choice[l];
            if (l == j || sid < 0) continue;
            ++tests;
            dominated = dominates(sid, tid);
          }
          if (!dominated) probs[tid] += world.prob;
        }
        result->dominance_tests += tests;
      },
      max_worlds);
}

ArspResult RunEnum(const DatasetView& view, const PreferenceRegion& region,
                   double max_worlds) {
  ArspResult result;
  const int n = view.num_instances();
  result.instance_probs.assign(static_cast<size_t>(n), 0.0);
  const std::vector<Point>& vertices = region.vertices();
  if (n > kDominanceTableMaxInstances) {
    SumOverWorlds(
        view, max_worlds,
        [&](int s, int t) {
          return FDominatesVertex(view.coords(s), view.coords(t), vertices);
        },
        &result);
    return result;
  }
  std::vector<unsigned char> table;  // [t·n + s]: s F-dominates t
  table.resize(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    for (int s = 0; s < n; ++s) {
      table[static_cast<size_t>(t) * n + s] =
          FDominatesVertex(view.coords(s), view.coords(t), vertices);
    }
  }
  SumOverWorlds(
      view, max_worlds,
      [&](int s, int t) { return table[static_cast<size_t>(t) * n + s] != 0; },
      &result);
  return result;
}

class EnumSolver : public ArspSolver {
 public:
  const char* name() const override { return "enum"; }
  const char* display_name() const override { return "ENUM"; }
  const char* description() const override {
    return "possible-world enumeration (exponential ground truth); option "
           "max_worlds=N";
  }
  uint32_t capabilities() const override { return kCapExponentialTime; }

  Status ValidateContext(const ExecutionContext& context) const override {
    ARSP_RETURN_IF_ERROR(ArspSolver::ValidateContext(context));
    // Refuse oversized inputs here instead of tripping the enumeration's
    // fatal guard: validation errors are recoverable (and answerable over
    // the wire), a CHECK in a daemon is not.
    const double worlds = context.view().NumPossibleWorlds();
    if (worlds > max_worlds_) {
      return Status::FailedPrecondition(
          "ENUM over " + std::to_string(worlds) +
          " possible worlds exceeds max_worlds=" +
          std::to_string(max_worlds_));
    }
    return Status::OK();
  }

  Status Configure(const SolverOptions& options) override {
    ARSP_RETURN_IF_ERROR(options.ExpectOnly({"max_worlds"}));
    StatusOr<double> max_worlds = options.DoubleOr("max_worlds", max_worlds_);
    if (!max_worlds.ok()) return max_worlds.status();
    if (!(*max_worlds > 0)) {  // NaN fails too
      return Status::InvalidArgument("enum max_worlds must be positive");
    }
    max_worlds_ = *max_worlds;
    return Status::OK();
  }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context,
                                 const QueryGoal& /*goal*/) override {
    return RunEnum(context.view(), context.region(), max_worlds_);
  }

 private:
  double max_worlds_ = 2e7;
};

}  // namespace

namespace internal {
std::unique_ptr<ArspSolver> NewEnumSolver() {
  return std::make_unique<EnumSolver>();
}
}  // namespace internal

}  // namespace arsp
