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

ArspResult RunEnum(const DatasetView& view, const PreferenceRegion& region,
                   double max_worlds) {
  ArspResult result;
  result.instance_probs.assign(
      static_cast<size_t>(view.num_instances()), 0.0);
  const std::vector<Point>& vertices = region.vertices();

  ForEachPossibleWorld(
      view,
      [&](const PossibleWorld& world) {
        // An instance is in the world's rskyline iff no other present
        // instance F-dominates it.
        for (int j = 0; j < view.num_objects(); ++j) {
          const int tid = world.choice[static_cast<size_t>(j)];
          if (tid < 0) continue;
          const double* t = view.coords(tid);
          bool dominated = false;
          for (int l = 0; l < view.num_objects() && !dominated; ++l) {
            if (l == j) continue;
            const int sid = world.choice[static_cast<size_t>(l)];
            if (sid < 0) continue;
            ++result.dominance_tests;
            dominated = FDominatesVertex(view.coords(sid), t, vertices);
          }
          if (!dominated) {
            result.instance_probs[static_cast<size_t>(tid)] += world.prob;
          }
        }
      },
      max_worlds);
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
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context) override {
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
