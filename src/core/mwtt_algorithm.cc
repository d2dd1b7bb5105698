// Copyright 2026 The ARSP Authors.

#include "src/core/mwtt_algorithm.h"

#include <algorithm>
#include <memory>
#include <string>

#include "src/common/macros.h"
#include "src/core/solver.h"
#include "src/core/traversal_driver.h"
#include "src/prefs/score_mapper.h"

namespace arsp {

namespace {

using internal::DepthScratch;
using internal::PartitionPolicy;
using internal::TraversalNode;

// Sorts a node's rows along its widest dimension and splits them into
// `fanout` equal slabs (1-D STR slicing). Slabs inherit small extents on
// the split dimension, improving min-corner dominance tests.
class SlabSplit : public PartitionPolicy {
 public:
  SlabSplit(const ScoreSpan& scores, int fanout)
      : PartitionPolicy(scores), fanout_(fanout) {
    ARSP_CHECK_MSG(fanout >= 2, "MWTT fanout must be >= 2 (got %d)", fanout);
  }

  int branch_factor() const override { return fanout_; }

  void Split(const TraversalNode& node, const double* corners,
             DepthScratch* scratch) override {
    const int split_dim = WidestDim(corners);
    std::sort(order_.begin() + node.begin, order_.begin() + node.end,
              [this, split_dim](int a, int b) {
                return scores_.row(a)[split_dim] < scores_.row(b)[split_dim];
              });
    const int total = node.end - node.begin;
    const int slab = std::max(1, (total + fanout_ - 1) / fanout_);
    for (int chunk = node.begin; chunk < node.end; chunk += slab) {
      scratch->children.push_back(
          {chunk, std::min(node.end, chunk + slab), -1});
    }
  }

 private:
  const int fanout_;
};

class MwttSolver : public internal::TraversalSolver {
 public:
  explicit MwttSolver(int fanout = MwttOptions{}.fanout) : fanout_(fanout) {}

  const char* name() const override { return "mwtt"; }
  const char* display_name() const override { return "MWTT"; }
  const char* description() const override {
    return "multi-way tree traversal (equal slabs along the widest mapped "
           "dimension); option fanout=N";
  }

  Status Configure(const SolverOptions& options) override {
    ARSP_RETURN_IF_ERROR(options.ExpectOnly({"fanout", "parallelism"}));
    StatusOr<int64_t> fanout = options.IntOr("fanout", fanout_);
    if (!fanout.ok()) return fanout.status();
    if (*fanout < 2) {
      return Status::InvalidArgument("mwtt fanout must be >= 2, got " +
                                     std::to_string(*fanout));
    }
    fanout_ = static_cast<int>(*fanout);
    return ReadParallelism(options);
  }

 protected:
  std::unique_ptr<PartitionPolicy> MakePolicy(
      const ScoreSpan& scores) const override {
    return std::make_unique<SlabSplit>(scores, fanout_);
  }

 private:
  int fanout_;
};

ARSP_REGISTER_SOLVER(mwtt, "mwtt",
                     [] { return std::make_unique<MwttSolver>(); });

}  // namespace

namespace internal {
void LinkMwttSolver() {}
}  // namespace internal

ArspResult ComputeArspMwtt(const UncertainDataset& dataset,
                           const PreferenceRegion& region,
                           const MwttOptions& options) {
  ExecutionContext context(dataset, region);
  return MwttSolver(options.fanout).Solve(context).value();
}

}  // namespace arsp
