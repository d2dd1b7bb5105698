// Copyright 2026 The ARSP Authors.
//
// MWTT — the "any space-partitioning tree" remark of §III-B made concrete:
// the kd-ASP* state machine over a multi-way tree that splits each node
// into `fanout` equal slabs along its widest mapped dimension (the
// one-dimensional STR discipline R-trees use for bulk loading). Sits
// between KDTT+ (fanout 2) and QDTT+ (fanout 2^{d'}) and lets the ablation
// benchmarks sweep the partitioning trade-off explicitly.

#include <algorithm>
#include <memory>

#include "src/common/macros.h"
#include "src/core/solver.h"
#include "src/core/traversal_driver.h"
#include "src/prefs/score_mapper.h"

namespace arsp {

namespace {

using internal::DepthScratch;
using internal::PartitionPolicy;
using internal::TraversalNode;

// Children per node. 2 reproduces KDTT+'s shape with slab splits; the cap
// keeps a configured value far from int overflow in the slab arithmetic.
constexpr int kMinFanout = 2;
constexpr int kMaxFanout = 1024;

// Sorts a node's rows along its widest dimension and splits them into
// `fanout` equal slabs (1-D STR slicing). Slabs inherit small extents on
// the split dimension, improving min-corner dominance tests.
class SlabSplit : public PartitionPolicy {
 public:
  SlabSplit(const ScoreSpan& scores, int fanout)
      : PartitionPolicy(scores), fanout_(fanout) {
    ARSP_CHECK_MSG(fanout >= kMinFanout && fanout <= kMaxFanout,
                   "MWTT fanout %d is out of range", fanout);
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
  const char* name() const override { return "mwtt"; }
  const char* display_name() const override { return "MWTT"; }
  const char* description() const override {
    return "multi-way tree traversal (equal slabs along the widest mapped "
           "dimension); option fanout=N";
  }

  Status Configure(const SolverOptions& options) override {
    ARSP_RETURN_IF_ERROR(options.ExpectOnly({"fanout", "parallelism"}));
    StatusOr<int> fanout =
        options.IntInRange("fanout", fanout_, kMinFanout, kMaxFanout);
    if (!fanout.ok()) return fanout.status();
    fanout_ = *fanout;
    return ReadParallelism(options);
  }

 protected:
  std::unique_ptr<PartitionPolicy> MakePolicy(
      const ScoreSpan& scores) const override {
    return std::make_unique<SlabSplit>(scores, fanout_);
  }

 private:
  int fanout_ = 8;
};

}  // namespace

namespace internal {
std::unique_ptr<ArspSolver> NewMwttSolver() {
  return std::make_unique<MwttSolver>();
}
}  // namespace internal

}  // namespace arsp
