// Copyright 2026 The ARSP Authors.
//
// Parallel execution. A serial traversal is a pre-order walk whose
// per-subtree work touches only (a) the subtree's slice of the shared
// `order` permutation, (b) the instance_probs entries of that slice, and
// (c) the worker-private (σ, β, χ) state — so a subtree is a self-contained
// work item once the root→subtree σ path has been replayed. The driver:
//
//  * splits the traversal at a *frontier depth* D: the walk above D runs on
//    the calling thread (lane 0) as in serial, and every child subtree at
//    depth D becomes one TaskArena task;
//  * hands each task the root→subtree path of Adds — the descending lane's
//    undo log at the frontier parent — which the task replays into its
//    lane's state before descending.
//    Replay performs the exact same Add calls in the exact same order as
//    the serial walk, and Add/Undo are bitwise-exact, so the subtree
//    computes bit-identical values no matter which lane runs it;
//  * merges lanes at the end: instance probabilities need no merge at all
//    (disjoint writes — the canonical node-index order of the output array
//    IS the merge order), and counters are associative sums (see
//    TraversalCounters).
//
// Goal pushdown under parallelism: lanes read the one GoalPruner's
// decisions in place and hand it their resolutions in batches under one
// lock (see GoalChannel). Monotone pruning only, so no torn decisions.

#include "src/core/traversal_driver.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/task_arena.h"
#include "src/geometry/point.h"
#include "src/simd/kernels.h"

namespace arsp {
namespace internal {

namespace {

/// Per-lane traversal counters. Lanes accumulate privately and the driver
/// sums them at the end; every field is an associative-commutative sum
/// (or, for early_exit_depth, a max), so the merged totals equal the serial
/// totals no matter how subtrees were distributed over lanes.
struct TraversalCounters {
  int64_t dominance_tests = 0;
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;
  int64_t early_exit_depth = 0;
};

/// A lane's side of goal pushdown. Decisions are always read straight from
/// the query's one GoalPruner; resolutions reach it one of two ways:
///  * serial — each Resolve calls the pruner directly;
///  * parallel — resolutions collect in a lane-local batch, and Flush
///    applies the batch to the pruner under the driver's lock, at
///    kFlushBatch entries and at task end.
/// Lanes read decisions while a flush writes them; GoalPruner makes those
/// accesses relaxed atomics, and because decisions are monotone (an object
/// never becomes undecided again, nor does the goal become unmet) a lane
/// that reads a stale decision only misses a skip. It can never skip work
/// it still needed, so the answer set matches serial.
class GoalChannel {
 public:
  static constexpr size_t kFlushBatch = 4096;

  /// A null pruner is inactive (full goal). A null `flush_mu` is serial.
  GoalChannel(GoalPruner* pruner, std::mutex* flush_mu)
      : pruner_(pruner), flush_mu_(flush_mu) {}

  bool active() const { return pruner_ != nullptr; }

  /// Global early-exit: the goal is met, stop traversing everywhere.
  bool GoalMet() const { return pruner_ != nullptr && pruner_->GoalMet(); }

  /// True when every instance in ids[0..count) belongs to a decided object.
  bool AllDecided(const int* ids, int count) const {
    return pruner_ != nullptr && pruner_->AllDecided(ids, count);
  }

  /// Reports one instance's exact probability. Callers guard loops with
  /// active() so the full-goal path pays nothing per instance.
  void Resolve(int instance, double prob) {
    if (flush_mu_ == nullptr) {
      pruner_->Resolve(instance, prob);
      return;
    }
    buffer_.emplace_back(instance, prob);
    if (buffer_.size() >= kFlushBatch) Flush();
  }

  /// Applies the batched resolutions to the pruner (no-op when serial).
  /// Call at task end — resolutions must not outlive their task, or a
  /// long-running lane could starve the global goal check.
  void Flush() {
    if (buffer_.empty()) return;
    std::lock_guard<std::mutex> lock(*flush_mu_);
    for (const auto& [instance, prob] : buffer_) {
      pruner_->Resolve(instance, prob);
    }
    buffer_.clear();
  }

 private:
  GoalPruner* pruner_;
  std::mutex* flush_mu_;  // null: serial, Resolve goes straight through
  std::vector<std::pair<int, double>> buffer_;
};

/// Everything one worker needs to traverse a subtree: private (σ, β, χ)
/// state, filter and per-depth scratch, counters and its goal channel.
/// Lane 0 is the calling thread's (and the only lane in serial mode);
/// helper workers get lanes 1..W-1. The `stopped` flag is lane-sticky: once
/// a lane has observed goal-met it records the depth and skips everything
/// else handed to it.
struct TraversalLane {
  TraversalLane(int num_objects, GoalChannel channel_in)
      : state(num_objects), channel(std::move(channel_in)) {}

  AspTraversalState state;
  // Filter's per-node list of the ids that enter σ.
  std::vector<int> adds;
  TraversalCounters counters;
  GoalChannel channel;
  bool stopped = false;  // this lane saw the global goal-met early exit
  // Indexed by depth (the root is depth 1). A deque, so a reference to one
  // level stays valid while deeper levels are appended.
  std::deque<DepthScratch> depths;
  // The Adds of every node on the current path, root first (a task's
  // replayed path first); each node unwinds its own suffix.
  std::vector<AspTraversalState::Change> undo;

  DepthScratch& AtDepth(int depth) {
    while (depths.size() <= static_cast<size_t>(depth)) depths.emplace_back();
    return depths[static_cast<size_t>(depth)];
  }

  /// True when rows order[begin..end) at `depth` need not be visited
  /// (goal met globally, or every instance belongs to a decided object).
  /// Skipping is sound because a subtree's σ updates are local to it
  /// (undone on unwind) — they can never change another instance's value.
  bool SkipSubtree(const std::vector<int>& order, int begin, int end,
                   int depth) {
    if (!channel.active()) return false;
    if (stopped) return true;
    if (channel.GoalMet()) {
      stopped = true;
      counters.early_exit_depth = depth;
      return true;
    }
    if (channel.AllDecided(order.data() + begin, end - begin)) {
      ++counters.nodes_pruned;
      return true;
    }
    return false;
  }
};

/// Per-worker multiplier in DefaultFrontierDepth's task-count target.
constexpr int kTaskFactor = 8;

/// Frontier depth for a traversal with the given branching factor: the
/// smallest depth whose level holds at least kTaskFactor tasks per worker
/// (so the shared queue has slack to balance irregular subtrees: a worker
/// that finishes a small subtree takes the next one), clamped to [2, 12] —
/// at least one split level, at most ~4k tasks even for binary trees.
int DefaultFrontierDepth(int branch_factor, int workers) {
  if (branch_factor < 2) branch_factor = 2;
  const int64_t target = static_cast<int64_t>(kTaskFactor) * workers;
  int depth = 2;
  int64_t level_tasks = branch_factor;  // tasks spawned from depth D-1
  while (depth < 12 && level_tasks < target) {
    level_tasks *= branch_factor;
    ++depth;
  }
  return depth;
}

// What the sibling tasks of one frontier parent share: the root→parent
// Adds in serial order, and the parent's kept candidates.
struct TaskSeed {
  std::vector<AspTraversalState::Change> path;
  std::vector<int> candidates;
};

// Algorithm 1 over one PartitionPolicy, on one lane per worker (see the
// file comment for the parallel scheme).
class TraversalDriver {
 public:
  // Serial unless `parallelism` >= 2 and the core budget grants a helper.
  // `pruner` is null for the full goal.
  TraversalDriver(PartitionPolicy& policy, double* probs, int num_objects,
                  GoalPruner* pruner, int parallelism)
      : policy_(policy),
        scores_(policy.scores()),
        order_(policy.order()),
        probs_(probs) {
    if (parallelism >= 2) {
      arena_.emplace(parallelism);
      if (arena_->num_workers() < 2) arena_.reset();
    }
    if (!arena_.has_value()) {
      lanes_.emplace_back(num_objects, GoalChannel(pruner, nullptr));
      return;
    }
    frontier_depth_ =
        DefaultFrontierDepth(policy.branch_factor(), arena_->num_workers());
    for (int w = 0; w < arena_->num_workers(); ++w) {
      lanes_.emplace_back(num_objects, GoalChannel(pruner, &flush_mu_));
    }
  }

  // Tasks hold `this`.
  TraversalDriver(const TraversalDriver&) = delete;
  TraversalDriver& operator=(const TraversalDriver&) = delete;

  void Run() {
    // The root's candidates are every row, in the policy's initial order
    // (a prebuilt tree has already permuted it): the Add order follows it.
    const std::vector<int> candidates(order_);
    Visit(lanes_[0], TraversalNode{0, scores_.n, 0}, candidates, 1);
    if (arena_.has_value()) {
      // Lane 0's descent has unwound, so the caller joins the tasks; then
      // flush lane 0, whose descent may have buffered resolutions too.
      arena_->RunAndWait();
      lanes_[0].channel.Flush();
    }
  }

  // Adds the lane counters into a fresh result (see TraversalCounters).
  void StoreCounters(ArspResult* result) const {
    for (const TraversalLane& lane : lanes_) {
      result->dominance_tests += lane.counters.dominance_tests;
      result->nodes_visited += lane.counters.nodes_visited;
      result->nodes_pruned += lane.counters.nodes_pruned;
      result->early_exit_depth =
          std::max(result->early_exit_depth, lane.counters.early_exit_depth);
    }
    // A walk that never reached the frontier ran serially: its arena
    // started no helper, so it reports no parallel work.
    if (arena_.has_value() && arena_->tasks_spawned() > 0) {
      result->tasks_spawned = arena_->tasks_spawned();
      result->tasks_stolen = arena_->tasks_stolen();
      result->parallel_workers = arena_->num_workers();
    }
  }

 private:
  void Visit(TraversalLane& lane, const TraversalNode& node,
             const std::vector<int>& candidates, int depth) {
    if (lane.SkipSubtree(order_, node.begin, node.end, depth)) return;
    ++lane.counters.nodes_visited;
    DepthScratch& scratch = lane.AtDepth(depth);
    scratch.corners.resize(2 * static_cast<size_t>(scores_.dim));
    const double* pmin = policy_.Corners(node, scratch.corners.data());
    const double* pmax = pmin + scores_.dim;

    const size_t undo_mark = lane.undo.size();
    Filter(lane, candidates, pmin, pmax, &scratch);
    if (!EmitTerminal(lane, node, pmin, pmax)) {
      scratch.children.clear();
      policy_.Split(node, pmin, &scratch);
      // Inside a task depth starts at the frontier, so spawning never
      // re-fires there.
      if (depth + 1 == frontier_depth_) {
        Spawn(lane, scratch);
      } else {
        for (const TraversalNode& child : scratch.children) {
          Visit(lane, child, scratch.kept, depth + 1);
        }
      }
    }
    lane.state.Undo(lane.undo, undo_mark);
    lane.undo.resize(undo_mark);
  }

  // Moves candidates into D (σ) when they dominate pmin, keeps them in
  // scratch->kept when they dominate pmax; everything else is discarded for
  // this subtree. One FilterCandidates call makes both dominance tests per
  // candidate and writes its id straight into `kept` or the lane's `adds`,
  // each in candidate order, without branching on its class; then the Adds
  // run over `adds`, in candidate order. The Add order is part of the
  // bit-identity contract: β is a running product, so adding the same
  // candidates in another order rounds it differently. The lane's `adds`
  // is fully consumed before any recursion, so one serves every level.
  // Counts one dominance test per candidate.
  void Filter(TraversalLane& lane, const std::vector<int>& candidates,
              const double* pmin, const double* pmax,
              DepthScratch* scratch) {
    const size_t count = candidates.size();
    scratch->kept.resize(count);
    if (lane.adds.size() < count) lane.adds.resize(count);
    const simd::FilterCounts filtered = simd::Ops().FilterCandidates(
        scores_.coords, scores_.dim, candidates.data(),
        static_cast<int>(count), pmin, pmax, scratch->kept.data(),
        lane.adds.data());
    lane.counters.dominance_tests += static_cast<int64_t>(count);
    scratch->kept.resize(static_cast<size_t>(filtered.kept));
    const int* adds = lane.adds.data();
    for (int a = 0; a < filtered.adds; ++a) {
      lane.state.Add(scores_.object(adds[a]), scores_.prob(adds[a]),
                     &lane.undo);
    }
  }

  // Terminal rules; returns true when the node's rows are fully resolved
  // (leaf emitted or pruned):
  //   χ ≥ 2        — two foreign full dominators: everything is zero;
  //   χ = 1        — only instances coinciding with pmin (where σ is exact)
  //                  can survive (see ARCHITECTURE.md, "Deviations from
  //                  the paper");
  //   pmin == pmax — true leaf; σ is exact for every (coincident) instance.
  // A terminal determines the exact probability of *every* instance in the
  // range (zeros included), so it is also the goal-pushdown resolution
  // point: when the channel is active each instance is reported to it once.
  // Every instance appears in exactly one terminal and subtree ranges are
  // disjoint, so parallel lanes write disjoint probs_ entries.
  bool EmitTerminal(TraversalLane& lane, const TraversalNode& node,
                    const double* pmin, const double* pmax) {
    const AspTraversalState& state = lane.state;
    GoalChannel& channel = lane.channel;
    if (state.chi() >= 2) {
      if (channel.active()) {
        for (int i = node.begin; i < node.end; ++i) {
          channel.Resolve(order_[static_cast<size_t>(i)], 0.0);
        }
      }
      ++lane.counters.nodes_pruned;
      return true;
    }
    if (state.chi() == 1) {
      for (int i = node.begin; i < node.end; ++i) {
        const int id = order_[static_cast<size_t>(i)];
        double prob = 0.0;
        if (CoordsEqual(scores_.row(id), pmin, scores_.dim)) {
          prob = state.LeafProbability(scores_.object(id), scores_.prob(id));
          probs_[static_cast<size_t>(id)] = prob;
        }
        if (channel.active()) channel.Resolve(id, prob);
      }
      ++lane.counters.nodes_pruned;
      return true;
    }
    if (CoordsEqual(pmin, pmax, scores_.dim)) {
      for (int i = node.begin; i < node.end; ++i) {
        const int id = order_[static_cast<size_t>(i)];
        const double prob =
            state.LeafProbability(scores_.object(id), scores_.prob(id));
        probs_[static_cast<size_t>(id)] = prob;
        if (channel.active()) channel.Resolve(id, prob);
      }
      return true;
    }
    return false;
  }

  // Turns each child of the frontier parent into one task. A task flushes
  // its lane's batched resolutions when it ends.
  void Spawn(const TraversalLane& lane, const DepthScratch& parent) {
    const auto shared_seed =
        std::make_shared<const TaskSeed>(TaskSeed{lane.undo, parent.kept});
    for (const TraversalNode& child : parent.children) {
      arena_->Submit([this, shared_seed, child](int worker) {
        TraversalLane& task_lane = lanes_[static_cast<size_t>(worker)];
        if (!task_lane.stopped) {  // after global goal-met, skip the replay
          for (const AspTraversalState::Change& add : shared_seed->path) {
            task_lane.state.Add(add.object, add.prob, &task_lane.undo);
          }
          Visit(task_lane, child, shared_seed->candidates, frontier_depth_);
          task_lane.state.Undo(task_lane.undo);
          task_lane.undo.clear();
        }
        task_lane.channel.Flush();
      });
    }
  }

  PartitionPolicy& policy_;
  const ScoreSpan scores_;
  const std::vector<int>& order_;
  double* const probs_;  // result->instance_probs, disjoint subtree writes
  int frontier_depth_ = 0;  // 0 = serial: no tasks
  // Destroyed in reverse: the arena joins its helpers before the lanes and
  // the lock their flushes take go away.
  std::mutex flush_mu_;  // serializes the lanes' GoalChannel::Flush
  std::deque<TraversalLane> lanes_;  // never moved: workers hold references
  std::optional<TaskArena> arena_;
};

}  // namespace

PartitionPolicy::PartitionPolicy(const ScoreSpan& scores)
    : scores_(scores), order_(static_cast<size_t>(scores.n)) {
  std::iota(order_.begin(), order_.end(), 0);
}

const double* PartitionPolicy::Corners(const TraversalNode& node,
                                       double* scratch) const {
  ComputeCorners(node.begin, node.end, scratch, scratch + scores_.dim);
  return scratch;
}

void PartitionPolicy::ComputeCorners(int begin, int end, double* pmin,
                                     double* pmax) const {
  const int dim = scores_.dim;
  const double* first = scores_.row(order_[static_cast<size_t>(begin)]);
  std::copy(first, first + dim, pmin);
  std::copy(first, first + dim, pmax);
  if (end - begin > 1) {
    simd::Ops().ScoreCorners(scores_.coords, dim, order_.data() + begin + 1,
                             end - begin - 1, pmin, pmax);
  }
}

int PartitionPolicy::WidestDim(const double* corners) const {
  const double* pmin = corners;
  const double* pmax = corners + scores_.dim;
  int dim = 0;
  double widest = -1.0;
  for (int k = 0; k < scores_.dim; ++k) {
    if (pmax[k] - pmin[k] > widest) {
      widest = pmax[k] - pmin[k];
      dim = k;
    }
  }
  return dim;
}

Status TraversalSolver::Configure(const SolverOptions& options) {
  ARSP_RETURN_IF_ERROR(options.ExpectOnly({"parallelism"}));
  return ReadParallelism(options);
}

Status TraversalSolver::ReadParallelism(const SolverOptions& options) {
  StatusOr<int> parallelism = options.IntInRange(
      "parallelism", parallelism_, 1, std::numeric_limits<int>::max());
  if (!parallelism.ok()) return parallelism.status();
  parallelism_ = *parallelism;
  return Status::OK();
}

StatusOr<ArspResult> TraversalSolver::SolveImpl(ExecutionContext& context,
                                                const QueryGoal& goal) {
  const DatasetView& view = context.view();
  ArspResult result;
  result.instance_probs.assign(static_cast<size_t>(view.num_instances()),
                               0.0);
  if (view.num_instances() == 0) return result;
  const ScoreSpan scores = context.scores();
  const std::unique_ptr<PartitionPolicy> policy = MakePolicy(scores);
  GoalPruner pruner(goal, view);
  TraversalDriver driver(*policy, result.instance_probs.data(),
                         view.num_objects(),
                         pruner.active() ? &pruner : nullptr, parallelism_);
  driver.Run();
  driver.StoreCounters(&result);
  pruner.Finish(&result);
  return result;
}

}  // namespace internal
}  // namespace arsp
