// Copyright 2026 The ARSP Authors.
//
// B&B (§III-C, Algorithm 2): best-first traversal of an R-tree over the
// original instances, mapping SV(·) on the fly so that pruned instances are
// never mapped. A pruning set P of per-object maximum score corners
// (Theorems 3 and 4, |P| ≤ m) discards subtrees whose instances all have
// zero rskyline probability; per-object aggregated R-trees in score space
// answer the window queries Σ_{s ∈ Tj, s ≺F t} p(s). Expected O(m n log n).

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "src/common/aligned.h"
#include "src/core/solver.h"
#include "src/index/rtree.h"
#include "src/prefs/fdominance.h"
#include "src/prefs/score_mapper.h"
#include "src/simd/kernels.h"

namespace arsp {

namespace {

// The solver's configuration, read from SolverOptions by Configure.
struct BnbOptions {
  /// Disables the Theorem-3/4 pruning set (ablation benchmarks only).
  bool enable_pruning = true;
  /// R-tree fan-out for both the data tree and the aggregated trees.
  int rtree_fanout = 16;
};

// A heap element: either an R-tree node or a single instance, ordered by
// the score of its lower corner under the reference vertex ω (best-first).
struct HeapEntry {
  double key;
  int node_id;      // flat node id; -1 for instance entries
  int instance_id;  // valid when node_id < 0

  bool operator>(const HeapEntry& other) const { return key > other.key; }
};

// Incremental per-object bookkeeping: the aggregated R-tree over mapped
// instances with non-zero probability, the running max corner p_i, and the
// accumulated probability mass deciding membership in the pruning set P.
struct ObjectState {
  std::unique_ptr<RTree> tree;
  Point max_corner;
  double cum_prob = 0.0;
  bool in_pruning_set = false;
};

// The pruning set P as a dense row-major matrix (|P| rows × d' doubles):
// the Theorem-3 membership probe is one AnyRowDominates kernel sweep over
// contiguous rows instead of |P| Point-indirected scalar loops.
struct PruningSet {
  AlignedVector<double> rows;  // row-major, dim doubles per entry
  int count = 0;
  int dim = 0;

  void Add(const Point& corner) {
    rows.insert(rows.end(), corner.coords().begin(), corner.coords().end());
    ++count;
  }

  bool Prunes(const Point& mapped) const {
    if (count == 0) return false;
    return simd::Ops().AnyRowDominates(rows.data(), count, dim,
                                       mapped.coords().data());
  }
};

// A Theorem-3 node prune proves Pr_rsky = 0 for every instance under the
// node; with goal pushdown active those zeros are bound resolutions, so the
// subtree is walked once to report them (all-delta subtrees and ids outside
// the view are not the view's instances and are skipped like everywhere
// else).
void ResolveSubtreeZero(const RTree& tree, int node_id,
                        const DatasetView& view, int id_bound,
                        GoalPruner* pruner) {
  const int count = tree.node_count(node_id);
  if (tree.node_is_leaf(node_id)) {
    for (int k = 0; k < count; ++k) {
      const int local =
          view.LocalInstanceOf(tree.entry_id(tree.node_kid(node_id, k)));
      if (local >= 0) pruner->Resolve(local, 0.0);
    }
    return;
  }
  for (int k = 0; k < count; ++k) {
    const int child = tree.node_kid(node_id, k);
    if (tree.node_min_id(child) >= id_bound) continue;
    ResolveSubtreeZero(tree, child, view, id_bound, pruner);
  }
}

ArspResult RunBnb(ExecutionContext& context, const QueryGoal& goal,
                  const BnbOptions& options) {
  const DatasetView& view = context.view();
  ArspResult result;
  const int n = view.num_instances();
  const int m = view.num_objects();
  result.instance_probs.assign(static_cast<size_t>(n), 0.0);
  if (n == 0) return result;

  const ScoreMapper& mapper = context.mapper();
  const int mapped_dim = mapper.mapped_dim();
  const Point& omega = context.region().vertices().front();

  GoalPruner goal_pruner(goal, view);
  GoalPruner* pruner = goal_pruner.active() ? &goal_pruner : nullptr;
  int64_t rounds = 0;

  // Lower corner of the mapped space: scores are monotone in every
  // coordinate (ω ≥ 0), so the score of the view's min corner bounds
  // every instance's score from below. Used as the window-query origin.
  const Point mapped_origin = mapper.Map(view.bounds().min_corner());

  // The bulk-loaded R-tree over the *original* space is query-independent
  // and shared through the context; SV is computed on the fly only for
  // instances that survive pruning. The shared_ptr pins the tree for this
  // run even if the context's per-fanout cache evicts it. For a derived
  // view the tree is the parent's full-coverage one (entry ids are base
  // instance ids): leaf hits translate through LocalInstanceOf, and
  // subtrees whose min_id() is past the view's id_bound() are all delta
  // data — skipped without descent (the prefix-reuse path). Node MBRs of a
  // shared tree are supersets of the view's true boxes, which only makes
  // the best-first keys and pruning conservative, never wrong.
  const std::shared_ptr<const RTree> data_tree_ptr =
      context.instance_rtree(options.rtree_fanout);
  const RTree& data_tree = *data_tree_ptr;
  const int id_bound = view.id_bound();

  std::vector<ObjectState> objects(static_cast<size_t>(m));
  PruningSet pruning_set;  // |P| ≤ m (Theorem 4)
  pruning_set.dim = mapped_dim;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  heap.push(HeapEntry{Score(omega, data_tree.node_lo(data_tree.root_id())),
                      data_tree.root_id(), -1});

  // Scratch for mapping node lower corners through SV without a Point
  // allocation per visited node.
  Point node_mapped(mapped_dim);

  // Scratch for batch processing of equal-key instances.
  struct BatchItem {
    int instance_id;
    Point mapped;
    std::vector<double> sigma;  // per-object dominating mass
    bool zeroed = false;
    /// Goal pushdown: the instance's object is already decided, so its own
    /// probability is not needed. Phase 1/2 evaluation of it is skipped and
    /// it stays unresolved; only its mass (phases 2-out and 3) matters.
    bool skip_eval = false;
  };
  std::vector<BatchItem> batch;
  AlignedVector<double> batch_rows;       // phase-2 dense mapped points
  std::vector<unsigned char> batch_mask;  // phase-2 dominance masks

  while (!heap.empty()) {
    // Goal pushdown: once every object is decided, nothing left in the
    // heap can change the answer (inserted mass is only ever needed to
    // evaluate *later* instances, and none need evaluating). Checked at
    // round start so that decisions made by prune-only rounds — Theorem-3
    // node walks and P-pruned instances resolve zeros without producing a
    // batch — still stop the solve.
    if (pruner != nullptr && pruner->GoalMet()) {
      result.early_exit_depth = rounds;
      break;
    }
    ++rounds;
    const double key = heap.top().key;
    batch.clear();

    // Drain every entry with this exact key: expand nodes (their children
    // with equal keys are drained in the same round) and collect instances.
    // Batching keeps Eq. (3) symmetric for instances with tied scores,
    // including exact duplicates.
    while (!heap.empty() && heap.top().key == key) {
      const HeapEntry entry = heap.top();
      heap.pop();
      if (entry.node_id >= 0) {
        ++result.nodes_visited;
        const int node = entry.node_id;
        if (options.enable_pruning) {
          if (mapped_dim > 0) {
            mapper.MapRowInto(data_tree.node_lo(node), &node_mapped[0]);
          }
          if (pruning_set.Prunes(node_mapped)) {
            ++result.nodes_pruned;
            if (pruner != nullptr) {
              ResolveSubtreeZero(data_tree, node, view, id_bound, pruner);
            }
            continue;
          }
        }
        const int count = data_tree.node_count(node);
        if (data_tree.node_is_leaf(node)) {
          for (int k = 0; k < count; ++k) {
            const int e = data_tree.node_kid(node, k);
            const int local = view.LocalInstanceOf(data_tree.entry_id(e));
            if (local < 0) continue;  // outside the view (shared tree)
            heap.push(
                HeapEntry{Score(omega, data_tree.entry_coords(e)), -1, local});
          }
        } else {
          for (int k = 0; k < count; ++k) {
            const int child = data_tree.node_kid(node, k);
            if (data_tree.node_min_id(child) >= id_bound) {
              continue;  // all-delta subtree
            }
            heap.push(HeapEntry{Score(omega, data_tree.node_lo(child)),
                                child, -1});
          }
        }
        continue;
      }
      // Instance entry (local id).
      Point mapped(mapped_dim);
      if (mapped_dim > 0) {
        mapper.MapRowInto(view.coords(entry.instance_id), &mapped[0]);
      }
      if (options.enable_pruning && pruning_set.Prunes(mapped)) {
        ++result.nodes_pruned;
        if (pruner != nullptr) pruner->Resolve(entry.instance_id, 0.0);
        continue;  // Pr_rsky = 0; Theorem 3 allows discarding it entirely.
      }
      BatchItem item;
      item.instance_id = entry.instance_id;
      item.mapped = std::move(mapped);
      item.skip_eval = pruner != nullptr &&
                       pruner->ObjectDecided(view.object_of(entry.instance_id));
      if (!item.skip_eval) item.sigma.assign(static_cast<size_t>(m), 0.0);
      batch.push_back(std::move(item));
    }

    if (batch.empty()) continue;

    // Phase 1: window queries against the aggregated R-trees (all strictly
    // earlier instances with non-zero probability are indexed there).
    // Decided objects' items skip this — the window queries only ever feed
    // the item's own probability, which the goal no longer needs.
    for (BatchItem& item : batch) {
      if (item.skip_eval) continue;
      const int own = view.object_of(item.instance_id);
      // Guard against sub-ulp inversions of the origin bound.
      Point window_lo = mapped_origin;
      for (int k = 0; k < mapped_dim; ++k) {
        window_lo[k] = std::min(window_lo[k], item.mapped[k]);
      }
      const Mbr window(std::move(window_lo), item.mapped);
      for (int j = 0; j < m; ++j) {
        if (j == own || objects[static_cast<size_t>(j)].tree == nullptr) {
          continue;
        }
        ++result.index_probes;
        item.sigma[static_cast<size_t>(j)] +=
            objects[static_cast<size_t>(j)].tree->WindowSum(window);
      }
    }

    // Phase 2: tied instances of this round dominate each other whenever
    // their mapped points weakly dominate; count that mass symmetrically
    // before anything is inserted. The batch's mapped points are packed
    // into a dense row matrix once, then each source instance s takes one
    // DominatedMask kernel sweep over the whole batch (mask[t] = 1 iff
    // s ⪯ t); the scalar loop applies the same-object/skip filters and
    // counts tests exactly as before.
    if (batch.size() > 1) {
      const size_t batch_n = batch.size();
      batch_rows.resize(batch_n * static_cast<size_t>(mapped_dim));
      for (size_t i = 0; i < batch_n; ++i) {
        std::copy(batch[i].mapped.coords().begin(),
                  batch[i].mapped.coords().end(),
                  batch_rows.begin() + static_cast<size_t>(mapped_dim) * i);
      }
      batch_mask.resize(batch_n);
      for (size_t si = 0; si < batch_n; ++si) {
        const BatchItem& s = batch[si];
        const int s_object = view.object_of(s.instance_id);
        const double s_prob = view.prob(s.instance_id);
        simd::Ops().DominatedMask(batch_rows.data(),
                                  static_cast<int>(batch_n), mapped_dim,
                                  s.mapped.coords().data(),
                                  batch_mask.data());
        for (size_t ti = 0; ti < batch_n; ++ti) {
          BatchItem& t = batch[ti];
          if (si == ti) continue;
          if (t.skip_eval) continue;  // t's sigma is never read
          if (s_object == view.object_of(t.instance_id)) continue;
          ++result.dominance_tests;
          if (batch_mask[ti] != 0) {
            t.sigma[static_cast<size_t>(s_object)] += s_prob;
          }
        }
      }
    }

    // Compute probabilities and decide survival.
    for (BatchItem& item : batch) {
      if (item.skip_eval) continue;  // stays unresolved; object is decided
      const int own_object = view.object_of(item.instance_id);
      double prob = view.prob(item.instance_id);
      for (int j = 0; j < m && !item.zeroed; ++j) {
        if (j == own_object) continue;
        const double sum = item.sigma[static_cast<size_t>(j)];
        if (sum <= 0.0) continue;
        if (sum >= 1.0 - kProbabilityEps) {
          item.zeroed = true;
        } else {
          prob *= (1.0 - sum);
        }
      }
      if (item.zeroed) {
        if (pruner != nullptr) pruner->Resolve(item.instance_id, 0.0);
        continue;  // probability stays 0
      }
      result.instance_probs[static_cast<size_t>(item.instance_id)] = prob;
      if (pruner != nullptr) pruner->Resolve(item.instance_id, prob);
    }

    // Phase 3: insert batch instances into their object's aggregated R-tree
    // and maintain the pruning set. Zero-probability instances are inserted
    // too: Theorem 3's discard argument assumes an asymmetric dominance
    // relation, which fails for instances with *equal* score vectors —
    // mutually dominating duplicates are all zero, yet their mass must stay
    // visible to later queries (see bnb_test.cc TieBatching tests).
    // Instances pruned by P never reach this point, which remains safe: any
    // later instance needing their mass is itself pruned by the same P
    // entry (transitivity through the full object's max corner).
    for (BatchItem& item : batch) {
      const int own_object = view.object_of(item.instance_id);
      const double own_prob = view.prob(item.instance_id);
      ObjectState& obj = objects[static_cast<size_t>(own_object)];
      if (obj.tree == nullptr) {
        obj.tree = std::make_unique<RTree>(mapped_dim, options.rtree_fanout);
        obj.max_corner = item.mapped;
      } else {
        for (int k = 0; k < mapped_dim; ++k) {
          if (item.mapped[k] > obj.max_corner[k]) {
            obj.max_corner[k] = item.mapped[k];
          }
        }
      }
      obj.tree->Insert(item.mapped, own_prob, item.instance_id);
      obj.cum_prob += own_prob;
      if (options.enable_pruning && !obj.in_pruning_set &&
          obj.cum_prob >= 1.0 - kProbabilityEps) {
        obj.in_pruning_set = true;
        pruning_set.Add(obj.max_corner);
      }
    }
  }
  goal_pruner.Finish(&result);
  return result;
}

class BnbSolver : public ArspSolver {
 public:
  const char* name() const override { return "bnb"; }
  const char* display_name() const override { return "B&B"; }
  const char* description() const override {
    return "best-first branch-and-bound over an R-tree (Algorithm 2); "
           "options pruning=bool, rtree_fanout=N";
  }
  uint32_t capabilities() const override {
    return kCapGoalPushdown;
  }

  Status Configure(const SolverOptions& options) override {
    ARSP_RETURN_IF_ERROR(options.ExpectOnly({"pruning", "rtree_fanout"}));
    StatusOr<bool> pruning = options.BoolOr("pruning", options_.enable_pruning);
    if (!pruning.ok()) return pruning.status();
    StatusOr<int> fanout =
        options.IntInRange("rtree_fanout", options_.rtree_fanout,
                           RTree::kMinFanout, RTree::kMaxFanout);
    if (!fanout.ok()) return fanout.status();
    options_.enable_pruning = *pruning;
    options_.rtree_fanout = *fanout;
    return Status::OK();
  }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context,
                                 const QueryGoal& goal) override {
    return RunBnb(context, goal, options_);
  }

 private:
  BnbOptions options_;
};

}  // namespace

namespace internal {
std::unique_ptr<ArspSolver> NewBnbSolver() {
  return std::make_unique<BnbSolver>();
}
}  // namespace internal

}  // namespace arsp
