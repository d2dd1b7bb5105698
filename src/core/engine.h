// Copyright 2026 The ARSP Authors.
//
// ArspEngine — the session-level query API over the solver layer. The
// paper's point in computing *all* rskyline probabilities (§I) is that every
// derived retrieval (top-k, p-threshold in the sense of Pei et al. [10],
// count-controlled results) becomes cheap post-processing; the engine makes
// that operational for long-lived callers:
//
//  * typed QueryRequest / QueryResponse instead of hand-assembled
//    ExecutionContext + SolverRegistry + queries.h plumbing per driver;
//  * a context pool keyed by (dataset, constraint fingerprint), so
//    concurrent and repeated queries against the same dataset/constraints
//    share preprocessing. A context stays pooled only while the result
//    cache cannot answer its repeat: a cacheable miss pools its context
//    while it solves, then releases it once its result is cached. Contexts
//    of cache-off requests and view bases stay pooled until evicted;
//  * an LRU result cache keyed by (dataset fingerprint — the handle id,
//    which uniquely and immutably identifies a registered dataset or view —
//    constraints, solver, options) in front of ArspSolver::Solve;
//  * thread safety: callers may Solve concurrently from any number of
//    threads (pooled contexts are safe to share — ExecutionContext
//    lazy-init is locked);
//  * "auto" solver selection from data shape (LOOP for tiny inputs, KDTT+
//    otherwise, weight ratios included — the DUAL family stays
//    explicit-only), resolved from the view before the cache probe. "auto"
//    is also a registry entry, so raw SolverRegistry users and
//    `arsp_cli --algo auto` get the same policy;
//  * AddView(handle, spec) — zero-copy DatasetView windows (full / m%
//    prefix / arbitrary object subset) registered as first-class query
//    targets. Pooled view queries derive their ExecutionContext from the
//    base dataset's pooled context, inheriting its indexes and score
//    storage, so a Fig. 6-style m% sweep pays exactly one full kd-/R-tree
//    build plus per-step delta work (asserted via index_stats());
//  * derived goals — object-level requests (top-k / threshold / count-
//    controlled) are translated into a QueryGoal and answered by
//    AnswerGoal. Top-k and count-controlled goals slice a complete result
//    stored under the full cache key, so one solve serves every later goal
//    on the same spec. A threshold goal is pushed into the solver when it
//    advertises kCapGoalPushdown (QueryGoal::PushesDown): the engine passes
//    the goal to Solve on the same pooled or view context a full solve
//    uses, and the solve maintains per-object probability bounds, skips
//    objects below the threshold, and stops early, returning a *partial*
//    result that answers exactly this threshold. Cache rules: a cached
//    full result serves any derived goal by slicing (subsumption), while a
//    threshold-pruned partial result is cached only under a goal-specific
//    key — it is never returned for a full or different-goal request.
//
// The engine is the designated backend for the ROADMAP's service frontend:
// a daemon would hold one ArspEngine and translate wire requests into
// QueryRequests.

#ifndef ARSP_CORE_ENGINE_H_
#define ARSP_CORE_ENGINE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/status.h"
#include "src/obs/trace.h"
#include "src/core/arsp_result.h"
#include "src/core/solver.h"
#include "src/prefs/preference_region.h"
#include "src/prefs/weight_ratio.h"
#include "src/uncertain/dataset_view.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Handle to a dataset or dataset view registered with an ArspEngine.
struct DatasetHandle {
  int id = -1;
  bool valid() const { return id >= 0; }
};

/// The constraint family of a query: either weight ratio constraints (§IV)
/// or a general preference region (§III). Weight-ratio specs serve both the
/// DUAL family (which reads the ratios) and general-F solvers (the region is
/// derived lazily inside the ExecutionContext).
class ConstraintSpec {
 public:
  /// An empty (invalid) spec; Solve rejects requests carrying one.
  ConstraintSpec() = default;

  static ConstraintSpec Region(PreferenceRegion region) {
    ConstraintSpec spec;
    spec.spec_ = std::move(region);
    return spec;
  }
  static ConstraintSpec WeightRatios(WeightRatioConstraints wr) {
    ConstraintSpec spec;
    spec.spec_ = std::move(wr);
    return spec;
  }

  bool valid() const { return spec_.index() != 0; }
  bool has_weight_ratios() const { return spec_.index() == 2; }
  const PreferenceRegion& region() const {
    return std::get<PreferenceRegion>(spec_);
  }
  const WeightRatioConstraints& weight_ratios() const {
    return std::get<WeightRatioConstraints>(spec_);
  }

  /// Exact textual encoding of the constraints (family tag + every bound or
  /// vertex coordinate at full precision). Equal keys ⇔ equal constraints;
  /// used for context pooling and result caching.
  std::string CacheKey() const;

 private:
  std::variant<std::monostate, PreferenceRegion, WeightRatioConstraints>
      spec_;
};

/// Parses the CLI/service textual constraint syntax into a spec:
///   "wr:l1,h1[,l2,h2,...]"  — weight ratio ranges (needs dim-1 ranges)
///   "rank:c"                — weak ranking ω1 ≥ ... ≥ ωc+1
/// `dim` is the dataset dimensionality the spec must match.
StatusOr<ConstraintSpec> ParseConstraintSpec(const std::string& spec,
                                             int dim);

/// Which derived retrieval to compute from the full ARSP result.
enum class DerivedKind {
  kNone,                   ///< full ARSP only
  kTopKObjects,            ///< k objects by descending Pr_rsky
  kTopKInstances,          ///< k instances by descending Pr_rsky
  kObjectsAboveThreshold,  ///< p-threshold query lifted to rskylines
  /// The probability of the max_objects-th ranked object, as a result-size
  /// control knob; probability ties at that rank can extend the returned
  /// set past max_objects (the threshold is a lower bound under ties).
  kCountControlled,
};

/// Derived-query spec carried by a QueryRequest.
struct DerivedSpec {
  DerivedKind kind = DerivedKind::kNone;
  int k = 10;              ///< for kTopK*; negative = all
  double threshold = 0.5;  ///< for kObjectsAboveThreshold
  int max_objects = 10;    ///< for kCountControlled; must be ≥ 1
};

/// One query against the engine.
struct QueryRequest {
  DatasetHandle dataset;
  ConstraintSpec constraints;
  /// Registry name, or "auto" to let the engine pick per §V guidance.
  std::string solver = "auto";
  SolverOptions options;
  DerivedSpec derived;
  /// Serve from / store into the result cache.
  bool use_cache = true;
  /// Reuse a pooled ExecutionContext. Benchmarks that must pay (and
  /// measure) preprocessing per call set this to false for a private,
  /// discarded context.
  bool pool_context = true;
  /// Push a threshold query's goal into the solver when it advertises
  /// kCapGoalPushdown (bound-based pruning + early termination; the
  /// response's `result` is then partial). Top-k and count-controlled
  /// queries never push down, so the field does not affect them. Set to
  /// false to force the post-hoc path — full solve, then slicing — e.g.
  /// when the full instance-probability vector is also needed, or in A/B
  /// ablations.
  bool allow_pushdown = true;
  /// Intra-query worker budget for solvers advertising
  /// kCapIntraQueryParallel: 0 = the auto policy (parallel from
  /// kParallelMinInstances instances up), 1 = force serial, N ≥ 2 = request
  /// N workers (the process-global core budget may grant fewer). Results are
  /// bit-identical across every value by the parallel determinism contract,
  /// which is also why the result cache ignores this field.
  int parallelism = 0;
  /// Optional per-request trace (non-owning; the caller keeps it alive
  /// through Solve). Null — the default — disables tracing at zero cost:
  /// no allocation, no clock reads, bit-identical results (the cache also
  /// ignores this field). When set, the engine opens child spans for the
  /// cache probe, context acquire (with index build / snapshot adopt
  /// sub-spans), the solve itself (annotated with SolverStats counters),
  /// and derived-goal answering.
  obs::Trace* trace = nullptr;
};

/// Answer to a QueryRequest. The result payload is shared (it may also
/// live in the cache); derived answers are materialized per request.
struct QueryResponse {
  /// The solve's result. Complete — the full probability vector — unless
  /// threshold pushdown ran (`pushdown` true): then it may be partial (check
  /// result->is_complete() before instance-level use; `ranked` and
  /// `count_threshold` are always valid and identical to the post-hoc
  /// answer).
  std::shared_ptr<const ArspResult> result;
  /// True iff the solve executed with threshold pushdown (false = post-hoc
  /// slicing of a full result: always for top-k and count-controlled).
  bool pushdown = false;
  /// Resolved concrete solver (never "auto").
  std::string solver;
  /// Stats of the run that produced `result`; for cache hits, the stats of
  /// the original solve.
  SolverStats stats;
  bool cache_hit = false;
  /// (id, probability) pairs for kTopKObjects / kTopKInstances /
  /// kObjectsAboveThreshold / kCountControlled (the objects at or above
  /// `count_threshold` — ties can push the count past max_objects),
  /// descending by probability.
  std::vector<std::pair<int, double>> ranked;
  /// For kCountControlled: the max_objects-th ranked object's probability.
  double count_threshold = 0.0;
};

/// Engine construction knobs.
struct EngineOptions {
  /// Max entries in the LRU result cache; 0 disables result caching.
  size_t result_cache_capacity = 256;
  /// Max pooled ExecutionContexts; least-recently-used contexts beyond the
  /// cap are evicted (in-flight solves keep theirs alive via shared
  /// ownership). Contexts hold dataset-sized artifacts, so a long-lived
  /// service serving many distinct constraints needs this bound. Mostly
  /// cache-off requests and view bases fill it: a cacheable miss releases
  /// its context once the result cache holds its answer. Must be ≥ 1.
  size_t context_pool_capacity = 64;
};

/// Instance count from which the auto policy (a request's parallelism ==
/// 0) treats a context as "large" and runs parallel-capable solvers across
/// the whole core budget (ARSP_THREADS / hardware concurrency); smaller
/// contexts run serially. Below it, task-spawn overhead and frontier
/// bookkeeping outweigh the traversal work a helper can take on.
inline constexpr int kParallelMinInstances = 200000;

/// Long-lived query engine owning datasets, pooled contexts, and the result
/// cache. All public methods are thread-safe.
class ArspEngine {
 public:
  explicit ArspEngine(EngineOptions options = {});
  ~ArspEngine();

  ArspEngine(const ArspEngine&) = delete;
  ArspEngine& operator=(const ArspEngine&) = delete;

  /// Registers a dataset; the engine shares ownership. Callers wrapping a
  /// longer-lived dataset in a no-op deleter must keep it alive until
  /// DropDataset.
  DatasetHandle AddDataset(std::shared_ptr<const UncertainDataset> dataset);
  /// Convenience: takes ownership of a dataset by value.
  DatasetHandle AddDataset(UncertainDataset dataset);

  /// Registers a zero-copy view over a registered *base* dataset as a
  /// first-class query target: the returned handle works everywhere a
  /// dataset handle does (Solve, derived queries — ranked
  /// results carry base object ids). The view shares the base's instance
  /// payloads; pooled queries against it derive their context from the
  /// base's pooled context, reusing its indexes and score storage.
  /// InvalidArgument for a view-of-a-view (compose specs against the base
  /// instead); NotFound for unknown handles.
  StatusOr<DatasetHandle> AddView(DatasetHandle base, ViewSpec spec);

  /// The base dataset behind a handle (for view handles, the base; shared
  /// ownership, so the reference stays valid across a concurrent
  /// DropDataset), or nullptr for an unknown or already-dropped handle —
  /// the same recoverable contract as Solve's NotFound.
  std::shared_ptr<const UncertainDataset> dataset(DatasetHandle handle) const;

  /// The view a handle queries (full for plain datasets); an invalid view
  /// for unknown handles.
  DatasetView view(DatasetHandle handle) const;

  /// Unregisters a dataset or view and evicts its pooled contexts and
  /// cached results; dropping a base dataset also drops every view
  /// registered over it. Handles are never reused.
  Status DropDataset(DatasetHandle handle);

  /// Executes one request: context pool → result cache → solver → derived
  /// queries.
  StatusOr<QueryResponse> Solve(const QueryRequest& request);

  /// Moves the full result out of a response that uniquely owns it (the
  /// use_cache=false case), avoiding a copy in hot callers like benchmark
  /// loops; falls back to a copy when the payload is shared (cache hits).
  /// Lives on the engine because it relies on the engine's allocation
  /// invariant (payloads are created non-const). Aborts if the response
  /// carries no result.
  static ArspResult TakeResult(QueryResponse&& response);

  /// Result-cache instrumentation.
  struct CacheStats {
    int64_t hits = 0;
    int64_t misses = 0;
    size_t entries = 0;
  };
  CacheStats cache_stats() const;

  /// Number of pooled ExecutionContexts currently alive.
  size_t pooled_contexts() const;

  /// Index work done for one handle since it was registered: every build,
  /// reuse and parent hit of every context the engine made for it, counted
  /// once as it happened, whether the context is still pooled, released or
  /// evicted. A view's base context counts toward the base handle. Counts
  /// never decrease; unknown or dropped handles read zero. Sweep tests sum
  /// this across a base handle and its views to assert "one full index
  /// build, delta work per view".
  ExecutionContext::IndexBuildStats index_stats(DatasetHandle handle) const;

  /// Aggregated index/score memory of one handle's pooled contexts, split
  /// into heap-resident vs snapshot-mapped bytes (the out-of-core accounting
  /// the daemon's STATS reply and arsp_cli --stats report). A gauge of what
  /// is live, unlike index_stats.
  ColumnBytes index_memory(DatasetHandle handle) const;

 private:
  struct CacheEntry {
    std::shared_ptr<const ArspResult> result;
    std::string solver;
    SolverStats stats;
    /// Mirrors result->is_complete(). Partial entries are stored only under
    /// goal-specific keys; this flag is the defensive cross-check that a
    /// full-key lookup can never hand out a partial result.
    bool complete = true;
    /// True iff the entry was produced by a goal-pushdown solve.
    bool pushdown = false;
  };
  using LruList = std::list<std::pair<std::string, CacheEntry>>;

  struct PooledContext {
    std::shared_ptr<ExecutionContext> context;
    uint64_t last_used = 0;  ///< tick of the most recent checkout
    /// Pooled by a cacheable miss, which releases it once its result is
    /// cached. Cleared when a cache-off request or a view pools it too.
    bool transient = false;
  };

  /// A registered query target: the base dataset payload plus the window
  /// over it (full for plain datasets). base_id == the entry's own id for
  /// base datasets, the base handle's id for views.
  struct DatasetEntry {
    std::shared_ptr<const UncertainDataset> dataset;
    DatasetView view;
    int base_id = -1;
    /// index_stats: handed to every context made for this handle.
    std::shared_ptr<ExecutionContext::BuildTotals> builds;
  };

  /// Pooled full-view context for (base_id, constraint_key), creating (and
  /// capacity-evicting) one when absent. If the base entry was concurrently
  /// dropped the fresh context is returned unpooled (correct, just not
  /// reusable).
  std::shared_ptr<ExecutionContext> FindOrCreatePooledContext(
      int base_id, const std::string& constraint_key,
      const ConstraintSpec& constraints,
      const std::shared_ptr<const UncertainDataset>& base_dataset);

  EngineOptions options_;
  mutable std::mutex mu_;
  int next_dataset_id_ = 0;
  uint64_t pool_tick_ = 0;
  std::map<int, DatasetEntry> datasets_;
  std::map<std::pair<int, std::string>, PooledContext> contexts_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string, LruList::iterator> cache_index_;
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
};

/// The solver name the "auto" policy picks for a view: LOOP for tiny inputs
/// where tree setup dominates, KDTT+ otherwise. Neither has a capability
/// requirement, so the instance count alone decides and the engine resolves
/// "auto" before it builds a context. Weight-ratio queries follow the same
/// rule: this DUAL and DUAL-2D-MS lose to KDTT+ on every measured shape
/// (ARCHITECTURE.md, "Deviations from the paper"), so they run only when
/// named.
std::string AutoSelectSolverName(const DatasetView& view);
/// The same choice for a context's view (the "auto" registry entry).
std::string AutoSelectSolverName(const ExecutionContext& context);

}  // namespace arsp

#endif  // ARSP_CORE_ENGINE_H_
