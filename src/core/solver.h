// Copyright 2026 The ARSP Authors.
//
// The unified solver abstraction over every ARSP algorithm family (§III-§IV):
// one problem — all rskyline probabilities — served by interchangeable
// algorithms (ENUM, LOOP, B&B, KDTT/KDTT+, QDTT+, MWTT, DUAL, DUAL-2D-MS).
//
//  * ArspSolver        — the algorithm interface: canonical name, capability
//                        flags, a typed option bag, and an instrumented
//                        Solve() entry point.
//  * SolverRegistry    — the table of built-in solvers by name, so drivers
//                        never hand-roll string dispatch.
//  * ExecutionContext  — a DatasetView over the once-per-query preprocessing
//                        every solver would otherwise recompute: the §III-B
//                        score-space mapping SV(·), the SoA score storage
//                        the traversal solvers iterate, query-independent
//                        index structures over the original points, and
//                        counters of the index work. The artifacts cover
//                        the whole base dataset, so every view of it can
//                        share them (the zero-copy data plane).
//
// Adding a solver: subclass ArspSolver in the algorithm's .cc file, define
// internal::New<X>Solver() there, and add one row to the registry table in
// solver.cc. See ARCHITECTURE.md for the full recipe.

#ifndef ARSP_CORE_SOLVER_H_
#define ARSP_CORE_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "src/common/column.h"
#include "src/common/status.h"
#include "src/core/arsp_result.h"
#include "src/index/kdtree.h"
#include "src/index/rtree.h"
#include "src/obs/trace.h"
#include "src/prefs/preference_region.h"
#include "src/prefs/score_mapper.h"
#include "src/prefs/weight_ratio.h"
#include "src/uncertain/dataset_view.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Capability flags: what a solver needs from the query, and cost classes
/// that let harnesses budget runtime without naming algorithms.
enum SolverCaps : uint32_t {
  kCapNone = 0,
  /// Only runs under weight ratio constraints (§IV); the context must have
  /// been built from WeightRatioConstraints.
  kCapRequiresWeightRatios = 1u << 0,
  /// Only runs on 2-dimensional data (DUAL-2D-MS).
  kCapRequires2d = 1u << 1,
  /// Only runs when every object has a single instance (the IIP regime of
  /// §V-D that DUAL-2D-MS's prefix products assume).
  kCapRequiresSingleInstanceObjects = 1u << 2,
  /// Θ(n²) or worse in the instance count; harnesses skip large inputs.
  kCapQuadraticTime = 1u << 3,
  /// Exponential in the object count; executable ground truth only.
  kCapExponentialTime = 1u << 4,
  /// Work grows exponentially with the mapped dimensionality d' = |V|
  /// (QDTT+'s 2^{d'} quadrant fan-out); harnesses cap the vertex count.
  kCapExponentialInVertices = 1u << 5,
  /// Honors a threshold goal passed to ArspSolver::Solve
  /// (QueryGoal::PushesDown): maintains per-object probability bounds
  /// through a GoalPruner, skips objects below the threshold, stops early
  /// when every object is decided, and may return a partial
  /// (is_complete() == false) ArspResult. Every other goal gets a complete
  /// result. Solvers without this flag ignore the goal and return complete
  /// results — correct for any goal, just without the savings.
  kCapGoalPushdown = 1u << 6,
  /// Honors the "parallelism" solver option: splits the traversal at a
  /// frontier depth into subtree tasks on a TaskArena, with results
  /// bit-identical to the serial run by contract (see ARCHITECTURE.md,
  /// "Intra-query parallel executor"). Only the four Algorithm-1 traversal
  /// solvers carry it; the others reject the option.
  kCapIntraQueryParallel = 1u << 7,
};

/// Uniform instrumentation for one Solve() run: wall time split into the
/// context preprocessing this run triggered vs. the traversal itself, plus
/// the algorithm counters mirrored from ArspResult.
struct SolverStats {
  std::string solver;            ///< canonical solver name
  double setup_millis = 0.0;     ///< lazy context preprocessing this run paid
  double solve_millis = 0.0;     ///< total Solve() wall time (includes setup)
  int64_t dominance_tests = 0;   ///< pairwise F-dominance tests
  int64_t nodes_visited = 0;     ///< tree nodes expanded / constructed
  int64_t nodes_pruned = 0;      ///< subtrees pruned
  int64_t index_probes = 0;      ///< window / half-space index probes
  /// Goal-pushdown counters (zero for full-goal runs; see GoalPruner).
  int64_t objects_pruned = 0;     ///< objects decided out by bounds
  int64_t bound_refinements = 0;  ///< per-object bound updates applied
  int64_t early_exit_depth = 0;   ///< depth of the global goal-met stop
  /// Data-plane memory accounting, taken after the run: the context's index
  /// and score artifacts split by where their bytes live (heap-owned vs.
  /// snapshot-mapped), plus the process peak RSS (0 when the platform
  /// cannot report it).
  int64_t index_bytes_resident = 0;  ///< heap-owned index/score bytes
  int64_t index_bytes_mapped = 0;    ///< snapshot-borrowed (mmap) bytes
  int64_t peak_rss_bytes = 0;        ///< getrusage peak RSS of the process
  /// Intra-query parallelism counters (zero when no task was spawned).
  int64_t tasks_spawned = 0;    ///< subtree tasks submitted to the arena
  int64_t tasks_stolen = 0;     ///< tasks a helper ran, not the caller
  int64_t parallel_workers = 0;  ///< arena workers granted (incl. caller)

  /// One-line "k=v" rendering for logs and arsp_cli --stats.
  std::string ToString() const;

  /// Annotates a trace span with the run's counters (zero-valued optional
  /// counters — the goal-pushdown and parallelism groups — are skipped to
  /// keep span trees readable). No-op on a disabled span. The counter list
  /// lives here, next to the struct, so the engine's solve span and any
  /// future reporter cannot drift from the fields.
  void AnnotateSpan(obs::ScopedSpan* span) const;
};

/// Typed option bag passed to ArspSolver::Configure. Values keep the type
/// they were set with; typed getters fail loudly on mismatches instead of
/// silently coercing.
class SolverOptions {
 public:
  using Value = std::variant<bool, int64_t, double, std::string>;

  SolverOptions& SetBool(const std::string& key, bool v);
  SolverOptions& SetInt(const std::string& key, int64_t v);
  SolverOptions& SetDouble(const std::string& key, double v);
  SolverOptions& SetString(const std::string& key, std::string v);

  bool empty() const { return values_.empty(); }
  bool Has(const std::string& key) const;

  /// Typed reads with a default for absent keys. A present key of the wrong
  /// type is an InvalidArgument (ints widen to double in DoubleOr).
  StatusOr<bool> BoolOr(const std::string& key, bool def) const;
  StatusOr<int64_t> IntOr(const std::string& key, int64_t def) const;
  StatusOr<double> DoubleOr(const std::string& key, double def) const;
  StatusOr<std::string> StringOr(const std::string& key,
                                 std::string def) const;

  /// IntOr narrowed to an int in [lo, hi]: a present value outside the
  /// range is an InvalidArgument rather than a wrapped or clamped int.
  StatusOr<int> IntInRange(const std::string& key, int def, int lo,
                           int hi) const;

  /// InvalidArgument when any key is not in `known` — solvers call this
  /// first so typos fail instead of being ignored.
  Status ExpectOnly(std::initializer_list<const char*> known) const;

  /// Parses a "key=value" pair (CLI --opt). Values parse as bool
  /// (true/false), int64, double, or fall back to string.
  Status ParseKeyValue(const std::string& spec);

  /// Deterministic rendering of the full bag ("key=type:value;..."), used as
  /// a component of ArspEngine result-cache keys. Equal bags produce equal
  /// strings and vice versa.
  std::string CacheKey() const;

 private:
  std::map<std::string, Value> values_;
};

class ExecutionContext;

/// Shared per-run bookkeeping for threshold pushdown, used by every solver
/// that advertises kCapGoalPushdown. The traversal reports each instance's
/// exact rskyline probability the moment it is determined (Resolve); the
/// pruner maintains per-object bounds
///   lower  = Σ resolved instance probabilities,
///   upper  = lower + Σ existence probabilities of unresolved instances
/// (an instance's rskyline probability never exceeds its existence
/// probability), and decides each object against the threshold p: excluded
/// once upper < p − ε, exact once all its instances are resolved. An object
/// whose whole existence mass is below p − ε is excluded at construction.
/// ε = kProbabilityEps absorbs summation rounding, so an object near the cut
/// is never excluded — it is refined to exactness and a tie with p is
/// settled on its exact value, exactly like post-hoc slicing.
/// The traversal asks AllDecided() to skip subtrees whose instances all
/// belong to decided objects, and GoalMet() to stop the whole solve once
/// every object is decided. Decisions are monotone — an object never
/// becomes undecided again — which is what makes both skips sound.
///
/// Parallel traversal lanes read the decisions (ObjectDecided, AllDecided,
/// GoalMet) while one lane at a time, holding the driver's lock, calls
/// Resolve. The decision state is therefore read and written through
/// relaxed atomics; a lane that reads a stale decision only misses a skip.
/// Every other member is touched by Resolve and Finish alone.
///
/// A pruner built from a goal that does not push down is inactive: every
/// method is a cheap no-op and solvers pass nullptr into their hot loops
/// instead.
class GoalPruner {
 public:
  /// Reads instances through `view`, which it copies.
  GoalPruner(const QueryGoal& goal, const DatasetView& view);

  /// goal.PushesDown(): false for everything but a threshold p > 0.
  bool active() const { return active_; }

  /// Records the exact rskyline probability of instance `i`. Must be
  /// called exactly once per evaluated instance (zeros included — a pruned
  /// subtree's zeros are resolutions too).
  void Resolve(int i, double prob);

  /// Whether object `j`'s outcome is decided (exact or excluded). Solvers
  /// use it to skip per-instance work whose only purpose is j's own
  /// probability — never work that feeds *other* objects' probabilities.
  bool ObjectDecided(int j) const {
    return active_ && Load(decided_[static_cast<size_t>(j)]) != 0;
  }

  /// True when every instance in `ids[0..count)` belongs to a decided
  /// object — the subtree need not be visited at all.
  bool AllDecided(const int* ids, int count) const;

  /// True when every object is decided: the answer is determined and the
  /// solve can stop.
  bool GoalMet() const { return active_ && Load(undecided_) == 0; }

  /// True when every instance was resolved (the run degenerated to a full
  /// solve); such a result is complete and answers any goal.
  bool all_resolved() const { return resolved_ == num_instances_; }

  int64_t objects_pruned() const { return objects_pruned_; }
  int64_t bound_refinements() const { return bound_refinements_; }

  /// Exports goal, bounds, decisions, completeness, and counters into the
  /// result. Exact objects' bounds are recomputed as instance-order sums
  /// over result->instance_probs — the same accumulation order as
  /// ObjectProbabilities — so they equal post-hoc slicing of a full solve
  /// bit for bit. No-op when inactive.
  void Finish(ArspResult* result) const;

 private:
  // The relaxed atomic accesses of the decision state (see the class
  // comment). On x86-64 both compile to plain moves.
  template <typename T>
  static T Load(const T& value) {
    return std::atomic_ref<T>(const_cast<T&>(value))
        .load(std::memory_order_relaxed);
  }
  template <typename T>
  static void Store(T& target, T value) {
    std::atomic_ref<T>(target).store(value, std::memory_order_relaxed);
  }

  bool ExcludedNow(int j) const;
  void Decide(int j, bool excluded);

  QueryGoal goal_;
  DatasetView view_;
  bool active_ = false;
  int num_instances_ = 0;
  int num_objects_ = 0;
  // Per-object state.
  std::vector<double> lower_;    ///< Σ resolved rskyline probabilities
  std::vector<double> pending_;  ///< Σ unresolved existence probs
  std::vector<int> unresolved_;  ///< #instances not yet resolved
  std::vector<unsigned char> decided_;  ///< read concurrently: Load/Store
  std::vector<unsigned char> excluded_;
  int undecided_ = 0;  ///< read concurrently: Load/Store
  int64_t resolved_ = 0;
  int64_t objects_pruned_ = 0;
  int64_t bound_refinements_ = 0;
};

/// Interface every ARSP algorithm implements. Solvers are cheap to construct
/// and carry only configuration; all per-query state lives in the
/// ExecutionContext so one context can be solved by many algorithms, on
/// many threads at once.
class ArspSolver {
 public:
  virtual ~ArspSolver() = default;

  /// Canonical registry name, e.g. "kdtt+".
  virtual const char* name() const = 0;
  /// Paper-style display name, e.g. "KDTT+" or "B&B".
  virtual const char* display_name() const = 0;
  /// One-line description for `arsp_cli --algo list`.
  virtual const char* description() const = 0;
  /// Bitwise OR of SolverCaps.
  virtual uint32_t capabilities() const { return kCapNone; }

  /// Applies solver-specific options. Unknown keys and type mismatches are
  /// InvalidArgument. The default accepts only an empty bag.
  virtual Status Configure(const SolverOptions& options) {
    return options.ExpectOnly({});
  }

  /// Checks the context against capabilities(); FailedPrecondition explains
  /// what is missing (e.g. DUAL without weight-ratio constraints). Virtual
  /// so solvers with input-size limits (ENUM's world cap) can refuse
  /// cleanly instead of tripping a fatal guard mid-solve; overrides must
  /// call the base first.
  virtual Status ValidateContext(const ExecutionContext& context) const;

  /// Validates and runs the algorithm for `goal`: a kCapGoalPushdown solver
  /// prunes for a goal that pushes down, every other solver and goal gets
  /// a complete result. The goal belongs to this run alone, so one context
  /// serves every goal, on any number of threads at once. If `stats_out` is
  /// non-null it receives this run's SolverStats (wall time via Stopwatch
  /// plus the ArspResult counters), built fresh for every run — a reused
  /// (pooled) context never accumulates counters across queries. Caveat:
  /// setup_millis is the growth of the context's setup total during the
  /// run, so when concurrent runs first-touch one context, setup paid by
  /// one thread can be attributed to every overlapping run (their sum can
  /// exceed wall setup time); counters other than setup_millis are exact.
  StatusOr<ArspResult> Solve(ExecutionContext& context,
                             const QueryGoal& goal = QueryGoal::Full(),
                             SolverStats* stats_out = nullptr);

 protected:
  /// The algorithm body. Preprocessing comes from the context; anything the
  /// solver computes here is per-run. Solvers without kCapGoalPushdown
  /// ignore `goal`.
  virtual StatusOr<ArspResult> SolveImpl(ExecutionContext& context,
                                         const QueryGoal& goal) = 0;
};

/// Once-per-query state shared across solvers: a DatasetView (the query
/// target — a whole dataset or an object prefix of one) over the artifacts
/// of one (base dataset, constraints) pair — the preference region, the
/// SV(·) mapper, the mapped score rows, the kd-tree and the R-trees — each
/// computed lazily over the whole base (or adopted from a snapshot's), then
/// cached. The view's base dataset must outlive the context (or be owned by
/// the view); constraints are copied in. A context holds no goal: the goal
/// is an argument of each ArspSolver::Solve, so every context serves every
/// goal.
///
/// The kd-/R-trees cover every base instance and are probed with the view's
/// instance count as the id bound, and the score rows are truncated to the
/// view, so a view answers the same bits whichever context serves it.
/// ForView(view) makes a context for another view of the same base over the
/// same artifacts: an m% sweep served that way builds each index once, and
/// index_build_stats() exposes the counters tests assert this with.
///
/// Lazy initialization is thread-safe: accessors serialize on one recursive
/// mutex (they nest) that every context over the same artifacts shares, and
/// every artifact is immutable once built, so ArspEngine can run many
/// solvers against one pooled context and its views concurrently; threads
/// only contend during first touch.
class ExecutionContext {
 public:
  /// Context for a general preference region (weak ranking, interactive, or
  /// custom vertex sets).
  ExecutionContext(const UncertainDataset& dataset, PreferenceRegion region);
  ExecutionContext(DatasetView view, PreferenceRegion region);

  /// Context for weight ratio constraints. General-F solvers derive the
  /// preference region lazily through region(); DUAL-family solvers read the
  /// ratios directly.
  ExecutionContext(const UncertainDataset& dataset, WeightRatioConstraints wr);
  ExecutionContext(DatasetView view, WeightRatioConstraints wr);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// A context for `view` over this context's artifacts and constraints.
  /// `view` must window the same base dataset (checked); any object count
  /// will do, because the artifacts cover the whole base.
  std::shared_ptr<ExecutionContext> ForView(DatasetView view) const;

  /// The base dataset behind the view.
  const UncertainDataset& dataset() const { return view_.base(); }

  /// The query target. Solvers read instances exclusively through this or
  /// through scores().
  const DatasetView& view() const { return view_; }

  bool has_weight_ratios() const;
  /// The weight ratio constraints; only valid when has_weight_ratios().
  const WeightRatioConstraints& weight_ratios() const;

  /// The preference region Ω; derived from the weight ratios on first use
  /// when the context was built from them.
  const PreferenceRegion& region() const;

  /// The §III-B score mapper SV(·) for region(). Cached.
  const ScoreMapper& mapper() const;

  /// SoA score storage of the view's instances (row i = instance i): what
  /// every tree-traversal solver iterates. The mapped coordinates are a
  /// snapshot's pre-mapped rows when their vertex hash matches the
  /// mapper's, or else a mapping of the whole base made once; either way
  /// truncated to the view (zero copies). The probability and object-id
  /// streams are the base dataset's columns.
  ScoreSpan scores() const;

  /// Kd-tree over the base dataset's original instance points (weights =
  /// probabilities, ids = instance ids), query-independent; used by the
  /// DUAL half-space probes. It covers the whole base whatever the view,
  /// so callers skip ids >= view().num_instances(). The snapshot's attached
  /// tree when there is one, else built over the base once.
  const KdTree& instance_kdtree() const;

  /// STR-bulk-loaded R-tree over the base dataset's original instance
  /// points (ids = instance ids) with the given fan-out; covers the base
  /// like instance_kdtree (a snapshot's tree is adopted when its fan-out is
  /// the one asked for). Cached per fan-out value, so callers alternating
  /// fan-outs (ablation benches, mixed batch queries) never rebuild. The
  /// cache holds at most kMaxCachedRtrees trees (long-lived pooled contexts
  /// must not grow one dataset-sized tree per distinct fan-out ever
  /// requested); shared ownership keeps a caller's tree valid across
  /// eviction.
  std::shared_ptr<const RTree> instance_rtree(int fanout) const;

  /// Bound on distinct fan-outs cached by instance_rtree.
  static constexpr size_t kMaxCachedRtrees = 8;

  /// Data-plane instrumentation: what was built over the artifacts versus
  /// adopted from a snapshot. A sweep of views served from one set of
  /// artifacts must show exactly one full kd/R build.
  struct IndexBuildStats {
    int64_t kdtree_builds = 0;   ///< kd-trees built over the base
    int64_t rtree_builds = 0;    ///< R-trees bulk-loaded over the base
    int64_t score_maps = 0;      ///< score rows filled by dot-product runs
    int64_t snapshot_hits = 0;   ///< artifacts adopted from a snapshot

    /// Field-wise accumulation — the one place that must know every
    /// counter, so aggregators (engine, CLI, tests) cannot drift.
    IndexBuildStats& operator+=(const IndexBuildStats& other) {
      kdtree_builds += other.kdtree_builds;
      rtree_builds += other.rtree_builds;
      score_maps += other.score_maps;
      snapshot_hits += other.snapshot_hits;
      return *this;
    }
  };
  /// The index work done on this context's artifacts, by any context that
  /// shares them.
  IndexBuildStats index_build_stats() const;

  /// Running IndexBuildStats that many artifact sets add to as they work,
  /// so the counts outlive every one of them. ArspEngine keeps one per
  /// dataset handle. Thread-safe.
  class BuildTotals {
   public:
    void Add(int64_t IndexBuildStats::*counter) {
      std::lock_guard<std::mutex> lock(mu_);
      ++(stats_.*counter);
    }
    IndexBuildStats Get() const {
      std::lock_guard<std::mutex> lock(mu_);
      return stats_;
    }

   private:
    mutable std::mutex mu_;
    IndexBuildStats stats_;
  };

  /// From now on, every increment of index_build_stats() is also added to
  /// `totals`.
  void CountBuildsInto(std::shared_ptr<BuildTotals> totals);

  /// Resident vs. mapped bytes of the index and score artifacts this context
  /// serves queries with (its kd-tree, cached R-trees, and score rows —
  /// whether built in memory or adopted from a snapshot). Artifacts not yet
  /// lazily built are not counted. Every context over the same artifacts
  /// reports the same bytes.
  ColumnBytes IndexMemoryFootprint() const;

  /// Total lazy-preprocessing wall time paid on this context's artifacts so
  /// far, by any context that shares them, in milliseconds. Monotonic;
  /// ArspSolver::Solve diffs it around a run to attribute the setup that
  /// run triggered.
  double total_setup_millis() const;

 private:
  // The artifacts of one (base dataset, constraints) pair and the lock and
  // counters that go with them; defined in solver.cc.
  struct Shared;

  ExecutionContext(DatasetView view, std::shared_ptr<Shared> shared);

  DatasetView view_;
  std::shared_ptr<Shared> shared_;
};

/// The built-in solvers by name: one sorted {name, factory} table in
/// solver.cc. Naming each factory there is also what links its translation
/// unit into every binary that uses the registry.
class SolverRegistry {
 public:
  /// Canonical (lower-case) form of a solver name — the single definition
  /// of the registry's case-insensitivity, shared by everything that must
  /// agree with lookup (engine cache keys, CLI dispatch).
  static std::string Normalize(const std::string& name);

  /// Creates the named solver, or NotFound listing the registered names.
  static StatusOr<std::unique_ptr<ArspSolver>> Create(const std::string& name);

  /// Create + Configure in one step.
  static StatusOr<std::unique_ptr<ArspSolver>> Create(
      const std::string& name, const SolverOptions& options);

  /// Sorted canonical names of every registered solver.
  static std::vector<std::string> Names();
};

}  // namespace arsp

#endif  // ARSP_CORE_SOLVER_H_
