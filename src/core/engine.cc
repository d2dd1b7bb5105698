// Copyright 2026 The ARSP Authors.

#include "src/core/engine.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <sstream>

#include "src/common/lru.h"
#include "src/common/task_arena.h"
#include "src/core/queries.h"
#include "src/prefs/constraint_generators.h"

namespace arsp {

namespace {

// Below this instance count the quadratic LOOP scan beats tree setup.
constexpr int kAutoLoopMaxInstances = 64;

// The QueryGoal a derived request is answered for (and, when it pushes
// down, solved for). Instance-level retrievals stay full: goal pushdown
// tracks per-*object* bounds.
QueryGoal GoalForDerived(const DerivedSpec& derived) {
  QueryGoal goal;
  switch (derived.kind) {
    case DerivedKind::kNone:
    case DerivedKind::kTopKInstances:
      break;
    case DerivedKind::kTopKObjects:
      // Negative k means "rank all objects" — full work by definition, so
      // it maps to the full goal (and AnswerGoal's full slicing). k == 0
      // stays a top-k goal: its answer is empty, not everything.
      if (derived.k >= 0) goal = QueryGoal::TopK(derived.k);
      break;
    case DerivedKind::kObjectsAboveThreshold:
      goal = QueryGoal::Threshold(derived.threshold);
      break;
    case DerivedKind::kCountControlled:
      goal = QueryGoal::CountControlled(derived.max_objects);
      break;
  }
  return goal;
}

// A context over `view` with artifacts of its own, whose index work counts
// into `builds`.
std::shared_ptr<ExecutionContext> NewContext(
    DatasetView view, const ConstraintSpec& constraints,
    std::shared_ptr<ExecutionContext::BuildTotals> builds) {
  auto context = constraints.has_weight_ratios()
                     ? std::make_shared<ExecutionContext>(
                           std::move(view), constraints.weight_ratios())
                     : std::make_shared<ExecutionContext>(
                           std::move(view), constraints.region());
  context->CountBuildsInto(std::move(builds));
  return context;
}

}  // namespace

std::string AutoSelectSolverName(const DatasetView& view) {
  // §V: KDTT+ is the general-purpose default.
  return view.num_instances() <= kAutoLoopMaxInstances ? "loop" : "kdtt+";
}

std::string AutoSelectSolverName(const ExecutionContext& context) {
  return AutoSelectSolverName(context.view());
}

bool IsAutoName(const std::string& normalized) {
  return normalized.empty() || normalized == "auto";
}

// ---------------------------------------------------------- ConstraintSpec

std::string ConstraintSpec::CacheKey() const {
  std::ostringstream os;
  os.precision(17);
  if (has_weight_ratios()) {
    os << "wr:";
    for (const auto& [lo, hi] : weight_ratios().ranges()) {
      os << lo << ',' << hi << ';';
    }
  } else if (valid()) {
    const PreferenceRegion& r = region();
    os << "region:" << r.dim() << ':';
    for (const Point& v : r.vertices()) {
      for (double c : v.coords()) os << c << ',';
      os << ';';
    }
  }
  return os.str();
}

StatusOr<ConstraintSpec> ParseConstraintSpec(const std::string& spec,
                                             int dim) {
  if (spec.rfind("wr:", 0) == 0) {
    std::vector<double> values;
    std::string token;
    bool malformed = false;
    for (size_t i = 3; i <= spec.size(); ++i) {
      if (i == spec.size() || spec[i] == ',') {
        // Empty ("wr:0.5,,2.0") and non-numeric ("wr:1x,2") tokens are
        // typos, not values to coerce.
        char* end = nullptr;
        const double value =
            token.empty() ? 0.0 : std::strtod(token.c_str(), &end);
        if (token.empty() || end != token.c_str() + token.size()) {
          malformed = true;
        } else {
          values.push_back(value);
        }
        token.clear();
      } else {
        token += spec[i];
      }
    }
    if (malformed || values.empty() || values.size() % 2 != 0) {
      return Status::InvalidArgument("bad weight-ratio spec '" + spec +
                                     "': need pairs l1,h1[,l2,h2,...]");
    }
    if (static_cast<int>(values.size() / 2) + 1 != dim) {
      return Status::InvalidArgument(
          "need " + std::to_string(dim - 1) + " ratio ranges for d=" +
          std::to_string(dim) + " data (got " +
          std::to_string(values.size() / 2) + ")");
    }
    std::vector<std::pair<double, double>> ranges;
    for (size_t i = 0; i < values.size(); i += 2) {
      ranges.emplace_back(values[i], values[i + 1]);
    }
    auto wr = WeightRatioConstraints::Create(std::move(ranges));
    if (!wr.ok()) return wr.status();
    return ConstraintSpec::WeightRatios(std::move(*wr));
  }
  if (spec.rfind("rank:", 0) == 0) {
    char* end = nullptr;
    const long c = std::strtol(spec.c_str() + 5, &end, 10);
    if (end == spec.c_str() + 5 || *end != '\0' || c < 0 || c > dim - 1) {
      return Status::InvalidArgument(
          "rank constraint count must be an integer in [0, " +
          std::to_string(dim - 1) + "] (got '" + spec.substr(5) + "')");
    }
    auto region = PreferenceRegion::FromLinearConstraints(
        MakeWeakRankingConstraints(dim, static_cast<int>(c)));
    if (!region.ok()) return region.status();
    return ConstraintSpec::Region(std::move(*region));
  }
  return Status::InvalidArgument("constraint spec '" + spec +
                                 "' must start with 'wr:' or 'rank:'");
}

// --------------------------------------------------------------- engine

ArspEngine::ArspEngine(EngineOptions options) : options_(options) {}

ArspEngine::~ArspEngine() = default;

DatasetHandle ArspEngine::AddDataset(
    std::shared_ptr<const UncertainDataset> dataset) {
  ARSP_CHECK_MSG(dataset != nullptr, "AddDataset: null dataset");
  DatasetView view{dataset};  // full view, shares ownership
  std::lock_guard<std::mutex> lock(mu_);
  const int id = next_dataset_id_++;
  datasets_.emplace(
      id, DatasetEntry{std::move(dataset), std::move(view), id,
                       std::make_shared<ExecutionContext::BuildTotals>()});
  return DatasetHandle{id};
}

DatasetHandle ArspEngine::AddDataset(UncertainDataset dataset) {
  return AddDataset(
      std::make_shared<const UncertainDataset>(std::move(dataset)));
}

StatusOr<DatasetHandle> ArspEngine::AddView(DatasetHandle base,
                                            int num_objects) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = datasets_.find(base.id);
  if (it == datasets_.end()) {
    return Status::NotFound("unknown dataset handle " +
                            std::to_string(base.id));
  }
  if (it->second.base_id != base.id) {
    return Status::InvalidArgument(
        "AddView over view handle " + std::to_string(base.id) +
        " — register views against the base dataset (handle " +
        std::to_string(it->second.base_id) + ") instead");
  }
  auto view = DatasetView::Create(it->second.dataset, num_objects);
  if (!view.ok()) return view.status();
  const int id = next_dataset_id_++;
  datasets_.emplace(
      id, DatasetEntry{it->second.dataset, std::move(*view), base.id,
                       std::make_shared<ExecutionContext::BuildTotals>()});
  return DatasetHandle{id};
}

std::shared_ptr<const UncertainDataset> ArspEngine::dataset(
    DatasetHandle handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = datasets_.find(handle.id);
  if (it == datasets_.end()) return nullptr;
  return it->second.dataset;
}

DatasetView ArspEngine::view(DatasetHandle handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = datasets_.find(handle.id);
  if (it == datasets_.end()) return DatasetView();
  return it->second.view;
}

Status ArspEngine::DropDataset(DatasetHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = datasets_.find(handle.id);
  if (it == datasets_.end()) {
    return Status::NotFound("unknown dataset handle " +
                            std::to_string(handle.id));
  }
  const bool is_base = it->second.base_id == handle.id;
  // Dropping a base cascades to its views: a view's data plane hangs off
  // the base's pooled contexts, and keeping orphan views alive would pin
  // the dataset payload the caller asked to release.
  std::vector<int> dropped;
  if (is_base) {
    for (const auto& [id, entry] : datasets_) {
      if (entry.base_id == handle.id) dropped.push_back(id);
    }
  } else {
    dropped.push_back(handle.id);
  }
  for (int id : dropped) {
    datasets_.erase(id);
    for (auto ctx = contexts_.begin(); ctx != contexts_.end();) {
      if (ctx->first.first == id) {
        ctx = contexts_.erase(ctx);
      } else {
        ++ctx;
      }
    }
    // Cache keys start with the handle id (see Solve), and no later request
    // can name a dropped id, so its results are only dead weight.
    const std::string prefix = std::to_string(id) + '|';
    for (auto entry = lru_.begin(); entry != lru_.end();) {
      if (entry->first.compare(0, prefix.size(), prefix) == 0) {
        cache_index_.erase(entry->first);
        entry = lru_.erase(entry);
      } else {
        ++entry;
      }
    }
  }
  return Status::OK();
}

StatusOr<QueryResponse> ArspEngine::Solve(const QueryRequest& request) {
  if (!request.constraints.valid()) {
    return Status::InvalidArgument("QueryRequest has no constraints");
  }
  if (request.derived.kind == DerivedKind::kCountControlled &&
      request.derived.max_objects < 1) {
    return Status::InvalidArgument("count-controlled query needs "
                                   "max_objects >= 1");
  }
  if (request.derived.kind == DerivedKind::kObjectsAboveThreshold &&
      std::isnan(request.derived.threshold)) {
    // No probability compares below NaN, so it would select every object.
    return Status::InvalidArgument("threshold query needs a number, got NaN");
  }
  if (request.parallelism < 0) {
    return Status::InvalidArgument(
        "QueryRequest.parallelism must be >= 0, got " +
        std::to_string(request.parallelism));
  }

  const bool cacheable =
      request.use_cache && options_.result_cache_capacity > 0;

  // Dataset lookup (short critical section). Key serialization is skipped
  // entirely for pool-less, cache-bypassing requests (the benchmark path) —
  // nothing would read the keys.
  DatasetView view;  // shares ownership of its base: a keep-alive
  int base_id = -1;
  std::shared_ptr<ExecutionContext::BuildTotals> builds;
  const std::string constraint_key =
      request.pool_context || cacheable ? request.constraints.CacheKey()
                                        : std::string();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = datasets_.find(request.dataset.id);
    if (it == datasets_.end()) {
      return Status::NotFound("unknown dataset handle " +
                              std::to_string(request.dataset.id));
    }
    view = it->second.view;
    base_id = it->second.base_id;
    builds = it->second.builds;
  }
  const bool is_view = base_id != request.dataset.id;
  // Solver names are normalized up front: registry lookup is
  // case-insensitive and cache keys must agree with it ("AUTO"/"KDTT+"
  // alias "auto"/"kdtt+"). "auto" resolves from the view alone, so an auto
  // request and an explicit request for the same concrete solver share one
  // cache entry, and an auto hit builds no context.
  std::string solver_name = SolverRegistry::Normalize(request.solver);
  if (IsAutoName(solver_name)) {
    solver_name = AutoSelectSolverName(view);
  }

  // Goal pushdown applies when the derived request maps to a goal that
  // pushes down (a threshold; QueryGoal::PushesDown) and the resolved
  // solver advertises the capability. Every other goal solves, or hits,
  // the full key and is sliced. The capability bit is read from the solver
  // instance the miss path creates anyway — cache lookups need only
  // `want_pushdown`, because a goal-key entry can exist only if a capable
  // solver stored it (probing the key for a capless solver is a
  // guaranteed, harmless miss).
  const QueryGoal goal = GoalForDerived(request.derived);
  const bool want_pushdown = request.allow_pushdown && goal.PushesDown();
  bool pushdown = false;  // decided at solve time from solver capabilities

  QueryResponse response;
  std::string cache_key;
  std::string goal_cache_key;
  // One cache lookup per request, before any context work, so pure cache
  // hits skip context construction and pool churn entirely (pooling is
  // deferred to the miss path, so hits never evict warm contexts from the
  // bounded pool). It counts a hit or a miss and fills the response on a
  // hit. Key structure: `cache_key` identifies the *full* answer of
  // (dataset, constraints, solver, options) — only complete results are
  // ever stored under it, so it can serve any goal by post-hoc slicing
  // (subsumption). Threshold-pruned partial results live under
  // `goal_cache_key` = cache_key + the goal, and are consulted only by
  // pushdown requests for that exact threshold.
  if (cacheable) {
    obs::ScopedSpan probe_span(request.trace, "cache_probe");
    // The handle id is the dataset's fingerprint: handles are never reused
    // across the engine's lifetime and the dataset behind one is immutable
    // (shared_ptr<const>), so the id is collision-proof where a content
    // hash would only be collision-resistant.
    cache_key = std::to_string(request.dataset.id) + '|' + constraint_key +
                '|' + solver_name + '|' + request.options.CacheKey();
    goal_cache_key = want_pushdown
                         ? cache_key + "|goal=" + goal.CacheKey()
                         : std::string();
    std::lock_guard<std::mutex> lock(mu_);
    const auto try_key = [&](const std::string& key, bool want_complete) {
      const auto it = cache_index_.find(key);
      if (it == cache_index_.end()) return false;
      const CacheEntry& entry = it->second->second;
      ARSP_CHECK_MSG(!want_complete || entry.complete,
                     "result cache invariant broken: partial entry under a "
                     "full key");
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most recent
      response.result = entry.result;
      response.solver = entry.solver;
      response.stats = entry.stats;
      response.cache_hit = true;
      response.pushdown = entry.pushdown;
      return true;
    };
    bool hit =
        want_pushdown && try_key(goal_cache_key, /*want_complete=*/false);
    if (!hit) {
      hit = try_key(cache_key, /*want_complete=*/true);
      // Serving a goal from a cached full result is the post-hoc path.
      if (hit) response.pushdown = false;
    }
    if (hit) {
      ++cache_hits_;
    } else {
      ++cache_misses_;
    }
    probe_span.Annotate("hit", hit ? "true" : "false");
  }

  if (!response.cache_hit) {
    std::shared_ptr<ExecutionContext> context;
    // True iff this request put its base's artifacts into the pool as a
    // transient entry, which it takes out again once the result cache holds
    // its answer (below).
    bool pooled_transient = false;
    {
      obs::ScopedSpan acquire_span(request.trace, "context_acquire");
      if (request.pool_context) {
        std::lock_guard<std::mutex> lock(mu_);
        // Pool only while the base is registered (artifacts pooled under a
        // dropped id would be unreachable forever). Concurrent callers on
        // the same base and constraints converge on one entry, so
        // overlapping requests share its lazy builds.
        const auto base = datasets_.find(base_id);
        if (base != datasets_.end()) {
          const auto [it, inserted] =
              contexts_.try_emplace(std::make_pair(base_id, constraint_key));
          PooledContext& pooled = it->second;
          // A cache-off request keeps what it pools, even an entry a
          // cacheable miss put there: only the pool can answer its repeat.
          // So does a view request: every later view step reuses the
          // base's artifacts.
          const bool pins = !cacheable || is_view;
          if (inserted) {
            pooled.context = NewContext(base->second.view,
                                        request.constraints,
                                        base->second.builds);
            pooled_transient = !pins;
            pooled.transient = pooled_transient;
          } else if (pins) {
            pooled.transient = false;
          }
          pooled.last_used = ++pool_tick_;
          context = pooled.context;
          acquire_span.Annotate("source", inserted ? "fresh" : "pooled");
          // Bound the pool: evict the least-recently-used entry beyond the
          // cap (shared ownership keeps in-flight solves on it safe).
          const size_t capacity =
              std::max<size_t>(1, options_.context_pool_capacity);
          while (contexts_.size() > capacity) {
            EvictLeastRecentlyUsed(contexts_);
          }
        }
      }
      if (context == nullptr) {
        // A pool-less request: artifacts of its own, which cover the base
        // all the same.
        context = NewContext(view, request.constraints, builds);
        acquire_span.Annotate("source", "fresh");
      } else if (is_view) {
        context = context->ForView(view);
      }
    }
    response.solver = solver_name;
    // Created unconfigured: the capability bits decide whether the engine
    // may inject an intra-query parallelism hint before Configure runs.
    auto solver = SolverRegistry::Create(solver_name);
    if (!solver.ok()) return solver.status();
    // Resolve the worker request: the per-query field wins, else the auto
    // heuristic (parallelize only large contexts, sized by the
    // process-global core budget so concurrent queries' arenas never
    // oversubscribe — the executor's TryAcquire clamps to whatever is
    // actually free at solve time).
    int effective_parallelism = request.parallelism;
    if (effective_parallelism == 0) {
      effective_parallelism = view.num_instances() >= kParallelMinInstances
                                  ? CoreBudget::Total()
                                  : 1;
    }
    const bool inject_parallelism =
        effective_parallelism >= 2 &&
        ((*solver)->capabilities() & kCapIntraQueryParallel) != 0 &&
        !request.options.Has("parallelism");
    if (inject_parallelism) {
      // The hint never enters `cache_key` (built from request.options
      // above): parallel results are bit-identical to serial by contract,
      // so serial and parallel runs of one query share a cache entry.
      SolverOptions solve_options = request.options;
      solve_options.SetInt("parallelism", effective_parallelism);
      ARSP_RETURN_IF_ERROR((*solver)->Configure(solve_options));
    } else {
      ARSP_RETURN_IF_ERROR((*solver)->Configure(request.options));
    }
    pushdown = want_pushdown &&
               ((*solver)->capabilities() & kCapGoalPushdown) != 0;
    // A pushdown solves the pooled or view context itself for the goal:
    // the goal is an argument of Solve, never part of a context, so one
    // pooled context serves concurrent queries of every goal.
    SolverStats stats;
    ExecutionContext::IndexBuildStats index_before;
    if (request.trace != nullptr) index_before = context->index_build_stats();
    obs::ScopedSpan solve_span(request.trace, "solve");
    const uint64_t solve_start_ns =
        request.trace != nullptr ? obs::Trace::NowNs() : 0;
    StatusOr<ArspResult> result = (*solver)->Solve(
        *context, pushdown ? goal : QueryGoal::Full(), &stats);
    if (!result.ok()) return result.status();
    if (request.trace != nullptr) {
      // The lazy context preprocessing this solve triggered (index builds,
      // snapshot adoption, score mapping) runs at the head of Solve; carve
      // it out as a child span so the timeline separates setup from
      // traversal, and annotate it with the build-vs-adopt counters of the
      // artifacts the context shares.
      const ExecutionContext::IndexBuildStats index_after =
          context->index_build_stats();
      if (stats.setup_millis > 0.0) {
        obs::Span setup;
        setup.name = "index_setup";
        setup.start_ns = solve_start_ns;
        setup.end_ns =
            solve_start_ns + static_cast<uint64_t>(stats.setup_millis * 1e6);
        const auto note = [&setup](const char* key, int64_t delta) {
          if (delta != 0) setup.annotations.emplace_back(key,
                                                         std::to_string(delta));
        };
        note("kdtree_builds", index_after.kdtree_builds -
                                  index_before.kdtree_builds);
        note("rtree_builds",
             index_after.rtree_builds - index_before.rtree_builds);
        note("score_maps", index_after.score_maps - index_before.score_maps);
        note("snapshot_adopts",
             index_after.snapshot_hits - index_before.snapshot_hits);
        request.trace->AdoptChild(std::move(setup));
      }
      solve_span.Annotate("pushdown", pushdown ? "true" : "false");
      stats.AnnotateSpan(&solve_span);
    }
    // Created non-const (then viewed as const) so TakeResult can move the
    // payload out of a uniquely owned response.
    response.result = std::make_shared<ArspResult>(std::move(*result));
    response.stats = stats;
    response.pushdown = pushdown;
    if (cacheable) {
      // Completeness decides the key: a complete result (every full, top-k
      // and count-controlled solve, plus threshold runs that ended up
      // resolving everything) is the universal answer and goes under the
      // full key; a partial result answers only its threshold and goes
      // under the goal key.
      const bool complete = response.result->is_complete();
      const std::string& store_key = complete ? cache_key : goal_cache_key;
      std::lock_guard<std::mutex> lock(mu_);
      // A handle dropped mid-solve stores nothing: no request can name it
      // again, and DropDataset has already cleared its entries.
      if (cache_index_.count(store_key) == 0 &&
          datasets_.count(request.dataset.id) > 0) {
        lru_.emplace_front(store_key,
                           CacheEntry{response.result, response.solver,
                                      response.stats, complete, pushdown});
        cache_index_[store_key] = lru_.begin();
        while (lru_.size() > options_.result_cache_capacity) {
          cache_index_.erase(lru_.back().first);
          lru_.pop_back();
        }
      }
      // The cache now answers this request's repeat, so a context pooled
      // only for it would just pin its score rows and indexes. Release it
      // unless it was evicted and re-pooled meanwhile, or a cache-off
      // request has since claimed it.
      if (pooled_transient) {
        const auto pooled =
            contexts_.find(std::make_pair(base_id, constraint_key));
        if (pooled != contexts_.end() && pooled->second.context == context &&
            pooled->second.transient) {
          contexts_.erase(pooled);
        }
      }
    }
  }

  // Derived retrievals. Object-level goals go through AnswerGoal, which
  // slices complete results post hoc (identical to the historical
  // TopKObjects / ObjectsAboveThreshold / count-controlled recipes,
  // asserted in tests/engine_test.cc) and assembles partial
  // (threshold-pruned) results from their exact object bounds. Ids in the
  // output are base object ids, so callers can map them to names
  // regardless of the window.
  const ArspResult& result = *response.result;
  obs::ScopedSpan goal_span(request.trace, "goal_answer");
  switch (request.derived.kind) {
    case DerivedKind::kNone:
      break;
    case DerivedKind::kTopKInstances:
      response.ranked = TopKInstances(result, request.derived.k);
      break;
    case DerivedKind::kTopKObjects:
    case DerivedKind::kObjectsAboveThreshold:
    case DerivedKind::kCountControlled:
      // `goal` is the exact goal a pushdown solve was pruned for — the
      // same value must reach AnswerGoal (CHECK-enforced on partials).
      response.ranked =
          AnswerGoal(result, view, goal, &response.count_threshold);
      break;
  }
  if (request.trace != nullptr &&
      request.derived.kind != DerivedKind::kNone) {
    goal_span.Annotate("ranked", static_cast<int64_t>(response.ranked.size()));
  }
  return response;
}

ExecutionContext::IndexBuildStats ArspEngine::index_stats(
    DatasetHandle handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = datasets_.find(handle.id);
  if (it == datasets_.end()) return {};
  return it->second.builds->Get();
}

ColumnBytes ArspEngine::index_memory(DatasetHandle handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  ColumnBytes total;
  for (const auto& [key, pooled] : contexts_) {
    if (key.first == handle.id) total += pooled.context->IndexMemoryFootprint();
  }
  return total;
}

ArspResult ArspEngine::TakeResult(QueryResponse&& response) {
  std::shared_ptr<const ArspResult> shared = std::move(response.result);
  ARSP_CHECK_MSG(shared != nullptr, "TakeResult: response has no result");
  if (shared.use_count() == 1) {
    // Safe: Solve allocates every payload as a non-const ArspResult,
    // and unique ownership means no other reader exists.
    return std::move(const_cast<ArspResult&>(*shared));
  }
  return *shared;
}

ArspEngine::CacheStats ArspEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CacheStats{cache_hits_, cache_misses_, lru_.size()};
}

size_t ArspEngine::pooled_contexts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return contexts_.size();
}

}  // namespace arsp
