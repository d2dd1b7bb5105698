// Copyright 2026 The ARSP Authors.

#include "src/core/solver.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/common/lru.h"
#include "src/common/mem.h"
#include "src/common/stopwatch.h"

namespace arsp {

namespace internal {
// Factories defined in the built-in solver translation units.
std::unique_ptr<ArspSolver> NewAutoSolver();
std::unique_ptr<ArspSolver> NewBnbSolver();
std::unique_ptr<ArspSolver> NewDualSolver();
std::unique_ptr<ArspSolver> NewDual2dMsSolver();
std::unique_ptr<ArspSolver> NewEnumSolver();
std::unique_ptr<ArspSolver> NewKdttSolver();
std::unique_ptr<ArspSolver> NewKdttPlusSolver();
std::unique_ptr<ArspSolver> NewLoopSolver();
std::unique_ptr<ArspSolver> NewMwttSolver();
std::unique_ptr<ArspSolver> NewQdttSolver();
}  // namespace internal

namespace {

struct RegistryEntry {
  const char* name;  ///< canonical (lower-case) name
  std::unique_ptr<ArspSolver> (*factory)();
};

// Sorted by name, so Names() is this table's order.
constexpr RegistryEntry kRegistry[] = {
    {"auto", internal::NewAutoSolver},
    {"bnb", internal::NewBnbSolver},
    {"dual", internal::NewDualSolver},
    {"dual-2d-ms", internal::NewDual2dMsSolver},
    {"enum", internal::NewEnumSolver},
    {"kdtt", internal::NewKdttSolver},
    {"kdtt+", internal::NewKdttPlusSolver},
    {"loop", internal::NewLoopSolver},
    {"mwtt", internal::NewMwttSolver},
    {"qdtt+", internal::NewQdttSolver},
};

const char* TypeName(const SolverOptions::Value& v) {
  switch (v.index()) {
    case 0:
      return "bool";
    case 1:
      return "int";
    case 2:
      return "double";
    default:
      return "string";
  }
}

}  // namespace

// ---------------------------------------------------------------- stats

std::string SolverStats::ToString() const {
  std::ostringstream os;
  os << "solver=" << solver << " setup_ms=" << setup_millis
     << " solve_ms=" << solve_millis << " dominance_tests=" << dominance_tests
     << " nodes_visited=" << nodes_visited << " nodes_pruned=" << nodes_pruned
     << " index_probes=" << index_probes
     << " objects_pruned=" << objects_pruned
     << " bound_refinements=" << bound_refinements
     << " early_exit=" << early_exit_depth
     << " index_resident_bytes=" << index_bytes_resident
     << " index_mapped_bytes=" << index_bytes_mapped
     << " peak_rss_bytes=" << peak_rss_bytes
     << " tasks_spawned=" << tasks_spawned
     << " tasks_stolen=" << tasks_stolen
     << " parallel_workers=" << parallel_workers;
  return os.str();
}

void SolverStats::AnnotateSpan(obs::ScopedSpan* span) const {
  if (span == nullptr || !span->enabled()) return;
  span->Annotate("solver", solver);
  char ms[32];
  std::snprintf(ms, sizeof(ms), "%.3f", setup_millis);
  span->Annotate("setup_ms", std::string(ms));
  span->Annotate("dominance_tests", dominance_tests);
  span->Annotate("nodes_visited", nodes_visited);
  span->Annotate("nodes_pruned", nodes_pruned);
  span->Annotate("index_probes", index_probes);
  if (objects_pruned != 0) span->Annotate("objects_pruned", objects_pruned);
  if (bound_refinements != 0) {
    span->Annotate("bound_refinements", bound_refinements);
  }
  if (early_exit_depth != 0) {
    span->Annotate("early_exit_depth", early_exit_depth);
  }
  if (index_bytes_mapped != 0) {
    span->Annotate("index_bytes_mapped", index_bytes_mapped);
  }
  if (tasks_spawned != 0) {
    span->Annotate("tasks_spawned", tasks_spawned);
    span->Annotate("tasks_stolen", tasks_stolen);
    span->Annotate("parallel_workers", parallel_workers);
  }
}

// -------------------------------------------------------------- options

SolverOptions& SolverOptions::SetBool(const std::string& key, bool v) {
  values_[key] = Value(v);
  return *this;
}

SolverOptions& SolverOptions::SetInt(const std::string& key, int64_t v) {
  values_[key] = Value(v);
  return *this;
}

SolverOptions& SolverOptions::SetDouble(const std::string& key, double v) {
  values_[key] = Value(v);
  return *this;
}

SolverOptions& SolverOptions::SetString(const std::string& key,
                                        std::string v) {
  values_[key] = Value(std::move(v));
  return *this;
}

bool SolverOptions::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

StatusOr<bool> SolverOptions::BoolOr(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  if (const bool* v = std::get_if<bool>(&it->second)) return *v;
  return Status::InvalidArgument("option '" + key + "' must be a bool, got " +
                                 TypeName(it->second));
}

StatusOr<int64_t> SolverOptions::IntOr(const std::string& key,
                                       int64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  if (const int64_t* v = std::get_if<int64_t>(&it->second)) return *v;
  return Status::InvalidArgument("option '" + key + "' must be an int, got " +
                                 TypeName(it->second));
}

StatusOr<double> SolverOptions::DoubleOr(const std::string& key,
                                         double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  if (const double* v = std::get_if<double>(&it->second)) return *v;
  if (const int64_t* v = std::get_if<int64_t>(&it->second)) {
    return static_cast<double>(*v);
  }
  return Status::InvalidArgument("option '" + key +
                                 "' must be a number, got " +
                                 TypeName(it->second));
}

StatusOr<int> SolverOptions::IntInRange(const std::string& key, int def,
                                        int lo, int hi) const {
  StatusOr<int64_t> value = IntOr(key, def);
  if (!value.ok()) return value.status();
  if (*value < lo || *value > hi) {
    return Status::InvalidArgument(
        "option '" + key + "' must be in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got " + std::to_string(*value));
  }
  return static_cast<int>(*value);
}

StatusOr<std::string> SolverOptions::StringOr(const std::string& key,
                                              std::string def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  if (const std::string* v = std::get_if<std::string>(&it->second)) return *v;
  return Status::InvalidArgument("option '" + key +
                                 "' must be a string, got " +
                                 TypeName(it->second));
}

Status SolverOptions::ExpectOnly(
    std::initializer_list<const char*> known) const {
  for (const auto& [key, value] : values_) {
    bool found = false;
    for (const char* k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::string msg = "unknown option '" + key + "'";
      if (known.size() > 0) {
        msg += "; supported:";
        for (const char* k : known) msg += std::string(" ") + k;
      }
      return Status::InvalidArgument(std::move(msg));
    }
  }
  return Status::OK();
}

Status SolverOptions::ParseKeyValue(const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("option spec '" + spec +
                                   "' is not key=value");
  }
  const std::string key = spec.substr(0, eq);
  const std::string value = spec.substr(eq + 1);
  if (value == "true" || value == "false") {
    SetBool(key, value == "true");
    return Status::OK();
  }
  char* end = nullptr;
  errno = 0;
  const long long as_int = std::strtoll(value.c_str(), &end, 10);
  if (end != value.c_str() && *end == '\0') {
    if (errno == ERANGE) {
      return Status::InvalidArgument("option '" + key + "' value '" + value +
                                     "' overflows int64");
    }
    SetInt(key, as_int);
    return Status::OK();
  }
  errno = 0;
  const double as_double = std::strtod(value.c_str(), &end);
  if (end != value.c_str() && *end == '\0') {
    if (errno == ERANGE) {
      return Status::InvalidArgument("option '" + key + "' value '" + value +
                                     "' is out of double range");
    }
    SetDouble(key, as_double);
    return Status::OK();
  }
  SetString(key, value);
  return Status::OK();
}

std::string SolverOptions::CacheKey() const {
  std::ostringstream os;
  os.precision(17);
  // Keys and string values are length-prefixed so delimiter characters in
  // them cannot make two distinct bags render identically.
  for (const auto& [key, value] : values_) {
    os << key.size() << ':' << key << '=' << TypeName(value) << ':';
    switch (value.index()) {
      case 0:
        os << (std::get<bool>(value) ? "true" : "false");
        break;
      case 1:
        os << std::get<int64_t>(value);
        break;
      case 2:
        os << std::get<double>(value);
        break;
      default: {
        const std::string& s = std::get<std::string>(value);
        os << s.size() << ':' << s;
        break;
      }
    }
    os << ';';
  }
  return os.str();
}

// -------------------------------------------------------------- context

// Lazy accessors nest (scores() -> mapper() -> region()); only the
// outermost timer records, so a shared wall-clock span is counted once.
// Instances only live inside accessor bodies that hold mu_, which makes the
// depth counter and the accumulated total safe under concurrency.
class ExecutionContext::SetupTimer {
 public:
  explicit SetupTimer(const ExecutionContext* context)
      : context_(context), outermost_(context->setup_depth_ == 0) {
    ++context_->setup_depth_;
  }
  ~SetupTimer() {
    --context_->setup_depth_;
    if (outermost_) context_->total_setup_millis_ += sw_.ElapsedMillis();
  }

 private:
  const ExecutionContext* context_;
  const bool outermost_;
  Stopwatch sw_;
};

ExecutionContext::ExecutionContext(const UncertainDataset& dataset,
                                   PreferenceRegion region)
    : ExecutionContext(DatasetView(dataset), std::move(region)) {}

ExecutionContext::ExecutionContext(DatasetView view, PreferenceRegion region)
    : view_(std::move(view)), region_(std::move(region)) {
  ARSP_CHECK_MSG(view_.valid(), "ExecutionContext over an invalid view");
}

ExecutionContext::ExecutionContext(const UncertainDataset& dataset,
                                   WeightRatioConstraints wr)
    : ExecutionContext(DatasetView(dataset), std::move(wr)) {}

ExecutionContext::ExecutionContext(DatasetView view, WeightRatioConstraints wr)
    : view_(std::move(view)), wr_(std::move(wr)) {
  ARSP_CHECK_MSG(view_.valid(), "ExecutionContext over an invalid view");
  ARSP_CHECK_MSG(view_.num_instances() == 0 || view_.dim() == wr_->dim(),
                 "weight ratio constraints are for dimension %d but the "
                 "dataset has dimension %d",
                 wr_->dim(), view_.dim());
}

ExecutionContext::ExecutionContext(
    std::shared_ptr<const ExecutionContext> parent, DatasetView view)
    : view_(std::move(view)), wr_(parent->wr_), parent_(std::move(parent)) {}

std::shared_ptr<ExecutionContext> ExecutionContext::Derive(
    std::shared_ptr<const ExecutionContext> parent, DatasetView view) {
  ARSP_CHECK_MSG(parent != nullptr, "Derive: null parent context");
  ARSP_CHECK_MSG(view.valid(), "Derive: invalid view");
  const DatasetView& parent_view = parent->view();
  ARSP_CHECK_MSG(&view.base() == &parent_view.base(),
                 "Derive: view windows a different base dataset than the "
                 "parent context");
  // Containment: every child instance must be visible through the parent
  // (O(1) for the prefix ⊆ prefix case that dominates in practice).
  if (!parent_view.is_full()) {
    if (view.is_prefix() && parent_view.is_prefix()) {
      ARSP_CHECK_MSG(view.num_instances() <= parent_view.num_instances(),
                     "Derive: prefix view extends past the parent's prefix");
    } else {
      for (int i = 0; i < view.num_instances(); ++i) {
        ARSP_CHECK_MSG(
            parent_view.LocalInstanceOf(view.base_instance_id(i)) >= 0,
            "Derive: view instance %d is outside the parent's view", i);
      }
    }
  }
  return std::shared_ptr<ExecutionContext>(
      new ExecutionContext(std::move(parent), std::move(view)));
}

const WeightRatioConstraints& ExecutionContext::weight_ratios() const {
  ARSP_CHECK_MSG(wr_.has_value(),
                 "context was not built from weight ratio constraints");
  return *wr_;
}

const PreferenceRegion& ExecutionContext::region() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (region_ptr_ == nullptr) {
    if (region_.has_value()) {
      region_ptr_ = &*region_;
    } else if (parent_ != nullptr) {
      SetupTimer timer(this);  // charges parent work this call triggers
      region_ptr_ = &parent_->region();
    } else {
      SetupTimer timer(this);
      region_ = PreferenceRegion::FromWeightRatios(weight_ratios());
      region_ptr_ = &*region_;
    }
  }
  return *region_ptr_;
}

const ScoreMapper& ExecutionContext::mapper() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (mapper_ptr_ == nullptr) {
    if (parent_ != nullptr) {
      SetupTimer timer(this);
      mapper_ptr_ = &parent_->mapper();
    } else {
      SetupTimer timer(this);
      mapper_.emplace(region());
      mapper_ptr_ = &*mapper_;
    }
  }
  return *mapper_ptr_;
}

ScoreSpan ExecutionContext::scores() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (span_ready_) return span_;
  SetupTimer timer(this);
  if (parent_ != nullptr && view_.is_prefix() &&
      parent_->view().is_prefix()) {
    // Prefix-of-prefix: local ids agree, so the parent's buffer truncated
    // to this view's instance count IS this view's buffer. Zero copies.
    span_ = parent_->scores().Prefix(view_.num_instances());
    Count(&IndexBuildStats::score_reuses);
  } else {
    if (parent_ != nullptr) {
      // Subset: gather the parent's already-mapped rows (memcpy per row
      // beats redoing d'·d multiplications); the parent span itself may be
      // zero-copy storage higher up the derivation chain.
      scores_ = parent_->scores().Gather(parent_->view(), view_);
      Count(&IndexBuildStats::score_reuses);
      span_ = ScoreSpan::Of(*scores_);
      span_ready_ = true;
      return span_;
    }
    const auto& attached = view_.base().attached_scores();
    if (view_.is_full() && attached != nullptr &&
        attached->vertex_hash == mapper().VertexHash()) {
      // Snapshot-attached pre-mapped scores for this exact vertex matrix
      // (the hash covers dimensions and every matrix byte, so the section
      // is bit-identical to what MapView would produce). Full views only:
      // row index must equal local instance id.
      span_ = ScoreSpan{attached->coords.data(), attached->probs.data(),
                        attached->objects.data(), view_.num_instances(),
                        attached->mapped_dim};
      Count(&IndexBuildStats::snapshot_hits);
      span_ready_ = true;
      return span_;
    }
    scores_ = mapper().MapView(view_);
    Count(&IndexBuildStats::score_maps);
    span_ = ScoreSpan::Of(*scores_);
  }
  span_ready_ = true;
  return span_;
}

const KdTree& ExecutionContext::instance_kdtree() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (kdtree_ptr_ == nullptr) {
    SetupTimer timer(this);
    if (parent_ != nullptr) {
      kdtree_ptr_ = &parent_->instance_kdtree();
      Count(&IndexBuildStats::parent_index_hits);
    } else if (view_.is_full() &&
               view_.base().attached_kdtree() != nullptr) {
      // Snapshot-attached prebuilt tree. Only the full view may adopt it:
      // the attached arenas were built over the whole dataset, and a root
      // context over a narrower view must build its own tree so probe
      // results (and their floating-point accumulation orders) match an
      // in-memory build of that view exactly. The dataset outlives the
      // context by contract, which pins the shared arenas.
      kdtree_ptr_ = view_.base().attached_kdtree().get();
      Count(&IndexBuildStats::snapshot_hits);
    } else {
      kdtree_.emplace(KdTree::FromView(view_));
      kdtree_ptr_ = &*kdtree_;
      Count(&IndexBuildStats::kdtree_builds);
    }
  }
  return *kdtree_ptr_;
}

std::shared_ptr<const RTree> ExecutionContext::instance_rtree(
    int fanout) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (parent_ != nullptr) {
    SetupTimer timer(this);
    Count(&IndexBuildStats::parent_index_hits);
    return parent_->instance_rtree(fanout);
  }
  const auto it = rtrees_.find(fanout);
  if (it != rtrees_.end()) {
    it->second.last_used = ++rtree_tick_;
    return it->second.tree;
  }
  SetupTimer timer(this);
  if (view_.is_full() && view_.base().attached_rtree() != nullptr &&
      view_.base().attached_rtree_fanout() == fanout) {
    // Snapshot-attached prebuilt tree (full views only; see
    // instance_kdtree). Cached like a built tree so repeat requests skip
    // the attachment checks.
    auto attached = view_.base().attached_rtree();
    Count(&IndexBuildStats::snapshot_hits);
    if (rtrees_.size() >= kMaxCachedRtrees) EvictLeastRecentlyUsed(rtrees_);
    rtrees_.emplace(fanout, CachedRtree{attached, ++rtree_tick_});
    return attached;
  }
  auto tree = std::make_shared<const RTree>(
      RTree::BulkLoadFromView(view_, fanout));
  Count(&IndexBuildStats::rtree_builds);
  // Bound the cache: drop the least-recently-used fan-out first (in-flight
  // users of an evicted tree keep it alive through their shared_ptr).
  if (rtrees_.size() >= kMaxCachedRtrees) EvictLeastRecentlyUsed(rtrees_);
  rtrees_.emplace(fanout, CachedRtree{tree, ++rtree_tick_});
  return tree;
}

bool ExecutionContext::single_instance_objects() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!single_instance_.has_value()) {
    single_instance_ = view_.single_instance_objects();
  }
  return *single_instance_;
}

ExecutionContext::IndexBuildStats ExecutionContext::index_build_stats() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return index_stats_;
}

void ExecutionContext::CountBuildsInto(std::shared_ptr<BuildTotals> totals) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  build_totals_ = std::move(totals);
}

void ExecutionContext::Count(int64_t IndexBuildStats::*counter) const {
  ++(index_stats_.*counter);
  if (build_totals_ != nullptr) build_totals_->Add(counter);
}

ColumnBytes ExecutionContext::IndexMemoryFootprint() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ColumnBytes bytes;
  if (kdtree_ptr_ != nullptr && parent_ == nullptr) {
    bytes += kdtree_ptr_->memory_bytes();
  }
  for (const auto& [fanout, cached] : rtrees_) {
    bytes += cached.tree->memory_bytes();
  }
  if (scores_.has_value()) {
    // Borrowed probs/objects are the dataset's own columns (MapView over a
    // full or prefix view), not memory this context holds.
    const auto add_owned = [&bytes](const auto& column) {
      if (!column.borrowed()) bytes.Add(column);
    };
    add_owned(scores_->coords);
    add_owned(scores_->probs);
    add_owned(scores_->objects);
  } else if (span_ready_ && parent_ == nullptr) {
    // Span without owned storage on a root context: snapshot-attached
    // scores.
    const auto& attached = view_.base().attached_scores();
    if (attached != nullptr && span_.coords == attached->coords.data()) {
      bytes.Add(attached->coords);
      bytes.Add(attached->probs);
      bytes.Add(attached->objects);
    }
  }
  return bytes;
}

double ExecutionContext::total_setup_millis() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return total_setup_millis_;
}

// ---------------------------------------------------------- goal pruner

GoalPruner::GoalPruner(const QueryGoal& goal, const DatasetView& view)
    : goal_(goal), view_(view), active_(goal.PushesDown()) {
  if (!active_) return;
  const int m = view_.num_objects();
  num_instances_ = view_.num_instances();
  num_objects_ = m;
  lower_.assign(static_cast<size_t>(m), 0.0);
  pending_.assign(static_cast<size_t>(m), 0.0);
  unresolved_.assign(static_cast<size_t>(m), 0);
  decided_.assign(static_cast<size_t>(m), 0);
  excluded_.assign(static_cast<size_t>(m), 0);
  for (int i = 0; i < num_instances_; ++i) {
    const size_t j = static_cast<size_t>(view_.object_of(i));
    pending_[j] += view_.prob(i);
    ++unresolved_[j];
  }
  undecided_ = m;
  for (int j = 0; j < m; ++j) {
    if (unresolved_[static_cast<size_t>(j)] == 0) {
      // No instances in the view: vacuously exact (Pr = 0).
      Decide(j, false);
    } else if (ExcludedNow(j)) {
      // The whole existence mass is below the threshold: excluded before
      // the traversal touches a single instance.
      Decide(j, true);
    }
  }
}

bool GoalPruner::ExcludedNow(int j) const {
  // Strictly conservative cut: kProbabilityEps absorbs summation rounding
  // in the bounds, so an object whose true probability ties the threshold
  // is never excluded — it is refined to exactness and the boundary tie is
  // settled on exact values, identically to post-hoc slicing.
  return lower_[static_cast<size_t>(j)] + pending_[static_cast<size_t>(j)] <
         goal_.p - kProbabilityEps;
}

void GoalPruner::Decide(int j, bool excluded) {
  ARSP_DCHECK(Load(decided_[static_cast<size_t>(j)]) == 0);
  Store(decided_[static_cast<size_t>(j)], static_cast<unsigned char>(1));
  excluded_[static_cast<size_t>(j)] = excluded ? 1 : 0;
  // Resolve calls never overlap (a serial solve, or under the traversal
  // driver's lock), so a load and a store make the decrement.
  Store(undecided_, Load(undecided_) - 1);
  if (excluded) ++objects_pruned_;
}

void GoalPruner::Resolve(int i, double prob) {
  if (!active_) return;
  ++bound_refinements_;
  ++resolved_;
  const size_t j = static_cast<size_t>(view_.object_of(i));
  ARSP_DCHECK(unresolved_[j] > 0);
  lower_[j] += prob;
  pending_[j] -= view_.prob(i);
  if (pending_[j] < 0.0) pending_[j] = 0.0;  // clamp summation rounding
  --unresolved_[j];
  if (Load(decided_[j]) != 0) return;
  if (unresolved_[j] == 0) {
    Decide(static_cast<int>(j), false);  // exact
  } else if (ExcludedNow(static_cast<int>(j))) {
    Decide(static_cast<int>(j), true);
  }
}

bool GoalPruner::AllDecided(const int* ids, int count) const {
  if (!active_ || Load(undecided_) == num_objects_) return false;
  for (int i = 0; i < count; ++i) {
    if (Load(decided_[static_cast<size_t>(view_.object_of(ids[i]))]) == 0) {
      return false;
    }
  }
  return true;
}

void GoalPruner::Finish(ArspResult* result) const {
  if (!active_) return;
  result->goal = goal_;
  result->complete = all_resolved();
  result->objects_pruned = objects_pruned_;
  result->bound_refinements = bound_refinements_;
  const int m = num_objects_;
  result->object_bounds.assign(static_cast<size_t>(m), ProbabilityBounds{});
  result->object_decisions.assign(static_cast<size_t>(m),
                                  ObjectDecision::kUndecided);
  for (int j = 0; j < m; ++j) {
    const size_t sj = static_cast<size_t>(j);
    ProbabilityBounds& b = result->object_bounds[sj];
    if (unresolved_[sj] == 0) {
      // Exact: re-sum in ascending instance order — the accumulation order
      // of ObjectProbabilities — so slicing this run's instance vector
      // post hoc would give exactly this value.
      const auto [begin, end] = view_.object_range(j);
      double sum = 0.0;
      for (int i = begin; i < end; ++i) {
        sum += result->instance_probs[static_cast<size_t>(i)];
      }
      b.lower = sum;
      b.upper = sum;
      result->object_decisions[sj] = ObjectDecision::kExact;
    } else {
      b.lower = lower_[sj];
      b.upper = lower_[sj] + pending_[sj];
      if (Load(decided_[sj]) != 0) {
        ARSP_DCHECK(excluded_[sj] != 0);
        result->object_decisions[sj] = ObjectDecision::kExcluded;
      }
    }
  }
}

// --------------------------------------------------------------- solver

Status ArspSolver::ValidateContext(const ExecutionContext& context) const {
  const uint32_t caps = capabilities();
  if ((caps & kCapRequiresWeightRatios) && !context.has_weight_ratios()) {
    return Status::FailedPrecondition(
        std::string(display_name()) +
        " requires weight-ratio constraints (wr:...), not a general "
        "preference region");
  }
  if ((caps & kCapRequires2d) && context.dataset().dim() != 2) {
    return Status::FailedPrecondition(
        std::string(display_name()) + " requires 2-dimensional data (got d=" +
        std::to_string(context.dataset().dim()) + ")");
  }
  if ((caps & kCapRequiresSingleInstanceObjects) &&
      !context.single_instance_objects()) {
    return Status::FailedPrecondition(
        std::string(display_name()) +
        " requires single-instance objects (the IIP regime)");
  }
  return Status::OK();
}

StatusOr<ArspResult> ArspSolver::Solve(ExecutionContext& context,
                                       const QueryGoal& goal,
                                       SolverStats* stats_out) {
  ARSP_RETURN_IF_ERROR(ValidateContext(context));
  const double setup_before = context.total_setup_millis();
  Stopwatch sw;
  StatusOr<ArspResult> result = SolveImpl(context, goal);
  if (!result.ok() || stats_out == nullptr) return result;
  // Per-run stats start from zero: a pooled context reused across queries
  // must never report cumulative counters. setup_millis is what this run
  // paid, measured as the growth of the context's monotonic setup total.
  SolverStats stats;
  stats.solver = name();
  stats.solve_millis = sw.ElapsedMillis();
  stats.setup_millis = context.total_setup_millis() - setup_before;
  stats.dominance_tests = result->dominance_tests;
  stats.nodes_visited = result->nodes_visited;
  stats.nodes_pruned = result->nodes_pruned;
  stats.index_probes = result->index_probes;
  stats.objects_pruned = result->objects_pruned;
  stats.bound_refinements = result->bound_refinements;
  stats.early_exit_depth = result->early_exit_depth;
  stats.tasks_spawned = result->tasks_spawned;
  stats.tasks_stolen = result->tasks_stolen;
  stats.parallel_workers = result->parallel_workers;
  // Index artifacts live on the root ancestor (children delegate R-trees,
  // alias the kd-tree, and share the score span), and IndexMemoryFootprint
  // charges each artifact to its owning context so engine-wide sums don't
  // double count. Per-query stats therefore read the root's footprint —
  // that is what backed this solve.
  const ExecutionContext* footprint_context = &context;
  while (footprint_context->parent() != nullptr) {
    footprint_context = footprint_context->parent();
  }
  const ColumnBytes footprint = footprint_context->IndexMemoryFootprint();
  stats.index_bytes_resident = static_cast<int64_t>(footprint.resident);
  stats.index_bytes_mapped = static_cast<int64_t>(footprint.mapped);
  stats.peak_rss_bytes = PeakRssBytes();
  *stats_out = std::move(stats);
  return result;
}

// ------------------------------------------------------------- registry

std::string SolverRegistry::Normalize(const std::string& name) {
  std::string out = name;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

StatusOr<std::unique_ptr<ArspSolver>> SolverRegistry::Create(
    const std::string& name) {
  const std::string canonical = Normalize(name);
  for (const RegistryEntry& entry : kRegistry) {
    if (canonical == entry.name) return entry.factory();
  }
  std::string msg = "unknown solver '" + name + "'; registered:";
  for (const RegistryEntry& entry : kRegistry) {
    msg += std::string(" ") + entry.name;
  }
  return Status::NotFound(std::move(msg));
}

StatusOr<std::unique_ptr<ArspSolver>> SolverRegistry::Create(
    const std::string& name, const SolverOptions& options) {
  StatusOr<std::unique_ptr<ArspSolver>> solver = Create(name);
  if (!solver.ok()) return solver;
  ARSP_RETURN_IF_ERROR((*solver)->Configure(options));
  return solver;
}

std::vector<std::string> SolverRegistry::Names() {
  std::vector<std::string> names;
  for (const RegistryEntry& entry : kRegistry) names.push_back(entry.name);
  return names;
}

}  // namespace arsp
