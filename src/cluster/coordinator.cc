// Copyright 2026 The ARSP Authors.

#include "src/cluster/coordinator.h"

#include <algorithm>
#include <condition_variable>

#include "src/common/macros.h"
#include "src/obs/trace.h"

namespace arsp {
namespace cluster {

namespace {

// Stitches the shard reply's span subtree (if it carries one) under the
// trace's innermost open span, the forward span. The subtree keeps its
// shard-local clock (offsets are per-process; only structure and durations
// are comparable across the stitch boundary).
void AdoptShardTrace(obs::Trace* trace, const QueryResponseWire& part,
                     int shard) {
  if (trace == nullptr || part.trace_spans.empty()) return;
  std::vector<obs::Span> subtree;
  if (!obs::DeserializeSpans(part.trace_spans, &subtree) || subtree.empty()) {
    return;
  }
  subtree[0].annotations.emplace_back("shard", std::to_string(shard));
  trace->AdoptChild(std::move(subtree[0]));
}

Status NotRegistered(const std::string& name) {
  return Status::NotFound("dataset '" + name +
                          "' is not registered with this coordinator "
                          "(LOAD it through the coordinator first)");
}

}  // namespace

Coordinator::Coordinator(
    std::vector<std::shared_ptr<net::ServiceBackend>> shards,
    std::vector<std::string> shard_names, CoordinatorOptions options)
    : shards_(std::move(shards)),
      plan_(std::move(shard_names), options.plan),
      in_flight_(shards_.size(), 0) {
  ARSP_CHECK_MSG(!shards_.empty(), "coordinator needs at least one shard");
  ARSP_CHECK_MSG(static_cast<int>(shards_.size()) == plan_.num_shards(),
                 "shards/shard_names size mismatch");
  pool_ = std::make_unique<ThreadPool>(static_cast<int>(shards_.size()));
}

void Coordinator::RunParallel(std::vector<std::function<void()>>* tasks) {
  if (tasks->empty()) return;
  if (tasks->size() == 1) {
    (*tasks)[0]();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = tasks->size();
  for (auto& task : *tasks) {
    pool_->Submit([&mu, &cv, &remaining, &task] {
      task();
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&remaining] { return remaining == 0; });
}

StatusOr<std::vector<int>> Coordinator::HoldersOf(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = registry_.find(name);
  if (it == registry_.end()) {
    return NotRegistered(name);
  }
  return it->second;
}

StatusOr<LoadDatasetResponse> Coordinator::Load(
    const LoadDatasetRequest& request) {
  const std::vector<int> holders = plan_.HoldersFor(request.name);
  std::vector<StatusOr<LoadDatasetResponse>> results(
      holders.size(), Status::Internal("not run"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(holders.size());
  for (size_t i = 0; i < holders.size(); ++i) {
    tasks.push_back([this, &request, &results, &holders, i] {
      results[i] =
          shards_[static_cast<size_t>(holders[i])]->Load(request);
    });
  }
  RunParallel(&tasks);
  // All-or-error: failed holders are reported; succeeded holders keep the
  // dataset (loads are idempotent, so a retry converges).
  for (const auto& result : results) {
    if (!result.ok()) return result.status();
  }
  LoadDatasetResponse response = *results[0];
  for (size_t i = 1; i < results.size(); ++i) {
    response.reused = response.reused && results[i]->reused;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_[request.name] = holders;
  }
  return response;
}

StatusOr<AddViewResponse> Coordinator::AddView(const AddViewRequest& request) {
  auto holders = HoldersOf(request.base_name);
  if (!holders.ok()) return holders.status();
  std::vector<StatusOr<AddViewResponse>> results(
      holders->size(), Status::Internal("not run"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(holders->size());
  for (size_t i = 0; i < holders->size(); ++i) {
    const int shard = (*holders)[i];
    tasks.push_back([this, &request, &results, shard, i] {
      results[i] = shards_[static_cast<size_t>(shard)]->AddView(request);
    });
  }
  RunParallel(&tasks);
  for (const auto& result : results) {
    if (!result.ok()) return result.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_[request.view_name] = *holders;
  }
  return *results[0];
}

StatusOr<int> Coordinator::Route(const QueryRequestWire& request) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = registry_.find(request.dataset);
  if (it == registry_.end()) {
    return NotRegistered(request.dataset);
  }
  const std::vector<int>& holders = it->second;
  ARSP_CHECK(!holders.empty());
  // Scan the holders starting at the one this query hashes to; the first
  // holder with the fewest in-flight queries wins, so ties go to the hash.
  const size_t first =
      ShardPlan::Hash(request.dataset + '\n' + request.constraint_spec) %
      holders.size();
  int best = holders[first];
  for (size_t i = 1; i < holders.size(); ++i) {
    const int shard = holders[(first + i) % holders.size()];
    if (in_flight_[static_cast<size_t>(shard)] <
        in_flight_[static_cast<size_t>(best)]) {
      best = shard;
    }
  }
  ++in_flight_[static_cast<size_t>(best)];
  return best;
}

void Coordinator::Release(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_[static_cast<size_t>(shard)];
}

StatusOr<QueryResponseWire> Coordinator::Query(
    const QueryRequestWire& request) {
  const StatusOr<int> shard = Route(request);
  if (!shard.ok()) return shard.status();

  // Distributed tracing: one id — the caller's if stamped, freshly minted
  // otherwise — rides in the forwarded frame, so the shard's reply subtree
  // stitches under this coordinator trace into one cross-process timeline.
  // Untraced requests keep trace == nullptr end to end.
  std::unique_ptr<obs::Trace> trace;
  QueryRequestWire forwarded = request;
  if (request.want_trace) {
    trace = std::make_unique<obs::Trace>(
        request.trace_id != 0 ? request.trace_id : obs::Trace::NewTraceId(),
        "coordinator_query");
    forwarded.trace_id = trace->id();
  }

  StatusOr<QueryResponseWire> out = Status::Internal("not run");
  {
    obs::ScopedSpan forward_span(trace.get(), "forward");
    forward_span.Annotate("shard", static_cast<int64_t>(*shard));
    out = shards_[static_cast<size_t>(*shard)]->Query(forwarded);
    Release(*shard);
    if (out.ok()) AdoptShardTrace(trace.get(), *out, *shard);
  }
  if (out.ok() && trace != nullptr) {
    trace->Annotate("dataset", request.dataset);
    trace->Finish();
    out->trace_id = trace->id();
    out->trace_spans = obs::SerializeSpans({trace->root()});
    obs::MaybeWriteChromeTrace(trace->root(), trace->id());
  }
  return out;
}

StatusOr<StatsResponse> Coordinator::Stats(const StatsRequest& request) {
  std::vector<StatusOr<StatsResponse>> results(
      shards_.size(), Status::Internal("not run"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    tasks.push_back([this, &request, &results, i] {
      StatsRequest shard_request = request;
      // Only holders know the named dataset; others answer engine-level
      // stats (a NotFound for the name would fail the whole aggregate).
      if (!request.dataset.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = registry_.find(request.dataset);
        if (it == registry_.end() ||
            std::find(it->second.begin(), it->second.end(),
                      static_cast<int>(i)) == it->second.end()) {
          shard_request.dataset.clear();
        }
      }
      results[i] = shards_[i]->Stats(shard_request);
    });
  }
  RunParallel(&tasks);

  // The latency block stays empty: the server answering this STATS fills it
  // from its own histogram, which times this coordinator's hop too.
  StatsResponse out;
  for (const auto& result : results) {
    if (!result.ok()) return result.status();
    const StatsResponse& part = *result;
    out.cache_hits += part.cache_hits;
    out.cache_misses += part.cache_misses;
    out.cache_entries += part.cache_entries;
    out.pooled_contexts += part.pooled_contexts;
    if (out.kernel_arch.empty()) out.kernel_arch = part.kernel_arch;
    for (const DatasetInfo& info : part.datasets) {
      const bool seen =
          std::any_of(out.datasets.begin(), out.datasets.end(),
                      [&info](const DatasetInfo& d) {
                        return d.name == info.name;
                      });
      if (!seen) out.datasets.push_back(info);
    }
    if (part.has_index_stats) {
      out.has_index_stats = true;
      out.kdtree_builds += part.kdtree_builds;
      out.rtree_builds += part.rtree_builds;
      out.score_maps += part.score_maps;
      out.score_reuses += part.score_reuses;
      out.parent_index_hits += part.parent_index_hits;
    }
  }
  std::sort(out.datasets.begin(), out.datasets.end(),
            [](const DatasetInfo& a, const DatasetInfo& b) {
              return a.name < b.name;
            });
  return out;
}

Status Coordinator::Drop(const DropRequest& request) {
  auto holders = HoldersOf(request.name);
  if (!holders.ok()) return holders.status();
  std::vector<Status> results(holders->size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(holders->size());
  for (size_t i = 0; i < holders->size(); ++i) {
    const int shard = (*holders)[i];
    tasks.push_back([this, &request, &results, shard, i] {
      results[i] = shards_[static_cast<size_t>(shard)]->Drop(request);
    });
  }
  RunParallel(&tasks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_.erase(request.name);
    // A base drop cascades to its views on every shard; mirror that in the
    // placement registry by dropping every entry the shards no longer have.
    // (Conservative: views of the dropped base share its holder set, and
    // their names are not tracked here — they will NotFound on next use and
    // can simply be re-registered. Simplicity over bookkeeping.)
  }
  for (const Status& result : results) {
    if (!result.ok()) return result;
  }
  return Status::OK();
}

}  // namespace cluster
}  // namespace arsp
