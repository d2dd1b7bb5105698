// Copyright 2026 The ARSP Authors.

#include "src/cluster/coordinator.h"

#include <algorithm>
#include <thread>

#include "src/common/macros.h"
#include "src/common/mem.h"
#include "src/obs/trace.h"

namespace arsp {
namespace cluster {

namespace {

// Stitches the shard reply's span tree (if it carries one) under the
// trace's innermost open span, the forward span. The tree keeps its
// shard-local clock (offsets are per-process; only structure and durations
// are comparable across the stitch boundary).
void AdoptShardTrace(obs::Trace& trace, std::vector<obs::Span> spans,
                     int shard) {
  for (obs::Span& subtree : spans) {
    subtree.annotations.emplace_back("shard", std::to_string(shard));
    trace.AdoptChild(std::move(subtree));
  }
}

Status NotRegistered(const std::string& name) {
  return Status::NotFound("dataset '" + name +
                          "' is not registered with this coordinator "
                          "(LOAD it through the coordinator first)");
}

// Makes call(i) for every i in [0, n) at once and returns the results in
// index order: the calling thread makes call(0) and one std::thread each
// makes the others (see the thread-safety note in coordinator.h).
template <class Call>
auto FanOut(size_t n, const Call& call) {
  using Result = decltype(call(size_t{0}));
  std::vector<Result> results(n, Result(Status::Internal("not run")));
  {
    std::vector<std::jthread> threads;  // joined when the block ends
    threads.reserve(n);
    for (size_t i = 1; i < n; ++i) {
      threads.emplace_back([&results, &call, i] { results[i] = call(i); });
    }
    if (n > 0) results[0] = call(0);
  }
  return results;
}

}  // namespace

Coordinator::Coordinator(
    std::vector<std::shared_ptr<net::ServiceBackend>> shards,
    const std::vector<std::string>& shard_names, ShardPlanOptions plan)
    : shards_(std::move(shards)),
      plan_(shard_names, plan),
      in_flight_(shards_.size(), 0) {
  ARSP_CHECK_MSG(!shards_.empty(), "coordinator needs at least one shard");
  ARSP_CHECK_MSG(static_cast<int>(shards_.size()) == plan_.num_shards(),
                 "shards/shard_names size mismatch");
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
  const std::vector<StatusOr<LoadDatasetResponse>> results =
      FanOut(holders.size(), [this, &request, &holders](size_t i) {
        return shards_[static_cast<size_t>(holders[i])]->Load(request);
      });
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
  const std::vector<StatusOr<AddViewResponse>> results =
      FanOut(holders->size(), [this, &request, &holders](size_t i) {
        return shards_[static_cast<size_t>((*holders)[i])]->AddView(request);
      });
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
    if (out.ok() && trace != nullptr) {
      AdoptShardTrace(*trace, std::move(out->trace_spans), *shard);
    }
  }
  if (out.ok() && trace != nullptr) {
    trace->Annotate("dataset", request.dataset);
    trace->Finish();
    out->trace_id = trace->id();
    out->trace_spans = {trace->root()};
    obs::MaybeWriteChromeTrace(trace->root(), trace->id());
  }
  return out;
}

StatusOr<StatsResponse> Coordinator::Stats(const StatsRequest& request) {
  const std::vector<StatusOr<StatsResponse>> results =
      FanOut(shards_.size(), [this, &request](size_t i) {
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
        return shards_[i]->Stats(shard_request);
      });

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
      out.index_work += part.index_work;
      out.index_memory += part.index_memory;
    }
  }
  std::sort(out.datasets.begin(), out.datasets.end(),
            [](const DatasetInfo& a, const DatasetInfo& b) {
              return a.name < b.name;
            });
  // The answering process's own peak, like every other STATS reply; each
  // shard reports its own when asked directly.
  out.peak_rss_bytes = PeakRssBytes();
  return out;
}

Status Coordinator::Drop(const DropRequest& request) {
  auto holders = HoldersOf(request.name);
  if (!holders.ok()) return holders.status();
  const std::vector<Status> results =
      FanOut(holders->size(), [this, &request, &holders](size_t i) {
        return shards_[static_cast<size_t>((*holders)[i])]->Drop(request);
      });
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
