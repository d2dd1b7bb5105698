// Copyright 2026 The ARSP Authors.

#include "perfbench/layers.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <utility>

#include <unistd.h>

#include "src/common/task_arena.h"
#include "src/core/engine.h"
#include "src/core/solver.h"
#include "src/index/kdtree.h"
#include "src/index/rtree.h"
#include "src/io/csv.h"
#include "src/io/snapshot.h"
#include "src/prefs/score_mapper.h"
#include "src/simd/kernels.h"

namespace perfbench {

using arsp::Status;
using arsp::StatusOr;
using arsp::net::QueryRequestWire;
using arsp::net::QueryResponseWire;
using arsp::net::ServiceBackend;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

// Keeps a computed value observable so a timed call cannot be elided.
template <typename T>
void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Median wall time of `reps` calls of `fn`, in milliseconds.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point begin = Clock::now();
    fn();
    samples.push_back(MillisSince(begin));
  }
  return Median(std::move(samples));
}

std::string Count(size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

class TimedBackend : public ServiceBackend {
 public:
  TimedBackend(std::shared_ptr<ServiceBackend> inner, const char* role,
               LayerLog* log)
      : inner_(std::move(inner)), role_(role), log_(log) {}

  StatusOr<arsp::net::LoadDatasetResponse> Load(
      const arsp::net::LoadDatasetRequest& request) override {
    return inner_->Load(request);
  }
  StatusOr<arsp::net::AddViewResponse> AddView(
      const arsp::net::AddViewRequest& request) override {
    return inner_->AddView(request);
  }
  StatusOr<arsp::net::StatsResponse> Stats(
      const arsp::net::StatsRequest& request) override {
    return inner_->Stats(request);
  }
  Status Drop(const arsp::net::DropRequest& request) override {
    return inner_->Drop(request);
  }

  StatusOr<QueryResponseWire> Query(const QueryRequestWire& request) override {
    if (!log_->enabled()) return inner_->Query(request);
    const Clock::time_point begin = Clock::now();
    StatusOr<QueryResponseWire> reply = inner_->Query(request);
    LayerRecord record;
    record.ms = MillisSince(begin);
    record.role = role_;
    record.trace_id = request.trace_id;
    record.ok = reply.ok();
    if (reply.ok()) {
      record.cache_hit = reply->cache_hit;
      record.stats = reply->stats;
    }
    log_->Add(std::move(record));
    return reply;
  }

 private:
  std::shared_ptr<ServiceBackend> inner_;
  const char* role_;
  LayerLog* log_;
};

bool InTracedWindow(uint64_t trace_id) {
  return trace_id > kTracedFirstIndex && trace_id < kWarmupTraceBase;
}

// Serial and policy solve of the workload's first traced constraint on one
// ExecutionContext, with the worker count the request asks for, or else the
// one the engine's auto policy grants.
StatusOr<Metric> ArenaSpeedup(const QueryRequestWire& request,
                              arsp::ExecutionContext& context) {
  const std::string name =
      arsp::SolverRegistry::Normalize(request.solver) == "auto"
          ? arsp::AutoSelectSolverName(context)
          : arsp::SolverRegistry::Normalize(request.solver);
  auto probe = arsp::SolverRegistry::Create(name);
  if (!probe.ok()) return probe.status();
  const bool parallel =
      ((*probe)->capabilities() & arsp::kCapIntraQueryParallel) != 0;
  int workers = 1;
  if (parallel && request.parallelism > 0) {
    workers = request.parallelism;
  } else if (parallel && context.view().num_instances() >=
                             arsp::kParallelMinInstances) {
    workers = arsp::CoreBudget::Total();
  }
  const auto solve_ms = [&](int parallelism) -> StatusOr<double> {
    arsp::SolverOptions options;
    if (parallel) options.SetInt("parallelism", parallelism);
    auto solver = arsp::SolverRegistry::Create(name, options);
    if (!solver.ok()) return solver.status();
    const Clock::time_point begin = Clock::now();
    auto result = (*solver)->Solve(context);
    if (!result.ok()) return result.status();
    KeepAlive(*result);
    return MillisSince(begin);
  };
  // The first solve builds the context's artifacts; it is not timed.
  auto warm = solve_ms(1);
  if (!warm.ok()) return warm.status();
  std::vector<double> serial;
  std::vector<double> policy;
  for (int rep = 0; rep < 2; ++rep) {
    auto s = solve_ms(1);
    auto p = solve_ms(workers);
    if (!s.ok()) return s.status();
    if (!p.ok()) return p.status();
    serial.push_back(*s);
    policy.push_back(*p);
  }
  Metric metric;
  metric.name = "arena.speedup";
  metric.value = Median(serial) / Median(policy);
  metric.unit = "x";
  char note[160];
  std::snprintf(note, sizeof(note),
                "%s serial %.2f ms / %d-worker policy %.2f ms, one context",
                name.c_str(), Median(serial), workers, Median(policy));
  metric.note = note;
  return metric;
}

}  // namespace

BackendWrap LayerLog::Wrap() {
  return [this](std::shared_ptr<ServiceBackend> backend,
                const char* role) -> std::shared_ptr<ServiceBackend> {
    return std::make_shared<TimedBackend>(std::move(backend), role, this);
  };
}

void LayerLog::Add(LayerRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::vector<LayerRecord> LayerLog::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

StatusOr<std::vector<Metric>> MeasureLayers(
    const Workload& workload, Reference& reference, const Window& traced,
    const std::vector<LayerRecord>& records, const std::string& work_dir,
    std::vector<std::string>* notes) {
  std::vector<Metric> metrics;
  const auto add = [&metrics](const char* name, double value,
                              const char* unit, std::string note) {
    metrics.push_back(Metric{name, value, unit, std::move(note)});
  };

  // ------------------------------------------------------------- net
  std::map<uint64_t, double> front_ms;  // traced-window requests
  std::vector<const LayerRecord*> legs;
  std::vector<const LayerRecord*> engine;
  for (const LayerRecord& r : records) {
    if (r.role == "front") {
      if (r.ok && InTracedWindow(r.trace_id)) front_ms[r.trace_id] = r.ms;
    } else if (r.role == "leg") {
      if (InTracedWindow(r.trace_id)) legs.push_back(&r);
    } else if (r.ok) {
      engine.push_back(&r);
    }
  }
  const std::vector<double> latencies = traced.OkLatencies();
  add("trace.qps", static_cast<double>(traced.ok()) / traced.elapsed_s,
      "req/s", Count(latencies.size(), "OK replies, decorators on"));
  add("net.roundtrip_ms", Median(latencies), "ms",
      Count(latencies.size(), "ArspClient::Query calls"));
  std::vector<double> backend_ms;
  for (const auto& [id, ms] : front_ms) backend_ms.push_back(ms);
  add("net.backend_ms", Median(backend_ms), "ms",
      Count(backend_ms.size(), "server-side ServiceBackend::Query calls"));
  std::vector<double> wire_ms;
  for (const Reply& reply : traced.replies) {
    const auto it = front_ms.find(reply.index + 1);
    if (reply.outcome == Outcome::kOk && it != front_ms.end()) {
      wire_ms.push_back(reply.latency_ms - it->second);
    }
  }
  add("net.wire_ms", Median(wire_ms), "ms",
      Count(wire_ms.size(), "requests, roundtrip - backend"));
  std::vector<double> sizes;
  std::vector<double> codec_ms;
  for (const auto& [index, reply] : traced.kept) {
    const size_t bytes = reply.EncodePayload().size();
    sizes.push_back(static_cast<double>(bytes));
    const int reps = static_cast<int>(
        std::clamp<size_t>((size_t{1} << 20) / std::max<size_t>(bytes, 1), 1,
                           10000));
    for (int round = 0; round < 3; ++round) {
      const Clock::time_point begin = Clock::now();
      for (int r = 0; r < reps; ++r) {
        const std::string encoded = reply.EncodePayload();
        QueryResponseWire decoded;
        const Status st = decoded.DecodePayload(encoded);
        KeepAlive(st);
        KeepAlive(decoded);
      }
      codec_ms.push_back(MillisSince(begin) / reps);
    }
  }
  add("net.response_bytes", Median(sizes), "bytes",
      Count(sizes.size(), "sampled replies, payload bytes"));
  add("net.codec_ms", Median(codec_ms), "ms",
      Count(sizes.size(), "sampled replies, EncodePayload + DecodePayload"));

  // ---------------------------------------------------------- engine
  // The in-process engine answers the sampled requests the way the server
  // did, after the same warm-up.
  for (const QueryRequestWire& request : workload.warmup) {
    auto response = reference.SolveLikeServer(request);
    if (!response.ok()) return response.status();
  }
  std::vector<double> solve_ms;
  std::vector<double> overhead_ms;
  std::map<uint64_t, int64_t> single_engine_tests;
  for (const auto& [index, reply] : traced.kept) {
    const Clock::time_point begin = Clock::now();
    auto response = reference.SolveLikeServer(workload.Request(index));
    const double ms = MillisSince(begin);
    if (!response.ok()) return response.status();
    solve_ms.push_back(ms);
    single_engine_tests[index + 1] = response->stats.dominance_tests;
    const auto it = front_ms.find(index + 1);
    if (it != front_ms.end()) overhead_ms.push_back(it->second - ms);
  }
  add("engine.solve_ms", Median(solve_ms), "ms",
      Count(solve_ms.size(), "sampled requests, ArspEngine::Solve"));
  add("engine.backend_overhead_ms", Median(overhead_ms), "ms",
      Count(overhead_ms.size(), "sampled requests, backend - engine solve"));

  int64_t window_replies = 0;
  int64_t window_hits = 0;
  std::vector<const LayerRecord*> misses;
  for (const LayerRecord* r : engine) {
    if (InTracedWindow(r->trace_id)) {
      ++window_replies;
      if (r->cache_hit) ++window_hits;
    }
    if (!r->cache_hit) misses.push_back(r);
  }
  add("engine.cache_hit_ratio",
      window_replies > 0 ? static_cast<double>(window_hits) /
                               static_cast<double>(window_replies)
                         : 0.0,
      "ratio",
      Count(static_cast<size_t>(window_replies), "engine-level replies"));
  // Solver figures come from cache-miss replies only (warm-up included):
  // a hit carries the stats of the solve that filled the cache.
  std::vector<double> setup_ms;
  std::vector<double> solver_ms;
  std::vector<double> workers;
  std::vector<double> tasks;
  std::map<std::string, int> solvers;
  std::map<uint64_t, std::array<double, 3>> per_query;
  for (const LayerRecord* r : misses) {
    setup_ms.push_back(r->stats.setup_millis);
    solver_ms.push_back(r->stats.solve_millis - r->stats.setup_millis);
    workers.push_back(static_cast<double>(
        std::max<int64_t>(1, r->stats.parallel_workers)));
    tasks.push_back(static_cast<double>(r->stats.tasks_spawned));
    ++solvers[r->stats.solver];
    std::array<double, 3>& q = per_query[r->trace_id];
    q[0] += static_cast<double>(r->stats.dominance_tests);
    q[1] += static_cast<double>(r->stats.nodes_visited);
    q[2] += static_cast<double>(r->stats.objects_pruned);
  }
  const std::string miss_note = Count(misses.size(), "cache-miss replies");
  const std::string query_note = Count(per_query.size(), "solved queries");
  // A mean, not a median: pooled contexts make most misses pay nothing, and
  // the point is what the few that build a context cost per miss.
  add("engine.context_setup_ms",
      setup_ms.empty() ? 0.0
                       : std::accumulate(setup_ms.begin(), setup_ms.end(),
                                         0.0) /
                             static_cast<double>(setup_ms.size()),
      "ms", miss_note + ", mean");
  const double dual = misses.empty() ? 0.0
                                     : static_cast<double>(solvers["dual"]) /
                                           static_cast<double>(misses.size());
  add("engine.solver_share.dual", dual, "ratio", miss_note);
  std::string mix = "  solver mix over " + miss_note + ":";
  for (const auto& [name, count] : solvers) {
    if (count > 0) mix += " " + name + "=" + std::to_string(count);
  }
  notes->push_back(mix);
  add("solver.solve_ms", Median(solver_ms), "ms",
      miss_note + ", solve_millis - setup_millis");
  const auto per_query_median = [&per_query](int field) {
    std::vector<double> values;
    for (const auto& [id, q] : per_query) values.push_back(q[field]);
    return Median(std::move(values));
  };
  add("solver.dominance_tests", per_query_median(0), "count", query_note);
  add("solver.nodes_visited", per_query_median(1), "count", query_note);
  add("solver.objects_pruned", per_query_median(2), "count", query_note);
  add("arena.workers", Median(workers), "count", miss_note);
  notes->push_back("  arena.tasks_spawned " + std::to_string(Median(tasks)) +
                   " (median over " + miss_note + ")");

  // --------------------------------------------------------- cluster
  if (workload.cluster) {
    std::map<uint64_t, std::vector<double>> legs_of;
    std::vector<double> leg_ms;
    for (const LayerRecord* r : legs) {
      legs_of[r->trace_id].push_back(r->ms);
      leg_ms.push_back(r->ms);
    }
    std::vector<double> legs_per_query;
    std::vector<double> coordinator_overhead;
    for (const auto& [id, ms] : front_ms) {
      const std::vector<double>& of = legs_of[id];
      legs_per_query.push_back(static_cast<double>(of.size()));
      if (!of.empty()) {
        coordinator_overhead.push_back(ms -
                                       *std::max_element(of.begin(), of.end()));
      }
    }
    std::vector<double> amplification;
    for (const auto& [id, single] : single_engine_tests) {
      const auto q = per_query.find(id);
      if (q != per_query.end() && single > 0) {
        amplification.push_back(q->second[0] / static_cast<double>(single));
      }
    }
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "  cluster.coordinator_ms %.3f ms | cluster.leg_ms %.3f ms (n=%zu "
        "legs) | cluster.legs_per_query %.2f | cluster.overhead_ms %.3f ms | "
        "cluster.work_amplification %.3f (n=%zu sampled queries, shard "
        "dominance tests / one engine's)",
        Median(backend_ms), Median(leg_ms), leg_ms.size(),
        legs_per_query.empty()
            ? 0.0
            : std::accumulate(legs_per_query.begin(), legs_per_query.end(),
                              0.0) /
                  static_cast<double>(legs_per_query.size()),
        Median(coordinator_overhead), Median(amplification),
        amplification.size());
    notes->push_back(line);
  }

  // ------------------------------------------- direct timed layer calls
  // Over the workload's own data, under its first traced constraint.
  const std::shared_ptr<const arsp::UncertainDataset>& data =
      reference.dataset();
  const arsp::DatasetView view(data);
  const QueryRequestWire representative = workload.Request(kTracedFirstIndex);
  auto spec =
      arsp::ParseConstraintSpec(representative.constraint_spec, data->dim());
  if (!spec.ok()) return spec.status();
  auto context =
      spec->has_weight_ratios()
          ? std::make_shared<arsp::ExecutionContext>(view,
                                                     spec->weight_ratios())
          : std::make_shared<arsp::ExecutionContext>(view, spec->region());
  auto speedup = ArenaSpeedup(representative, *context);
  if (!speedup.ok()) return speedup.status();
  metrics.push_back(*speedup);

  const arsp::ScoreMapper mapper(context->region());
  add("prefs.map_ms", MedianMs(3, [&] {
        const arsp::ScoreBuffer scores = mapper.MapView(view);
        KeepAlive(scores);
      }),
      "ms", "ScoreMapper::MapView under " + representative.constraint_spec);
  add("index.kdtree_build_ms", MedianMs(3, [&] {
        const arsp::KdTree tree = arsp::KdTree::FromView(view);
        KeepAlive(tree);
      }),
      "ms", "KdTree::FromView, median of 3");
  add("index.rtree_build_ms", MedianMs(3, [&] {
        const arsp::RTree tree = arsp::RTree::BulkLoadFromView(view);
        KeepAlive(tree);
      }),
      "ms", "RTree::BulkLoadFromView, median of 3");

  const std::string csv = workload.snapshot == nullptr
                              ? workload.load.payload
                              : RenderCsv(*data, nullptr);
  bool io_ok = true;
  add("io.csv_parse_ms", MedianMs(3, [&] {
        io_ok = arsp::ParseUncertainDatasetCsv(csv).ok() && io_ok;
      }),
      "ms", "ParseUncertainDatasetCsv of " + std::to_string(csv.size()) +
                " bytes");
  std::shared_ptr<ScratchFile> snapshot = workload.snapshot;
  if (snapshot == nullptr) {
    std::error_code ec;
    std::filesystem::create_directories(work_dir, ec);
    snapshot = std::make_shared<ScratchFile>(
        (std::filesystem::absolute(work_dir) /
         ("layers-" + workload.name + "-" + std::to_string(::getpid()) +
          ".arsp"))
            .string());
    ARSP_RETURN_IF_ERROR(arsp::snapshot::WriteSnapshot(*data, snapshot->path()));
  }
  add("io.snapshot_load_ms", MedianMs(3, [&] {
        io_ok = arsp::snapshot::LoadSnapshot(snapshot->path()).ok() && io_ok;
      }),
      "ms", "LoadSnapshot with checksums, median of 3");
  if (!io_ok) {
    return Status::Internal("the workload's CSV text or snapshot does not load");
  }
  add("io.input_mb", static_cast<double>(workload.input_bytes) / (1 << 20),
      "MB", workload.snapshot == nullptr ? "inline CSV payload"
                                         : ".arsp file loaded by path");

  const arsp::ScoreBuffer scores = mapper.MapView(view);
  const int n = scores.size();
  const int dim = scores.dim;
  std::vector<int> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  // A node-sized corner pair: the bounds of the first 64 rows.
  std::vector<double> pmin(scores.row(0), scores.row(0) + dim);
  std::vector<double> pmax = pmin;
  for (int i = 1; i < std::min(n, 64); ++i) {
    for (int k = 0; k < dim; ++k) {
      pmin[static_cast<size_t>(k)] =
          std::min(pmin[static_cast<size_t>(k)], scores.row(i)[k]);
      pmax[static_cast<size_t>(k)] =
          std::max(pmax[static_cast<size_t>(k)], scores.row(i)[k]);
    }
  }
  const arsp::simd::KernelOps& ops = arsp::simd::Ops();
  const int reps = std::max(1, 2000000 / std::max(n, 1));
  const double rows = static_cast<double>(reps) * static_cast<double>(n);
  std::vector<unsigned char> classes(static_cast<size_t>(n));
  add("simd.classify_corners_ns_per_row", MedianMs(5, [&] {
        for (int r = 0; r < reps; ++r) {
          ops.ClassifyCorners(scores.coords.data(), dim, ids.data(), n,
                              pmin.data(), pmax.data(), classes.data());
          KeepAlive(classes);
        }
      }) * 1e6 / rows,
      "ns", std::string(arsp::simd::ActiveArchName()) + ", " +
                std::to_string(n) + " mapped rows, d'=" + std::to_string(dim));
  const double* q = scores.row(n / 2);
  add("simd.dominance_count_ns_per_row", MedianMs(5, [&] {
        int64_t total = 0;
        for (int r = 0; r < reps; ++r) {
          total += ops.DominanceCount(scores.coords.data(), n, dim, q);
        }
        KeepAlive(total);
      }) * 1e6 / rows,
      "ns", std::string(arsp::simd::ActiveArchName()) + ", " +
                std::to_string(n) + " mapped rows");
  return metrics;
}

}  // namespace perfbench
