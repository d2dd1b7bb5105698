// Copyright 2026 The ARSP Authors.
//
// arsp_cli — run ARSP queries on CSV datasets, in process or against an
// arspd.
//
// Usage:
//   arsp_cli --algo list                              (enumerate solvers)
//   arsp_cli --input data.csv [--header]
//            --constraints wr:0.5,2.0[,l2,h2,...]   (weight ratios), or
//            --constraints rank:c                   (weak ranking ω1≥...≥ωc+1)
//            [--batch specs.txt]    (one constraint spec per line; each
//                                    round runs the specs concurrently in
//                                    process, one at a time over one
//                                    connection under --connect)
//            [--repeat N]           (re-issue the request list N times; the
//                                    engine's result cache serves repeats)
//            [--subset m%[,m%...]]  (run the query per object-prefix view —
//                                    the paper's Fig. 6 m% sweep — and print
//                                    a per-subset stats table; views derive
//                                    their contexts from the base dataset's,
//                                    so the sweep pays one full index build)
//            [--algo NAME|auto] [--opt key=value ...] [--stats]
//            [--threads N]          (intra-query workers per solve: 0 =
//                                    engine policy, 1 = serial, N >= 2
//                                    requests N; answers are bit-identical
//                                    to serial either way)
//            [--topk K] [--threshold P]   (derived-goal queries: top-k is
//                                    sliced from a full solve, a threshold
//                                    is pushed down into kCapGoalPushdown
//                                    solvers)
//            [--instances out_instances.csv] [--objects out_objects.csv]
//            [--trace]              (print each query's span timeline after
//                                    the results; behind a sharded
//                                    coordinator the tree includes the
//                                    chosen shard's solve subtree)
//            [--connect host:port]  (run every query against an arspd: the
//                                    CSV ships inline, the daemon holds the
//                                    dataset/indexes/cache, and all flags
//                                    above work unchanged — repeats across
//                                    *separate* CLI runs hit the daemon's
//                                    result cache)
//            [--name NAME]          (daemon-side dataset name; defaults to
//                                    the --input path)
//   arsp_cli --connect host:port --name NAME --constraints ...
//                                  (query a dataset the daemon already
//                                   holds — e.g. an arspd --load preload —
//                                   without shipping any CSV)
//   arsp_cli --connect host:port --ping       (daemon liveness probe)
//   arsp_cli --connect host:port --shutdown   (drain the daemon)
//
// Every query goes through one net::ServiceBackend: an in-process
// EngineBackend (the ArspEngine plus named dataset registry that arspd
// serves) by default, or a RemoteShard speaking the src/net wire protocol
// to the daemon under --connect. Both modes therefore load, query and
// print through the same code. Algorithms come from the SolverRegistry —
// `--algo list` prints every registered solver; `--algo auto` (the
// default) lets the engine pick per the paper's §V guidance.
//
// CSV input format: object,prob,attr1,...,attrD (see src/io/csv.h). Lower
// attribute values are preferred; negate "higher is better" columns.
// A .arsp input (tools/arsp_pack) is loaded by path, never shipped: the
// backend mmaps it from its own filesystem, so columns and prebuilt indexes
// come straight from the file and startup is O(1) in dataset size. The CLI
// parses the input itself only to format --instances/--objects CSVs.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/remote_shard.h"
#include "src/common/stopwatch.h"
#include "src/common/task_arena.h"
#include "src/core/engine.h"
#include "src/io/csv.h"
#include "src/io/snapshot.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/trace.h"
#include "tools/cli_args.h"

namespace {

using namespace arsp;
using cli::CliArgs;

// --input paths ending in .arsp are columnar snapshots (tools/arsp_pack),
// passed to the backend by path.
bool IsSnapshotPath(const std::string& path) {
  return path.size() > 5 &&
         path.compare(path.size() - 5, 5, ".arsp") == 0;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: arsp_cli --input data.csv|data.arsp "
      "--constraints wr:l1,h1[,...]|rank:c\n"
      "                [--header] [--algo NAME|auto|list] [--opt k=v ...]\n"
      "                [--batch specs.txt] [--repeat N] [--stats]\n"
      "                [--threads N]\n"
      "                [--subset m%%[,m%%...]] [--topk K] [--threshold P]\n"
      "                [--instances out.csv] [--objects out.csv] [--trace]\n"
      "                [--connect host:port [--name NAME]]\n"
      "       arsp_cli --connect host:port --name NAME --constraints ...\n"
      "                (query a dataset already loaded on the daemon)\n"
      "       arsp_cli --connect host:port --ping|--shutdown\n"
      "run `arsp_cli --algo list` to enumerate the available solvers\n");
}

// --algo list: one line per registered solver, straight from the registry.
int ListSolvers() {
  std::printf("registered solvers:\n");
  for (const std::string& name : SolverRegistry::Names()) {
    auto solver = SolverRegistry::Create(name);
    if (!solver.ok()) continue;
    std::string caps;
    const uint32_t c = (*solver)->capabilities();
    if (c & kCapRequiresWeightRatios) caps += " [wr-only]";
    if (c & kCapRequires2d) caps += " [2d-only]";
    if (c & kCapRequiresSingleInstanceObjects) caps += " [single-instance]";
    if (c & kCapQuadraticTime) caps += " [quadratic]";
    if (c & kCapExponentialTime) caps += " [exponential]";
    if (c & kCapExponentialInVertices) caps += " [vertex-exponential]";
    if (c & kCapGoalPushdown) caps += " [goal-pushdown]";
    std::printf("  %-12s %-12s %s%s\n", name.c_str(),
                (*solver)->display_name(), (*solver)->description(),
                caps.c_str());
  }
  return 0;
}

// One line per response: wall time, resolved solver, cache reuse, and the
// result size — or, for goal-pruned partial results (no full instance
// vector exists), the answer size plus the execution mode. A cache hit ran
// no solve, so its time is `call_ms`, what the CLI timed around its own
// backend call, and the solve that filled the cache is reported as
// original_solve_ms.
void PrintResponseLine(const std::string& label,
                       const net::QueryResponseWire& resp, double call_ms) {
  const double ms = resp.cache_hit ? call_ms : resp.stats.solve_millis;
  char hit[64] = "";
  if (resp.cache_hit) {
    std::snprintf(hit, sizeof(hit), ", cache hit, original_solve_ms=%.2f",
                  resp.stats.solve_millis);
  }
  if (resp.complete) {
    std::printf("%scomputed ARSP in %.2f ms (%s%s); result size %d\n",
                label.c_str(), ms, resp.solver.c_str(), hit,
                resp.result_size);
  } else {
    std::printf(
        "%scomputed %s in %.2f ms (%s%s, goal pushdown); %zu objects\n",
        label.c_str(), resp.goal.c_str(), ms, resp.solver.c_str(), hit,
        resp.ranked.size());
  }
}

void PrintStatsLine(const net::QueryResponseWire& resp) {
  std::printf("%s cache_hit=%s pushdown=%s\n",
              resp.stats.ToString().c_str(),
              resp.cache_hit ? "true" : "false",
              resp.pushdown ? "true" : "false");
}

// Header of the ranked-answer block ("top-k objects by ..." / threshold).
void PrintRankedHeader(const CliArgs& args,
                       const net::QueryResponseWire& resp) {
  const char* mode = resp.pushdown ? "goal pushdown" : "post-hoc";
  if (args.threshold) {
    std::printf("\nobjects with Pr_rsky >= %g (%zu, via %s):\n",
                *args.threshold, resp.ranked.size(), mode);
  } else {
    std::printf("\ntop-%d objects by Pr_rsky (via %s):\n",
                args.topk.value_or(CliArgs::kDefaultTopk), mode);
  }
}

void PrintRankedEntries(const std::vector<net::RankedEntry>& ranked) {
  for (const net::RankedEntry& entry : ranked) {
    // Unnamed objects (a snapshot packed without names) print their id.
    const std::string name =
        entry.name.empty() ? std::to_string(entry.object_id) : entry.name;
    std::printf("  %-20s %.4f\n", name.c_str(), entry.prob);
  }
}

void PrintSweepHeader(const std::string& spec, const std::string& algo) {
  std::printf("\nsubset sweep (%s, algo %s):\n", spec.c_str(), algo.c_str());
  std::printf("  %5s %9s %10s %-12s %9s %9s %7s %-9s\n", "m%", "objects",
              "instances", "solver", "setup_ms", "solve_ms", "size", "mode");
}

void PrintSweepRow(int pct, const net::AddViewResponse& view,
                   bool derived_goal, const net::QueryResponseWire& resp) {
  // Size: the full ARSP size when the result is complete, the ranked
  // answer size for goal-pruned partial results.
  const std::string size = resp.complete
                               ? std::to_string(resp.result_size)
                               : std::to_string(resp.ranked.size()) + "*";
  const char* mode =
      !derived_goal ? "full" : (resp.pushdown ? "pushdown" : "post-hoc");
  std::printf("  %4d%% %9d %10d %-12s %9.2f %9.2f %7s %-9s\n", pct,
              view.num_objects, view.num_instances, resp.solver.c_str(),
              resp.stats.setup_millis, resp.stats.solve_millis, size.c_str(),
              mode);
}

// The index work a sweep did: the difference between two STATS replies for
// its base dataset, whose counters sum the base's and its views' work since
// each was loaded.
void PrintIndexWorkLine(const net::StatsResponse& before,
                        const net::StatsResponse& after) {
  const ExecutionContext::IndexBuildStats& b = before.index_work;
  const ExecutionContext::IndexBuildStats& a = after.index_work;
  std::printf(
      "index work across sweep: kd_builds=%lld rtree_builds=%lld "
      "score_maps=%lld score_reuses=%lld parent_index_hits=%lld\n",
      static_cast<long long>(a.kdtree_builds - b.kdtree_builds),
      static_cast<long long>(a.rtree_builds - b.rtree_builds),
      static_cast<long long>(a.score_maps - b.score_maps),
      static_cast<long long>(a.score_reuses - b.score_reuses),
      static_cast<long long>(a.parent_index_hits - b.parent_index_hits));
}

// --stats summary from the backend's STATS reply. Only a server fills the
// latency block (from its arsp_query_latency_ms histogram); an in-process
// backend has no server around it, and each response line above carries
// its own latency.
void PrintBackendStats(const char* who, const net::StatsResponse& stats) {
  std::printf("%s: ", who);
  if (stats.latency_count > 0) {
    std::printf("latency requests=%lld "
                "mean_ms=%g p50_ms=%g p95_ms=%g p99_ms=%g p999_ms=%g ",
                static_cast<long long>(stats.latency_count),
                stats.latency_mean_ms, stats.latency_p50_ms,
                stats.latency_p95_ms, stats.latency_p99_ms,
                stats.latency_p999_ms);
  }
  std::printf("cache_hits=%lld cache_misses=%lld entries=%llu "
              "pooled_contexts=%llu kernel=%s\n",
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.cache_entries),
              static_cast<unsigned long long>(stats.pooled_contexts),
              stats.kernel_arch.empty() ? "unknown"
                                        : stats.kernel_arch.c_str());
  std::printf("%s: peak_rss_mb=%.1f\n", who,
              static_cast<double>(stats.peak_rss_bytes) / (1024.0 * 1024.0));
}

// Reads --batch specs (one per line, '#' comments) into spec_strings after
// the --constraints one; empty batch files are an error.
int CollectSpecs(const CliArgs& args, std::vector<std::string>* specs) {
  if (!args.constraints.empty()) specs->push_back(args.constraints);
  if (!args.batch_file.empty()) {
    std::ifstream in(args.batch_file);
    if (!in) {
      std::fprintf(stderr, "cannot read batch file %s\n",
                   args.batch_file.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      line = Trim(line);
      if (line.empty() || line[0] == '#') continue;
      specs->push_back(line);
    }
    if (specs->empty()) {
      std::fprintf(stderr, "batch file %s has no constraint specs\n",
                   args.batch_file.c_str());
      return 1;
    }
  }
  if (specs->size() > 1 &&
      (!args.instances_out.empty() || !args.objects_out.empty())) {
    std::fprintf(stderr,
                 "--instances/--objects write one result and need a single "
                 "constraint spec (got %zu)\n",
                 specs->size());
    return 2;
  }
  return 0;
}

// Validates --opt and --algo without solving, so usage errors exit 2
// before any backend call (the backend revalidates anyway).
int ValidateSolverChoice(const CliArgs& args) {
  SolverOptions options;
  for (const std::string& opt : args.opts) {
    const Status st = options.ParseKeyValue(opt);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (!IsAutoName(args.algo)) {
    auto solver = SolverRegistry::Create(args.algo, options);
    if (!solver.ok()) {
      std::fprintf(stderr, "%s\n", solver.status().ToString().c_str());
      return 2;
    }
  }
  return 0;
}

// Builds the wire form of one query from the CLI flags.
net::QueryRequestWire MakeWireRequest(const CliArgs& args,
                                      const std::string& dataset_name,
                                      const std::string& spec) {
  net::QueryRequestWire request;
  request.dataset = dataset_name;
  request.constraint_spec = spec;
  request.solver = args.algo;
  request.options = args.opts;
  if (args.threshold) {
    request.derived_kind = DerivedKind::kObjectsAboveThreshold;
    request.threshold = *args.threshold;
  } else {
    request.derived_kind = DerivedKind::kTopKObjects;
    request.k = args.topk.value_or(CliArgs::kDefaultTopk);
  }
  // CSV outputs need the complete instance vector, which a goal-pruned
  // partial result no longer carries: force the post-hoc path.
  const bool need_instances =
      !args.instances_out.empty() || !args.objects_out.empty();
  request.allow_pushdown = !need_instances;
  request.include_instances = need_instances;
  request.parallelism = args.threads;
  // trace_id stays 0: the engine (or coordinator) mints one and returns it
  // with the span tree.
  request.want_trace = args.trace;
  return request;
}

// --trace output: render the span tree the backend returned. Behind a
// sharded coordinator the tree carries the chosen shard's shard=N subtree
// under the coordinator's forward span. An in-process EngineBackend has
// already appended the tree to ARSP_TRACE_FILE; a daemon writes only under
// its own environment, often on another host, so for a remote backend the
// CLI appends the returned tree itself.
void PrintTrace(const net::QueryResponseWire& resp, bool remote) {
  if (resp.trace_spans.empty()) {
    std::fprintf(stderr, "backend returned no trace spans\n");
    return;
  }
  const obs::Span& root = resp.trace_spans[0];
  std::printf("\n%s", obs::RenderSpanTree(root, resp.trace_id).c_str());
  if (remote) obs::MaybeWriteChromeTrace(root, resp.trace_id);
}

// One request's outcome and the latency the CLI timed around its call.
struct Outcome {
  StatusOr<net::QueryResponseWire> response{Status::Internal("not run")};
  double call_ms = 0.0;
};

// Runs one round of requests through the backend, each call timed by its
// own stopwatch, as tasks on a TaskArena. With `concurrent` it asks for one
// worker per request, capped at the core count; its helpers come from the
// process-global CoreBudget, so the intra-query arenas of in-process solves
// take only the cores left over. Otherwise the arena has no helpers and
// runs the calls one at a time on the calling thread, in request order.
void RunRound(net::ServiceBackend& backend, bool concurrent,
              const std::vector<net::QueryRequestWire>& requests,
              std::vector<Outcome>* outcomes) {
  TaskArena arena(concurrent ? std::min(static_cast<int>(requests.size()),
                                        CoreBudget::Total())
                             : 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    arena.Submit([&backend, &requests, outcomes, i](int) {
      const Stopwatch call;
      (*outcomes)[i].response = backend.Query(requests[i]);
      (*outcomes)[i].call_ms = call.ElapsedMillis();
    });
  }
  arena.RunAndWait();
}

// Reads a whole file; false if it cannot be opened.
bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

// Writes --instances/--objects from the backend's instance vector. The
// CLI loads the dataset the backend loaded (`load`: CSV text, or a
// snapshot path) a second time, only to format object names and
// coordinates.
int WriteResultCsvs(const CliArgs& args, const net::LoadDatasetRequest& load,
                    const net::QueryResponseWire& resp) {
  std::vector<std::string> names;
  std::shared_ptr<const UncertainDataset> dataset;
  if (load.source == net::LoadSource::kCsvFile) {
    auto loaded = snapshot::LoadSnapshot(load.payload);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", args.input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = loaded->dataset;
    names = std::move(loaded->object_names);
  } else {
    auto parsed = ParseUncertainDatasetCsv(load.payload, load.header, &names);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", args.input.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    dataset = std::make_shared<const UncertainDataset>(std::move(*parsed));
  }
  if (names.empty()) {
    for (int j = 0; j < dataset->num_objects(); ++j) {
      names.push_back(std::to_string(j));
    }
  }
  if (!resp.complete || static_cast<int>(resp.instance_probs.size()) !=
                            dataset->num_instances()) {
    std::fprintf(stderr,
                 "backend returned no usable instance vector (%zu probs "
                 "for %d instances)\n",
                 resp.instance_probs.size(), dataset->num_instances());
    return 1;
  }
  ArspResult result;
  result.instance_probs = resp.instance_probs;
  if (!args.instances_out.empty()) {
    const Status st = WriteTextFile(
        args.instances_out, FormatArspResultCsv(result, *dataset, &names));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote per-instance results to %s\n",
                args.instances_out.c_str());
  }
  if (!args.objects_out.empty()) {
    const Status st = WriteTextFile(
        args.objects_out, FormatObjectResultCsv(result, *dataset, &names));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote per-object results to %s\n", args.objects_out.c_str());
  }
  return 0;
}

// --subset: the m% sweep over backend-held prefix views. View names encode
// the window, so repeated sweeps against a daemon (separate CLI runs
// included) reuse its views, derived contexts, and cache entries.
int RunSweep(const CliArgs& args, net::ServiceBackend& backend,
             const std::string& dataset_name, const std::string& spec,
             int num_objects) {
  const bool derived_goal =
      args.topk.has_value() || args.threshold.has_value();
  // One full build on the base context + per-view delta work is the
  // data-plane invariant; the counters make it visible. A long-lived daemon
  // counts earlier work too, so the line reports the sweep's difference.
  net::StatsRequest stats_request;
  stats_request.dataset = dataset_name;
  auto before = backend.Stats(stats_request);
  if (!before.ok()) {
    std::fprintf(stderr, "%s\n", before.status().ToString().c_str());
    return 1;
  }
  PrintSweepHeader(spec, args.algo);
  bool any_partial = false;
  for (int pct : args.subset_pcts) {
    const int count = std::max(1, num_objects * pct / 100);
    net::AddViewRequest add;
    add.base_name = dataset_name;
    add.view_name = dataset_name + "#prefix:" + std::to_string(count);
    add.num_objects = count;
    auto view = backend.AddView(add);
    if (!view.ok()) {
      std::fprintf(stderr, "%s\n", view.status().ToString().c_str());
      return 1;
    }
    net::QueryRequestWire request = MakeWireRequest(args, view->name, spec);
    // No explicit goal flag means a full solve per prefix, not the default
    // top-k.
    if (!derived_goal) request.derived_kind = DerivedKind::kNone;
    auto response = backend.Query(request);
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    PrintSweepRow(pct, *view, derived_goal, *response);
    if (args.stats) PrintStatsLine(*response);
    any_partial = any_partial || !response->complete;
  }
  // Only a threshold pushdown leaves a partial result, the `*` rows.
  if (any_partial) {
    std::printf("  (* = goal answer size; the full vector was pruned "
                "away)\n");
  }
  auto after = backend.Stats(stats_request);
  if (!after.ok()) {
    std::fprintf(stderr, "%s\n", after.status().ToString().c_str());
    return 1;
  }
  PrintIndexWorkLine(*before, *after);
  return 0;
}

int Run(const CliArgs& args) {
  std::vector<std::string> spec_strings;
  if (const int rc = CollectSpecs(args, &spec_strings); rc != 0) return rc;
  if (const int rc = ValidateSolverChoice(args); rc != 0) return rc;

  const std::string dataset_name =
      args.remote_name.empty() ? args.input : args.remote_name;
  // Registers (or idempotently reuses) the dataset under its name. CSV
  // inputs ship their raw text, so a daemon needs no access to the local
  // filesystem; a snapshot goes by path (LoadSource::kCsvFile + the .arsp
  // suffix), and the backend maps it from its own filesystem.
  net::LoadDatasetRequest load;
  load.name = dataset_name;
  if (IsSnapshotPath(args.input)) {
    load.source = net::LoadSource::kCsvFile;
    load.payload = args.input;
  } else if (!args.input.empty()) {
    load.source = net::LoadSource::kCsvText;
    load.header = args.header;
    if (!ReadFile(args.input, &load.payload)) {
      std::fprintf(stderr, "error loading %s: cannot open\n",
                   args.input.c_str());
      return 1;
    }
  }

  std::unique_ptr<net::ServiceBackend> backend;
  if (args.remote) {
    backend = std::make_unique<cluster::RemoteShard>(args.host, args.port);
  } else {
    backend = std::make_unique<net::EngineBackend>();
  }
  // Labels output lines only; every call below takes the same path.
  const char* const who = args.remote ? "daemon" : "engine";

  int dim = 0;
  int num_objects = 0;
  if (!args.input.empty()) {
    auto loaded = backend->Load(load);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", args.input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("%s %s dataset '%s' (%d objects / %d instances)\n", who,
                loaded->reused ? "reused" : "loaded", dataset_name.c_str(),
                loaded->num_objects, loaded->num_instances);
    dim = loaded->dim;
    num_objects = loaded->num_objects;
  } else {
    // --name without --input: the dataset must already live on the daemon
    // (an arspd --load preload or an earlier client's registration); its
    // shape comes from the STATS listing.
    net::StatsRequest stats_request;
    stats_request.dataset = dataset_name;
    auto stats = backend->Stats(stats_request);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    for (const net::DatasetInfo& info : stats->datasets) {
      if (info.name == dataset_name) {
        dim = info.dim;
        num_objects = info.num_objects;
        std::printf("%s dataset '%s' (%d objects / %d instances, d = %d)\n",
                    who, dataset_name.c_str(), info.num_objects,
                    info.num_instances, info.dim);
        break;
      }
    }
    if (dim == 0) {
      std::fprintf(stderr, "dataset '%s' is not loaded on the daemon\n",
                   dataset_name.c_str());
      return 1;
    }
  }

  // Constraint specs are validated against the dataset's dimensionality
  // before any query, so a typo exits 2 (usage); the backend re-validates.
  for (const std::string& spec : spec_strings) {
    auto constraints = ParseConstraintSpec(spec, dim);
    if (!constraints.ok()) {
      std::fprintf(stderr, "%s\n", constraints.status().ToString().c_str());
      return 2;
    }
  }

  if (!args.subset_pcts.empty()) {
    return RunSweep(args, *backend, dataset_name, spec_strings[0],
                    num_objects);
  }

  // Repeats re-issue the whole request list, so rounds past the first are
  // served by the result cache (visible via --stats). The printed rankings
  // and traces are the final round's.
  std::vector<net::QueryRequestWire> requests;
  for (const std::string& spec : spec_strings) {
    requests.push_back(MakeWireRequest(args, dataset_name, spec));
  }
  std::vector<Outcome> outcomes(requests.size());
  for (int round = 0; round < args.repeat; ++round) {
    if (args.repeat > 1) std::printf("-- run %d/%d\n", round + 1, args.repeat);
    // A remote round goes one call at a time over the connection the load
    // opened: each concurrent RemoteShard call would dial another, which an
    // arspd --max-connections cap leaves in its backlog (the CLI would
    // hang) and a small --max-pending answers with RETRY_LATER. The daemon
    // parallelizes across its clients, not one client's specs.
    RunRound(*backend, /*concurrent=*/!args.remote, requests, &outcomes);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const std::string label =
          requests.size() > 1 ? "[" + spec_strings[i] + "] " : "";
      const StatusOr<net::QueryResponseWire>& response = outcomes[i].response;
      if (!response.ok()) {
        std::fprintf(stderr, "%s%s\n", label.c_str(),
                     response.status().ToString().c_str());
        return 1;
      }
      PrintResponseLine(label, *response, outcomes[i].call_ms);
      if (args.stats) PrintStatsLine(*response);
    }
  }

  for (size_t i = 0; i < outcomes.size(); ++i) {
    const net::QueryResponseWire& resp = *outcomes[i].response;
    if (requests.size() > 1) std::printf("\n[%s]", spec_strings[i].c_str());
    PrintRankedHeader(args, resp);
    PrintRankedEntries(resp.ranked);
  }

  if (args.trace) {
    for (const Outcome& outcome : outcomes) {
      PrintTrace(*outcome.response, args.remote);
    }
  }

  if (args.stats) {
    auto stats = backend->Stats(net::StatsRequest{});
    if (stats.ok()) PrintBackendStats(who, *stats);
  }

  if (!args.instances_out.empty() || !args.objects_out.empty()) {
    // Every backend call is done. Releasing the backend frees an in-process
    // engine's dataset, indexes and cache before the CLI parses its own
    // copy of the input, so the two never share the peak.
    backend.reset();
    return WriteResultCsvs(args, load, *outcomes[0].response);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  std::string error;
  if (!cli::ParseCliArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    PrintUsage();
    return 2;
  }
  if (args.algo == "list") return ListSolvers();

  // Daemon control verbs need no dataset.
  if (args.ping || args.shutdown) {
    auto client = net::ArspClient::Connect(args.host, args.port);
    if (!client.ok()) {
      std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
      return 1;
    }
    const Status st = args.ping ? client->Ping() : client->Shutdown();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("%s\n", args.ping ? "pong" : "daemon shutting down");
    return 0;
  }

  return Run(args);
}
