// Copyright 2026 The ARSP Authors.
//
// arsp_cli — run ARSP queries on CSV datasets, locally or against an arspd.
//
// Usage:
//   arsp_cli --algo list                              (enumerate solvers)
//   arsp_cli --input data.csv [--header]
//            --constraints wr:0.5,2.0[,l2,h2,...]   (weight ratios), or
//            --constraints rank:c                   (weak ranking ω1≥...≥ωc+1)
//            [--batch specs.txt]    (one constraint spec per line, solved
//                                    concurrently through the engine)
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
//            [--trace]              (print a per-query span timeline after
//                                    the results; in remote mode the daemon
//                                    returns its spans — behind a sharded
//                                    coordinator the tree includes every
//                                    shard's solve subtree)
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
// Local mode is a thin shell over ArspEngine (src/core/engine.h); remote
// mode speaks the src/net wire protocol through ArspClient and prints the
// same output. Algorithms come from the SolverRegistry — `--algo list`
// prints every registered solver; `--algo auto` (the default) lets the
// engine pick per the paper's §V guidance.
//
// CSV input format: object,prob,attr1,...,attrD (see src/io/csv.h). Lower
// attribute values are preferred; negate "higher is better" columns.
// A .arsp input (tools/arsp_pack) is mmap-loaded instead of parsed: columns
// and prebuilt indexes come straight from the file, so startup is O(1) in
// dataset size. In remote mode the daemon maps the path from its own
// filesystem — snapshot bytes never ship over the wire.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/common/task_arena.h"
#include "src/core/engine.h"
#include "src/io/csv.h"
#include "src/io/snapshot.h"
#include "src/net/client.h"
#include "src/obs/trace.h"
#include "src/simd/kernels.h"
#include "tools/cli_args.h"

namespace {

using namespace arsp;
using cli::CliArgs;

// --input paths ending in .arsp are columnar snapshots (tools/arsp_pack):
// mmap-loaded locally, or passed as a server-side path in remote mode (the
// daemon maps them itself — snapshot bytes never ship over the wire).
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

// Display-normalized response: one shape both the local engine path and the
// wire path render through, so the two modes print byte-identical lines.
struct ShownResponse {
  bool complete = true;
  std::string goal;  ///< served goal, for partial results
  double solve_ms = 0.0;  ///< the solve's own time; a hit's original solve
  std::string solver;
  bool cache_hit = false;
  bool pushdown = false;
  int result_size = -1;  ///< CountNonZero; -1 for partials
  size_t ranked_size = 0;
  std::string stats_line;  ///< SolverStats::ToString()
};

ShownResponse Shown(const QueryResponse& resp) {
  ShownResponse s;
  s.complete = resp.result->is_complete();
  s.goal = resp.result->goal.ToString();
  s.solve_ms = resp.stats.solve_millis;
  s.solver = resp.solver;
  s.cache_hit = resp.cache_hit;
  s.pushdown = resp.pushdown;
  s.result_size = s.complete ? CountNonZero(*resp.result) : -1;
  s.ranked_size = resp.ranked.size();
  s.stats_line = resp.stats.ToString();
  return s;
}

ShownResponse Shown(const net::QueryResponseWire& resp) {
  ShownResponse s;
  s.complete = resp.complete;
  s.goal = resp.goal;
  s.solve_ms = resp.stats.solve_millis;
  s.solver = resp.solver;
  s.cache_hit = resp.cache_hit;
  s.pushdown = resp.pushdown;
  s.result_size = resp.result_size;
  s.ranked_size = resp.ranked.size();
  s.stats_line = resp.stats.ToSolverStats().ToString();
  return s;
}

// One line per response: wall time, resolved solver, cache reuse, and the
// result size — or, for goal-pruned partial results (no full instance
// vector exists), the answer size plus the execution mode. A cache hit ran
// no solve, so its time is `call_ms`, what the CLI timed around its own
// call, and the solve that filled the cache is reported as
// original_solve_ms.
void PrintResponseLine(const std::string& label, const ShownResponse& resp,
                       double call_ms) {
  const double ms = resp.cache_hit ? call_ms : resp.solve_ms;
  char hit[64] = "";
  if (resp.cache_hit) {
    std::snprintf(hit, sizeof(hit), ", cache hit, original_solve_ms=%.2f",
                  resp.solve_ms);
  }
  if (resp.complete) {
    std::printf("%scomputed ARSP in %.2f ms (%s%s); result size %d\n",
                label.c_str(), ms, resp.solver.c_str(), hit,
                resp.result_size);
  } else {
    std::printf(
        "%scomputed %s in %.2f ms (%s%s, goal pushdown); %zu objects\n",
        label.c_str(), resp.goal.c_str(), ms, resp.solver.c_str(), hit,
        resp.ranked_size);
  }
}

void PrintStatsLine(const ShownResponse& resp) {
  std::printf("%s cache_hit=%s pushdown=%s\n", resp.stats_line.c_str(),
              resp.cache_hit ? "true" : "false",
              resp.pushdown ? "true" : "false");
}

// Header of the ranked-answer block ("top-k objects by ..." / threshold).
// Takes the two fields it needs rather than a ShownResponse: building one
// costs an O(n) CountNonZero scan the header never uses.
void PrintRankedHeader(const CliArgs& args, bool pushdown,
                       size_t ranked_size) {
  const char* mode = pushdown ? "goal pushdown" : "post-hoc";
  if (args.threshold) {
    std::printf("\nobjects with Pr_rsky >= %g (%zu, via %s):\n",
                *args.threshold, ranked_size, mode);
  } else {
    std::printf("\ntop-%d objects by Pr_rsky (via %s):\n",
                args.topk.value_or(CliArgs::kDefaultTopk), mode);
  }
}

void PrintSweepHeader(const std::string& spec, const std::string& algo) {
  std::printf("\nsubset sweep (%s, algo %s):\n", spec.c_str(), algo.c_str());
  std::printf("  %5s %9s %10s %-12s %9s %9s %7s %-9s\n", "m%", "objects",
              "instances", "solver", "setup_ms", "solve_ms", "size", "mode");
}

// One sweep table row — the single definition both the local and remote
// sweeps print through, so the "local and remote output is byte-identical"
// invariant cannot drift when a column changes.
void PrintSweepRow(int pct, int num_objects, int num_instances,
                   double setup_ms, bool derived_goal,
                   const ShownResponse& shown) {
  // Size: the full ARSP size when the result is complete, the ranked
  // answer size for goal-pruned partial results.
  const std::string size = shown.complete
                               ? std::to_string(shown.result_size)
                               : std::to_string(shown.ranked_size) + "*";
  const char* mode =
      !derived_goal ? "full" : (shown.pushdown ? "pushdown" : "post-hoc");
  std::printf("  %4d%% %9d %10d %-12s %9.2f %9.2f %7s %-9s\n", pct,
              num_objects, num_instances, shown.solver.c_str(), setup_ms,
              shown.solve_ms, size.c_str(), mode);
}

void PrintSweepFootnote(bool derived_goal) {
  if (derived_goal) {
    std::printf("  (* = goal answer size; the full vector was pruned "
                "away)\n");
  }
}

void PrintIndexWorkLine(const ExecutionContext::IndexBuildStats& total) {
  std::printf(
      "index work across sweep: kd_builds=%lld rtree_builds=%lld "
      "score_maps=%lld score_reuses=%lld parent_index_hits=%lld\n",
      static_cast<long long>(total.kdtree_builds),
      static_cast<long long>(total.rtree_builds),
      static_cast<long long>(total.score_maps),
      static_cast<long long>(total.score_reuses),
      static_cast<long long>(total.parent_index_hits));
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

// Validates --opt and --algo without solving; usage errors exit 2 before
// anything runs (remote mode revalidates daemon-side, but the fast local
// reject keeps the failure mode identical in both modes).
int ValidateSolverChoice(const CliArgs& args, SolverOptions* options) {
  for (const std::string& opt : args.opts) {
    const Status st = options->ParseKeyValue(opt);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (args.algo != "auto") {
    auto solver = SolverRegistry::Create(args.algo, *options);
    if (!solver.ok()) {
      std::fprintf(stderr, "%s\n", solver.status().ToString().c_str());
      return 2;
    }
  }
  return 0;
}

int WriteResultCsvs(const CliArgs& args, const ArspResult& result,
                    const UncertainDataset& dataset,
                    const std::vector<std::string>& names) {
  if (!args.instances_out.empty()) {
    const Status st = WriteTextFile(
        args.instances_out, FormatArspResultCsv(result, dataset, &names));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote per-instance results to %s\n",
                args.instances_out.c_str());
  }
  if (!args.objects_out.empty()) {
    const Status st = WriteTextFile(
        args.objects_out, FormatObjectResultCsv(result, dataset, &names));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote per-object results to %s\n", args.objects_out.c_str());
  }
  return 0;
}

// ------------------------------------------------------------- local mode

int RunLocal(const CliArgs& args,
             std::shared_ptr<const UncertainDataset> dataset,
             const std::vector<std::string>& names) {
  std::vector<std::string> spec_strings;
  if (const int rc = CollectSpecs(args, &spec_strings); rc != 0) return rc;

  SolverOptions options;
  if (const int rc = ValidateSolverChoice(args, &options); rc != 0) return rc;

  // Assemble one request per constraint spec; the engine owns dataset,
  // context pool, cache, and solver resolution from here on.
  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(dataset);

  // --subset: the Fig. 6 m% sweep over engine-held prefix views. Each view
  // is a zero-copy window; pooled contexts derive from the base dataset's,
  // so the whole sweep performs one full index build (reported below).
  // --topk/--threshold turn the sweep's requests into goal queries.
  if (!args.subset_pcts.empty()) {
    auto constraints = ParseConstraintSpec(spec_strings[0], dataset->dim());
    if (!constraints.ok()) {
      std::fprintf(stderr, "%s\n", constraints.status().ToString().c_str());
      return 2;
    }
    const bool derived_goal =
        args.topk.has_value() || args.threshold.has_value();
    PrintSweepHeader(spec_strings[0], args.algo);
    std::vector<DatasetHandle> view_handles;
    for (int pct : args.subset_pcts) {
      const int count = std::max(1, dataset->num_objects() * pct / 100);
      auto view_handle = engine.AddView(handle, ViewSpec::Prefix(count));
      if (!view_handle.ok()) {
        std::fprintf(stderr, "%s\n",
                     view_handle.status().ToString().c_str());
        return 1;
      }
      view_handles.push_back(*view_handle);
      QueryRequest request;
      request.dataset = *view_handle;
      request.constraints = *constraints;
      request.solver = args.algo;
      request.options = options;
      if (args.threshold) {
        request.derived.kind = DerivedKind::kObjectsAboveThreshold;
        request.derived.threshold = *args.threshold;
      } else if (args.topk) {
        request.derived.kind = DerivedKind::kTopKObjects;
        request.derived.k = *args.topk;
      }
      request.parallelism = args.threads;
      auto response = engine.Solve(request);
      if (!response.ok()) {
        std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
        return 1;
      }
      const DatasetView view = engine.view(*view_handle);
      const ShownResponse shown = Shown(*response);
      PrintSweepRow(pct, view.num_objects(), view.num_instances(),
                    response->stats.setup_millis, derived_goal, shown);
      if (args.stats) PrintStatsLine(shown);
    }
    PrintSweepFootnote(derived_goal);
    // One full build on the base context + per-view delta work is the
    // data-plane invariant; the counters make it visible (and are what
    // tests/engine_view_test.cc asserts).
    ExecutionContext::IndexBuildStats total = engine.index_stats(handle);
    for (const DatasetHandle& vh : view_handles) {
      total += engine.index_stats(vh);
    }
    PrintIndexWorkLine(total);
    return 0;
  }

  std::vector<QueryRequest> requests;
  for (const std::string& spec : spec_strings) {
    auto constraints = ParseConstraintSpec(spec, dataset->dim());
    if (!constraints.ok()) {
      std::fprintf(stderr, "%s\n", constraints.status().ToString().c_str());
      return 2;
    }
    QueryRequest request;
    request.dataset = handle;
    request.constraints = std::move(*constraints);
    request.solver = args.algo;
    request.options = options;
    if (args.threshold) {
      request.derived.kind = DerivedKind::kObjectsAboveThreshold;
      request.derived.threshold = *args.threshold;
    } else {
      request.derived.kind = DerivedKind::kTopKObjects;
      request.derived.k = args.topk.value_or(CliArgs::kDefaultTopk);
    }
    // CSV outputs need the complete instance vector, which a goal-pruned
    // partial result no longer carries: force the post-hoc path.
    request.allow_pushdown =
        args.instances_out.empty() && args.objects_out.empty();
    request.parallelism = args.threads;
    requests.push_back(std::move(request));
  }

  // Solve — repeats re-issue the whole request list, so runs past the first
  // are served by the engine's result cache (visible via --stats).
  // --trace gives every request its own Trace (a Trace is single-threaded,
  // but SolveBatch drives each request on one thread, so one per request is
  // safe under concurrency); rebuilt per round so the printed trees show
  // the final round — with repeats, that is the cache-hit timeline.
  std::vector<StatusOr<QueryResponse>> outcomes;
  std::vector<std::unique_ptr<obs::Trace>> traces;
  for (int round = 0; round < args.repeat; ++round) {
    if (args.repeat > 1) std::printf("-- run %d/%d\n", round + 1, args.repeat);
    if (args.trace) {
      traces.clear();
      for (QueryRequest& request : requests) {
        traces.push_back(std::make_unique<obs::Trace>(obs::Trace::NewTraceId(),
                                                      "cli_query"));
        request.trace = traces.back().get();
      }
    }
    // A batch's requests run concurrently, so the CLI can time only the
    // whole call: each hit in it reports the batch's wall time.
    const Stopwatch call;
    outcomes = engine.SolveBatch(requests);  // size-1 batches run serially
    const double call_ms = call.ElapsedMillis();
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const std::string label =
          requests.size() > 1 ? "[" + spec_strings[i] + "] " : "";
      if (!outcomes[i].ok()) {
        std::fprintf(stderr, "%s%s\n", label.c_str(),
                     outcomes[i].status().ToString().c_str());
        return 1;
      }
      const ShownResponse shown = Shown(*outcomes[i]);
      PrintResponseLine(label, shown, call_ms);
      if (args.stats) PrintStatsLine(shown);
    }
  }

  // Report the derived rankings of the final round.
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const QueryResponse& resp = *outcomes[i];
    if (requests.size() > 1) {
      std::printf("\n[%s]", spec_strings[i].c_str());
    }
    PrintRankedHeader(args, resp.pushdown, resp.ranked.size());
    for (const auto& [object, prob] : resp.ranked) {
      std::printf("  %-20s %.4f\n", names[static_cast<size_t>(object)].c_str(),
                  prob);
    }
  }

  if (args.trace) {
    for (size_t i = 0; i < traces.size(); ++i) {
      obs::Trace& trace = *traces[i];
      trace.Annotate("constraints", spec_strings[i]);
      trace.Finish();
      std::printf("\n%s", obs::RenderSpanTree(trace.root(), trace.id()).c_str());
      obs::MaybeWriteChromeTrace(trace.root(), trace.id());
    }
  }

  if (args.stats) {
    // Engine-level aggregates: per-request latency over the ring window
    // plus result-cache effectiveness for the whole run.
    const ArspEngine::CacheStats cache = engine.cache_stats();
    std::printf("engine: latency %s cache_hits=%lld cache_misses=%lld "
                "entries=%zu kernel=%s threads=%d\n",
                engine.latency_stats().ToString().c_str(),
                static_cast<long long>(cache.hits),
                static_cast<long long>(cache.misses), cache.entries,
                simd::ActiveArchName(), CoreBudget::Total());
  }

  return WriteResultCsvs(args, *outcomes[0]->result, *dataset, names);
}

// ------------------------------------------------------------ remote mode

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
    request.derived_kind = net::WireDerivedKind::kObjectsAboveThreshold;
    request.threshold = *args.threshold;
  } else {
    request.derived_kind = net::WireDerivedKind::kTopKObjects;
    request.k = args.topk.value_or(CliArgs::kDefaultTopk);
  }
  const bool need_instances =
      !args.instances_out.empty() || !args.objects_out.empty();
  request.allow_pushdown = !need_instances;
  request.include_instances = need_instances;
  request.parallelism = args.threads;
  // trace_id stays 0: the daemon (or coordinator) mints one and returns it
  // with the serialized spans.
  request.want_trace = args.trace;
  return request;
}

// --trace output for a wire response: decode the daemon's serialized span
// tree and print the same timeline local mode renders. Behind a sharded
// coordinator the tree carries the chosen shard's shard=N subtree under the
// coordinator's forward span.
void PrintWireTrace(const net::QueryResponseWire& resp) {
  if (resp.trace_spans.empty()) {
    std::fprintf(stderr, "daemon returned no trace spans\n");
    return;
  }
  std::vector<obs::Span> spans;
  if (!obs::DeserializeSpans(resp.trace_spans, &spans) || spans.empty()) {
    std::fprintf(stderr, "daemon returned an undecodable trace\n");
    return;
  }
  std::printf("\n%s", obs::RenderSpanTree(spans[0], resp.trace_id).c_str());
  obs::MaybeWriteChromeTrace(spans[0], resp.trace_id);
}

void PrintRankedEntries(const std::vector<net::RankedEntry>& ranked,
                        const std::vector<std::string>& local_names) {
  for (const net::RankedEntry& entry : ranked) {
    // Prefer the daemon's name (authoritative for its dataset); fall back
    // to the locally parsed names, then the raw id.
    std::string name = entry.name;
    if (name.empty() && entry.object_id >= 0 &&
        static_cast<size_t>(entry.object_id) < local_names.size()) {
      name = local_names[static_cast<size_t>(entry.object_id)];
    }
    if (name.empty()) name = std::to_string(entry.object_id);
    std::printf("  %-20s %.4f\n", name.c_str(), entry.prob);
  }
}

int RunRemote(const CliArgs& args,
              std::shared_ptr<const UncertainDataset> dataset,
              const std::vector<std::string>& names,
              const std::string& csv_text) {
  std::vector<std::string> spec_strings;
  if (const int rc = CollectSpecs(args, &spec_strings); rc != 0) return rc;

  SolverOptions options;
  if (const int rc = ValidateSolverChoice(args, &options); rc != 0) return rc;

  auto client = net::ArspClient::Connect(args.host, args.port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }

  const std::string dataset_name =
      args.remote_name.empty() ? args.input : args.remote_name;
  int dim = 0;
  int num_objects = 0;
  if (dataset != nullptr) {
    // Register (or idempotently reuse) the dataset under its name. The CSV
    // ships inline, so the daemon needs no access to the local filesystem.
    net::LoadDatasetRequest load;
    load.name = dataset_name;
    if (IsSnapshotPath(args.input)) {
      // Ship the path, not the bytes: the daemon mmaps the snapshot from
      // its own filesystem (LoadSource::kCsvFile + .arsp suffix).
      load.source = net::LoadSource::kCsvFile;
      load.payload = args.input;
    } else {
      load.source = net::LoadSource::kCsvText;
      load.payload = csv_text;
      load.header = args.header;
    }
    auto loaded = client->LoadDataset(load);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("daemon %s dataset '%s' (%d objects / %d instances)\n",
                loaded->reused ? "reused" : "loaded", dataset_name.c_str(),
                loaded->num_objects, loaded->num_instances);
    dim = loaded->dim;
    num_objects = loaded->num_objects;
  } else {
    // --name without --input: the dataset must already live on the daemon
    // (an arspd --load preload or an earlier client's registration); its
    // shape comes from the STATS listing.
    auto stats = client->Stats(dataset_name);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    for (const net::DatasetInfo& info : stats->datasets) {
      if (info.name == dataset_name) {
        dim = info.dim;
        num_objects = info.num_objects;
        std::printf("daemon dataset '%s' (%d objects / %d instances, "
                    "d = %d)\n",
                    dataset_name.c_str(), info.num_objects,
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

  // Constraint specs are validated locally against the dataset's
  // dimensionality so a typo exits 2 (usage), exactly like local mode; the
  // daemon re-validates against its own copy anyway.
  for (const std::string& spec : spec_strings) {
    auto constraints = ParseConstraintSpec(spec, dim);
    if (!constraints.ok()) {
      std::fprintf(stderr, "%s\n", constraints.status().ToString().c_str());
      return 2;
    }
  }

  // --subset: the m% sweep against daemon-held prefix views. View names
  // encode the window, so repeated sweeps (separate CLI runs included)
  // reuse the daemon's views, derived contexts, and cache entries.
  if (!args.subset_pcts.empty()) {
    const bool derived_goal =
        args.topk.has_value() || args.threshold.has_value();
    PrintSweepHeader(spec_strings[0], args.algo);
    for (int pct : args.subset_pcts) {
      const int count = std::max(1, num_objects * pct / 100);
      net::AddViewRequest add;
      add.base_name = dataset_name;
      add.view_name = dataset_name + "#prefix:" + std::to_string(count);
      add.spec = ViewSpec::Prefix(count);
      auto view = client->AddView(add);
      if (!view.ok()) {
        std::fprintf(stderr, "%s\n", view.status().ToString().c_str());
        return 1;
      }
      net::QueryRequestWire request =
          MakeWireRequest(args, view->name, spec_strings[0]);
      if (!derived_goal) {
        // Match local sweep semantics: no explicit goal flags means a full
        // solve per prefix, not the default top-k.
        request.derived_kind = net::WireDerivedKind::kNone;
      }
      auto response = client->Query(request);
      if (!response.ok()) {
        std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
        return 1;
      }
      const ShownResponse shown = Shown(*response);
      PrintSweepRow(pct, view->num_objects, view->num_instances,
                    response->stats.setup_millis, derived_goal, shown);
      if (args.stats) PrintStatsLine(shown);
    }
    PrintSweepFootnote(derived_goal);
    auto stats = client->Stats(dataset_name);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    ExecutionContext::IndexBuildStats total;
    total.kdtree_builds = stats->kdtree_builds;
    total.rtree_builds = stats->rtree_builds;
    total.score_maps = stats->score_maps;
    total.score_reuses = stats->score_reuses;
    total.parent_index_hits = stats->parent_index_hits;
    PrintIndexWorkLine(total);
    return 0;
  }

  // Queries run sequentially over one connection; parallelism is the
  // daemon's concern (its engine + many connections), not the CLI's.
  std::vector<net::QueryResponseWire> outcomes(spec_strings.size());
  for (int round = 0; round < args.repeat; ++round) {
    if (args.repeat > 1) std::printf("-- run %d/%d\n", round + 1, args.repeat);
    for (size_t i = 0; i < spec_strings.size(); ++i) {
      const std::string label =
          spec_strings.size() > 1 ? "[" + spec_strings[i] + "] " : "";
      const net::QueryRequestWire request =
          MakeWireRequest(args, dataset_name, spec_strings[i]);
      const Stopwatch call;
      auto response = client->Query(request);
      const double call_ms = call.ElapsedMillis();
      if (!response.ok()) {
        std::fprintf(stderr, "%s%s\n", label.c_str(),
                     response.status().ToString().c_str());
        return 1;
      }
      outcomes[i] = std::move(*response);
      const ShownResponse shown = Shown(outcomes[i]);
      PrintResponseLine(label, shown, call_ms);
      if (args.stats) PrintStatsLine(shown);
    }
  }

  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (spec_strings.size() > 1) {
      std::printf("\n[%s]", spec_strings[i].c_str());
    }
    PrintRankedHeader(args, outcomes[i].pushdown, outcomes[i].ranked.size());
    PrintRankedEntries(outcomes[i].ranked, names);
  }

  if (args.trace) {
    for (const net::QueryResponseWire& resp : outcomes) PrintWireTrace(resp);
  }

  if (args.stats) {
    auto stats = client->Stats();
    if (stats.ok()) {
      std::printf("daemon: latency requests=%lld window=%lld min_ms=%g "
                  "mean_ms=%g p50_ms=%g p95_ms=%g p99_ms=%g p999_ms=%g "
                  "cache_hits=%lld "
                  "cache_misses=%lld entries=%llu pooled_contexts=%llu "
                  "kernel=%s threads=%lld\n",
                  static_cast<long long>(stats->latency_count),
                  static_cast<long long>(stats->latency_window),
                  stats->latency_min_ms, stats->latency_mean_ms,
                  stats->latency_p50_ms, stats->latency_p95_ms,
                  stats->latency_p99_ms, stats->latency_p999_ms,
                  static_cast<long long>(stats->cache_hits),
                  static_cast<long long>(stats->cache_misses),
                  static_cast<unsigned long long>(stats->cache_entries),
                  static_cast<unsigned long long>(stats->pooled_contexts),
                  stats->kernel_arch.empty() ? "unknown"
                                             : stats->kernel_arch.c_str(),
                  static_cast<long long>(stats->query_threads));
      std::printf("daemon: peak_rss_mb=%.1f\n",
                  static_cast<double>(stats->peak_rss_bytes) / (1024.0 * 1024.0));
    }
  }

  if (!args.instances_out.empty() || !args.objects_out.empty()) {
    // The wire response carries the full instance vector (the request
    // forced the post-hoc path); formatting uses the locally parsed
    // dataset, which is byte-identical input to what the daemon holds.
    const net::QueryResponseWire& resp = outcomes[0];
    if (!resp.complete ||
        static_cast<int>(resp.instance_probs.size()) !=
            dataset->num_instances()) {
      std::fprintf(stderr,
                   "daemon returned no usable instance vector (%zu probs "
                   "for %d instances)\n",
                   resp.instance_probs.size(), dataset->num_instances());
      return 1;
    }
    ArspResult result;
    result.instance_probs = resp.instance_probs;
    return WriteResultCsvs(args, result, *dataset, names);
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

  // --connect --name without --input: query a dataset the daemon already
  // holds; there is nothing to parse locally.
  if (args.input.empty()) {
    return RunRemote(args, nullptr, {}, std::string());
  }

  // Both modes load the input locally: local mode queries it, remote mode
  // validates against it (dims, constraint specs) and prints names from it.
  // CSV inputs ship their raw text to the daemon; snapshot inputs (.arsp)
  // are mmap-loaded here and referenced by server-side path over the wire.
  std::string csv_text;
  std::vector<std::string> names;
  std::shared_ptr<const UncertainDataset> dataset;
  if (IsSnapshotPath(args.input)) {
    auto loaded = snapshot::LoadSnapshot(args.input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", args.input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = loaded->dataset;
    names = std::move(loaded->object_names);
    if (names.empty()) {
      for (int j = 0; j < dataset->num_objects(); ++j) {
        names.push_back(std::to_string(j));
      }
    }
    std::printf("%s snapshot %s (%zu bytes): %d objects / %d instances, "
                "d = %d\n",
                loaded->mapped ? "mapped" : "read", args.input.c_str(),
                loaded->bytes_mapped, dataset->num_objects(),
                dataset->num_instances(), dataset->dim());
  } else {
    {
      std::ifstream file(args.input);
      if (!file) {
        std::fprintf(stderr, "error loading %s: cannot open\n",
                     args.input.c_str());
        return 1;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      csv_text = buffer.str();
    }
    auto loaded = ParseUncertainDatasetCsv(csv_text, args.header, &names);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", args.input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::make_shared<const UncertainDataset>(std::move(*loaded));
    std::printf("loaded %d objects / %d instances, d = %d\n",
                dataset->num_objects(), dataset->num_instances(),
                dataset->dim());
  }

  return args.remote ? RunRemote(args, dataset, names, csv_text)
                     : RunLocal(args, dataset, names);
}
