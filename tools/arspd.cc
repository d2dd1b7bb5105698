// Copyright 2026 The ARSP Authors.
//
// arspd — the long-lived ARSP query daemon. Holds one ArspEngine behind the
// src/net wire protocol so that dataset load, index build, SV(·) mapping,
// and the result cache are paid once and amortized across every client
// connection (the service frontend of ROADMAP.md; arsp_cli --connect is the
// thin client).
//
// Usage:
//   arspd [--host 127.0.0.1] [--port 7439] [--max-connections N]
//         [--cache N] [--contexts N]
//         [--load name=csv:/path/to/file.csv[:header]]
//         [--load name=gen:iip:n=500,seed=1]           (repeatable)
//         [--shards host:port[,host:port...]] [--replication N]
//         [--client-qps F] [--client-burst F] [--max-pending N]
//
// --shards turns the daemon into a *coordinator*: instead of an embedded
// engine it serves a cluster::Coordinator over RemoteShard connections to
// the listed arspd peers (same wire protocol on both tiers — clients cannot
// tell a coordinator from a plain daemon). --replication controls how many
// shards hold each dataset (0 = all). The admission flags install an
// AdmissionController in front of QUERY in either mode; over-budget clients
// get the typed RETRY_LATER reply instead of queueing.
//
// The daemon prints "arspd listening on HOST:PORT" once ready (scripts wait
// for it), serves until SIGINT/SIGTERM or a SHUTDOWN message, then drains
// live connections and exits 0.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/admission.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/remote_shard.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics_http.h"
#include "tools/cli_args.h"

namespace {

using namespace arsp;

// Signal handlers may only touch lock-free state; the main loop polls this
// flag and performs the actual (lock-taking) drain.
volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: arspd [--host ADDR] [--port P] [--max-connections N]\n"
      "             [--cache N] [--contexts N]\n"
      "             [--load name=csv:PATH[:header]] [--load name=gen:SPEC]\n"
      "             [--shards H:P[,H:P...]] [--replication N]\n"
      "             [--client-qps F] [--client-burst F] [--max-pending N]\n"
      "             [--metrics-port P] [--slow-query-ms N]\n"
      "defaults: --host 127.0.0.1 --port 7439; --port 0 picks an ephemeral\n"
      "port. --load preloads a dataset at startup (repeatable); gen specs\n"
      "are GenerateFromSpec syntax, e.g. gen:iip:n=500,seed=1\n"
      "--shards serves a routing coordinator over the listed arspd\n"
      "peers instead of an embedded engine (--load is engine-mode only);\n"
      "--client-qps/--client-burst/--max-pending bound admission, over-\n"
      "budget queries get a typed RETRY_LATER reply\n"
      "--metrics-port serves GET /metrics (Prometheus text) on a second\n"
      "port (0 = ephemeral, printed at startup); --slow-query-ms logs one\n"
      "line per query slower than N ms with its trace id and phase "
      "breakdown\n");
}

struct PreloadSpec {
  std::string name;
  net::LoadSource source = net::LoadSource::kCsvFile;
  std::string payload;
  bool header = false;
};

// "name=csv:PATH[:header]" or "name=gen:SPEC".
bool ParsePreload(const std::string& arg, PreloadSpec* out) {
  const size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  out->name = arg.substr(0, eq);
  std::string rest = arg.substr(eq + 1);
  if (rest.rfind("csv:", 0) == 0) {
    out->source = net::LoadSource::kCsvFile;
    out->payload = rest.substr(4);
    const size_t suffix = out->payload.rfind(":header");
    if (suffix != std::string::npos &&
        suffix + 7 == out->payload.size()) {
      out->header = true;
      out->payload.resize(suffix);
    }
    return !out->payload.empty();
  }
  if (rest.rfind("gen:", 0) == 0) {
    out->source = net::LoadSource::kGenerator;
    out->payload = rest.substr(4);
    return !out->payload.empty();
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions options;
  options.port = 7439;
  std::vector<PreloadSpec> preloads;
  std::vector<std::pair<std::string, int>> shard_addrs;
  cluster::CoordinatorOptions coordinator_options;
  cluster::AdmissionOptions admission;
  bool want_admission = false;
  int metrics_port = -1;  // -1 = no scrape endpoint

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--host") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      options.host = v;
    } else if (flag == "--port") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      // Strict parse: a typo'd port silently becoming 0 would bind an
      // ephemeral port and strand every client configured for the real one.
      if (!cli::internal::ParseIntStrict(v, &options.port) ||
          options.port < 0 || options.port > 65535) {
        std::fprintf(stderr, "bad --port '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--max-connections") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      if (!cli::internal::ParseIntStrict(v, &options.max_connections) ||
          options.max_connections < 0) {
        std::fprintf(stderr, "bad --max-connections '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--cache") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      int cache = 0;
      if (!cli::internal::ParseIntStrict(v, &cache) || cache < 0) {
        std::fprintf(stderr, "bad --cache '%s'\n", v);
        return PrintUsage(), 2;
      }
      options.engine.result_cache_capacity = static_cast<size_t>(cache);
    } else if (flag == "--contexts") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      int contexts = 0;
      if (!cli::internal::ParseIntStrict(v, &contexts) || contexts < 1) {
        std::fprintf(stderr, "--contexts must be an integer >= 1\n");
        return PrintUsage(), 2;
      }
      options.engine.context_pool_capacity = static_cast<size_t>(contexts);
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      std::string list = v;
      size_t begin = 0;
      while (begin <= list.size()) {
        const size_t comma = list.find(',', begin);
        const std::string token =
            list.substr(begin, comma == std::string::npos ? std::string::npos
                                                          : comma - begin);
        auto parsed = net::ParseHostPort(token);
        if (!parsed.ok()) {
          std::fprintf(stderr, "bad --shards entry '%s': %s\n", token.c_str(),
                       parsed.status().ToString().c_str());
          return PrintUsage(), 2;
        }
        shard_addrs.push_back(std::move(*parsed));
        if (comma == std::string::npos) break;
        begin = comma + 1;
      }
    } else if (flag == "--replication") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      if (!cli::internal::ParseIntStrict(
              v, &coordinator_options.plan.replication) ||
          coordinator_options.plan.replication < 0) {
        std::fprintf(stderr, "bad --replication '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--client-qps") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      if (!cli::internal::ParseDoubleStrict(v, &admission.client_qps) ||
          admission.client_qps < 0) {
        std::fprintf(stderr, "bad --client-qps '%s'\n", v);
        return PrintUsage(), 2;
      }
      want_admission = true;
    } else if (flag == "--client-burst") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      if (!cli::internal::ParseDoubleStrict(v, &admission.client_burst) ||
          admission.client_burst < 1) {
        std::fprintf(stderr, "bad --client-burst '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--max-pending") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      if (!cli::internal::ParseIntStrict(v, &admission.max_pending) ||
          admission.max_pending < 0) {
        std::fprintf(stderr, "bad --max-pending '%s'\n", v);
        return PrintUsage(), 2;
      }
      want_admission = true;
    } else if (flag == "--metrics-port") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      if (!cli::internal::ParseIntStrict(v, &metrics_port) ||
          metrics_port < 0 || metrics_port > 65535) {
        std::fprintf(stderr, "bad --metrics-port '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--slow-query-ms") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      if (!cli::internal::ParseIntStrict(v, &options.slow_query_ms) ||
          options.slow_query_ms < 0) {
        std::fprintf(stderr, "bad --slow-query-ms '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--load") {
      const char* v = next();
      if (v == nullptr) return PrintUsage(), 2;
      PreloadSpec spec;
      if (!ParsePreload(v, &spec)) {
        std::fprintf(stderr, "bad --load '%s'\n", v);
        return PrintUsage(), 2;
      }
      preloads.push_back(std::move(spec));
    } else if (flag == "--help" || flag == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return PrintUsage(), 2;
    }
  }

  if (!shard_addrs.empty()) {
    if (!preloads.empty()) {
      std::fprintf(stderr,
                   "arspd: --load is engine-mode only; load datasets through "
                   "the coordinator's wire interface instead\n");
      return 2;
    }
    std::vector<std::shared_ptr<net::ServiceBackend>> shards;
    std::vector<std::string> shard_names;
    shards.reserve(shard_addrs.size());
    for (const auto& [shard_host, shard_port] : shard_addrs) {
      shards.push_back(
          std::make_shared<cluster::RemoteShard>(shard_host, shard_port));
      shard_names.push_back(shard_host + ":" + std::to_string(shard_port));
    }
    options.backend = std::make_shared<cluster::Coordinator>(
        std::move(shards), std::move(shard_names), coordinator_options);
  }
  if (want_admission) {
    options.query_gate =
        std::make_shared<cluster::AdmissionController>(admission);
  }

  net::ArspServer server(options);

  // Handlers go in before the (possibly slow) preloads: a supervisor's
  // SIGTERM during a long CSV parse must still reach the clean-drain path,
  // and the handler only sets a flag, so installing it this early is safe.
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "arspd: %s\n", started.ToString().c_str());
    return 1;
  }

  // Preloads go through a loopback connection so they take the exact wire
  // path a client load does (registry names, fingerprinting, validation).
  // The connection targets the bound address — a daemon bound to a
  // specific interface does not listen on 127.0.0.1 (wildcard binds do).
  if (!preloads.empty()) {
    const std::string preload_host =
        options.host == "0.0.0.0" ? "127.0.0.1" : options.host;
    auto client = net::ArspClient::Connect(preload_host, server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "arspd: preload connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    for (const PreloadSpec& spec : preloads) {
      net::LoadDatasetRequest request;
      request.name = spec.name;
      request.source = spec.source;
      request.payload = spec.payload;
      request.header = spec.header;
      auto loaded = client->LoadDataset(request);
      if (!loaded.ok()) {
        std::fprintf(stderr, "arspd: preload '%s' failed: %s\n",
                     spec.name.c_str(),
                     loaded.status().ToString().c_str());
        server.Shutdown();
        server.Wait();
        return 1;
      }
      std::printf("arspd preloaded %s: %d objects / %d instances, d=%d\n",
                  loaded->name.c_str(), loaded->num_objects,
                  loaded->num_instances, loaded->dim);
    }
  }

  if (!shard_addrs.empty()) {
    std::printf("arspd coordinating %zu shards (replication %d)\n",
                shard_addrs.size(), coordinator_options.plan.replication);
  }
  // The scrape endpoint binds the same host stance as the wire port.
  obs::MetricsHttpServer metrics_server;
  if (metrics_port >= 0) {
    const Status metrics_started =
        metrics_server.Start(options.host, metrics_port);
    if (!metrics_started.ok()) {
      std::fprintf(stderr, "arspd: %s\n",
                   metrics_started.ToString().c_str());
      server.Shutdown();
      server.Wait();
      return 1;
    }
    std::printf("arspd metrics on %s:%d\n", options.host.c_str(),
                metrics_server.port());
  }
  std::printf("arspd listening on %s:%d\n", options.host.c_str(),
              server.port());
  std::fflush(stdout);

  // Serve until a signal or a wire SHUTDOWN. The 50ms poll is the price of
  // keeping the signal handler async-safe (it only sets a flag).
  while (g_signal == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("arspd draining (%lld requests served)\n",
              static_cast<long long>(server.requests_served()));
  server.Shutdown();
  server.Wait();
  std::printf("arspd stopped\n");
  return 0;
}
