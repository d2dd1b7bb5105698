// Copyright 2026 The ARSP Authors.
//
// arsp_loadgen — a multi-connection load generator for arspd (plain or
// coordinator). Each connection is one closed-loop worker: send a query,
// await the reply, repeat until the deadline. --target-qps switches to an
// open loop where workers pace themselves to a fleet-wide arrival rate, so
// overload behavior (the typed RETRY_LATER reply) can be driven
// deliberately rather than emerging from connection count.
//
// Usage:
//   arsp_loadgen --connect host:port --name NAME --constraints wr:...
//                [--load gen:SPEC] [--connections N] [--duration S]
//                [--topk K] [--threshold P] [--target-qps F] [--cache]
//                [--threads-per-query N] [--json PATH]
//
// Prints one summary line per run:
//   loadgen: <req> ok, <n> retry-later, <n> errors in <s>s  |  <qps> QPS,
//   p50/p95/p99/p99.9 = a/b/c/d ms
// and exits 0 iff no hard errors occurred (RETRY_LATER is not an error —
// counting it is the point).
//
// --json PATH writes the run in the same arsp-bench-v1 shape bench --json
// exports (header object, then one entry per metric with ns_per_op +
// counters), so tools/bench_diff can gate load-test latency regressions
// exactly like microbenchmark ones.
//
// RETRY_LATER handling: the worker honors the server's backoff hint (sleeps
// retry-after, bounded) and keeps going, so a run against an
// admission-limited daemon measures the *admitted* throughput.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/percentile.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/simd/kernels.h"
#include "tools/cli_args.h"

namespace {

using namespace arsp;
using Clock = std::chrono::steady_clock;

struct LoadgenConfig {
  std::string host;
  int port = 0;
  std::string name;             // dataset to query (required)
  std::string constraint_spec;  // required
  std::string load_spec;        // optional gen:SPEC to LOAD first
  std::string solver = "auto";
  int connections = 4;
  double duration_s = 5.0;
  int topk = -1;                // >= 0 selects top-k queries
  double threshold = -1.0;      // >= 0 selects p-threshold queries
  double target_qps = 0.0;      // 0 = closed loop
  bool use_cache = false;       // repeat queries would all hit the cache
  /// --threads-per-query N (N >= 2): each worker alternates serial
  /// (parallelism=1) and parallel (parallelism=N) requests and the summary
  /// reports the coordinator-side p50/p95 of each mode separately, so the
  /// intra-query speedup is measurable under service load. 0 = off (every
  /// request leaves parallelism to the daemon's policy).
  int threads_per_query = 0;
  std::string json_out;  ///< --json PATH: arsp-bench-v1 export (empty = off)
};

struct WorkerResult {
  std::vector<double> latencies_ms;
  // Per-mode latencies, filled only under --threads-per-query (each worker
  // alternates modes, so both buckets see the same arrival pattern).
  std::vector<double> serial_ms;
  std::vector<double> parallel_ms;
  int64_t ok = 0;
  int64_t retry_later = 0;
  int64_t errors = 0;
  std::string first_error;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: arsp_loadgen --connect host:port --name NAME\n"
      "                    --constraints wr:l1,h1[,...]|rank:c\n"
      "                    [--load gen:SPEC] [--connections N]\n"
      "                    [--duration S] [--topk K] [--threshold P]\n"
      "                    [--target-qps F] [--solver NAME] [--cache]\n"
      "                    [--threads-per-query N] [--json PATH]\n"
      "--load registers NAME from a generator spec before the run\n"
      "(e.g. --load gen:iip:n=500,seed=1). --target-qps paces an open\n"
      "loop across all connections; default is closed-loop. --cache\n"
      "allows result-cache hits (off by default: loadgen measures solve\n"
      "throughput, and identical queries would otherwise all hit).\n"
      "--threads-per-query N (>= 2) alternates serial and N-worker\n"
      "requests per connection and reports a per-mode p50/p95 split.\n"
      "--json PATH exports the run in the arsp-bench-v1 shape for\n"
      "tools/bench_diff.\n");
}

net::QueryRequestWire MakeQuery(const LoadgenConfig& config) {
  net::QueryRequestWire request;
  request.dataset = config.name;
  request.constraint_spec = config.constraint_spec;
  request.solver = config.solver;
  request.use_cache = config.use_cache;
  if (config.topk >= 0) {
    request.derived_kind = DerivedKind::kTopKObjects;
    request.k = config.topk;
  } else if (config.threshold >= 0.0) {
    request.derived_kind = DerivedKind::kObjectsAboveThreshold;
    request.threshold = config.threshold;
  } else {
    request.derived_kind = DerivedKind::kNone;
  }
  return request;
}

void RunWorker(const LoadgenConfig& config, Clock::time_point deadline,
               double per_worker_interval_s, WorkerResult* out) {
  auto client = net::ArspClient::Connect(config.host, config.port);
  if (!client.ok()) {
    out->errors = 1;
    out->first_error = client.status().ToString();
    return;
  }
  net::QueryRequestWire serial_request = MakeQuery(config);
  net::QueryRequestWire parallel_request = serial_request;
  const bool split_modes = config.threads_per_query >= 2;
  if (split_modes) {
    serial_request.parallelism = 1;
    parallel_request.parallelism = config.threads_per_query;
  }
  int64_t sent = 0;
  Clock::time_point next_send = Clock::now();
  while (Clock::now() < deadline) {
    if (per_worker_interval_s > 0.0) {
      // Open loop: hold the fleet-wide arrival rate even when replies lag.
      std::this_thread::sleep_until(next_send);
      next_send += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(per_worker_interval_s));
      if (Clock::now() >= deadline) break;
    }
    const bool parallel_mode = split_modes && (sent++ % 2 == 1);
    const net::QueryRequestWire& request =
        parallel_mode ? parallel_request : serial_request;
    const Clock::time_point begin = Clock::now();
    auto response = client->Query(request);
    const double millis =
        std::chrono::duration<double, std::milli>(Clock::now() - begin)
            .count();
    if (response.ok()) {
      ++out->ok;
      out->latencies_ms.push_back(millis);
      if (split_modes) {
        (parallel_mode ? out->parallel_ms : out->serial_ms)
            .push_back(millis);
      }
    } else if (response.status().code() == StatusCode::kUnavailable) {
      // The typed overload reply. Honor the hint (bounded) and keep going.
      ++out->retry_later;
      if (per_worker_interval_s <= 0.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<int64_t>(250, 1 + out->retry_later)));
      }
    } else {
      ++out->errors;
      if (out->first_error.empty()) {
        out->first_error = response.status().ToString();
      }
      if (!client->connected()) break;
    }
  }
}

// %.17g round-trips doubles exactly — the same rendering bench_util's
// export uses, so bench_diff parses both identically.
std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double MeanMs(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

// bench_diff refuses exports without the shared BM_Calibrate_Xorshift64
// entry it normalizes by. Time the identical serially dependent xorshift64
// chain the bench_* binaries register (the compiler cannot vectorize or
// reassociate it, so ns/op tracks scalar core speed), min over the outer
// reps like bench_util's "_ns" collapse.
double CalibrateXorshiftNs() {
  uint64_t x = 88172645463325252ull;
  double best = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < (1 << 16); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (rep == 0 || ns < best) best = ns;
  }
  volatile uint64_t sink = x;  // keep the chain observable
  (void)sink;
  return best;
}

// --json: the run as an arsp-bench-v1 export. One "loadgen/query" entry
// whose ns_per_op is the mean ok-request latency (the statistic bench_diff
// gates on), with throughput and the tail percentiles as counters; under
// --threads-per-query the per-mode splits become their own entries. A
// load-test latency regression then fails CI through the exact pipeline a
// kernel regression does.
bool WriteBenchJson(const LoadgenConfig& config, WorkerResult* total,
                    double elapsed_s, double qps,
                    const std::vector<double>& p) {
  std::ofstream out(config.json_out);
  if (!out) {
    std::fprintf(stderr, "loadgen: cannot write --json file %s\n",
                 config.json_out.c_str());
    return false;
  }
  const char* rev = std::getenv("ARSP_GIT_REV");
  out << "{\"schema\":\"arsp-bench-v1\",\"arch\":\"" << simd::ActiveArchName()
      << "\",\"scale\":1,\"git_rev\":\"" << (rev != nullptr ? rev : "unknown")
      << "\"}\n";
  auto entry = [&out](const std::string& name, double mean_ms,
                      int64_t iterations,
                      const std::vector<std::pair<std::string, double>>&
                          counters) {
    out << "{\"name\":\"" << name
        << "\",\"ns_per_op\":" << JsonNumber(mean_ms * 1e6)
        << ",\"iterations\":" << iterations << ",\"counters\":{";
    bool first = true;
    for (const auto& [key, value] : counters) {
      if (!first) out << ",";
      first = false;
      out << "\"" << key << "\":" << JsonNumber(value);
    }
    out << "}}\n";
  };
  entry("BM_Calibrate_Xorshift64", CalibrateXorshiftNs() * 1e-6, 200, {});
  entry("loadgen/query", MeanMs(total->latencies_ms), total->ok,
        {{"qps", qps},
         {"p50_ms", p[0]},
         {"p95_ms", p[1]},
         {"p99_ms", p[2]},
         {"p999_ms", p[3]},
         {"retry_later", static_cast<double>(total->retry_later)},
         {"errors", static_cast<double>(total->errors)},
         {"connections", static_cast<double>(config.connections)},
         {"duration_s", elapsed_s}});
  if (config.threads_per_query >= 2) {
    const std::vector<double> qs = {0.50, 0.95, 0.99, 0.999};
    const std::vector<double> ps = Percentiles(&total->serial_ms, qs);
    const std::vector<double> pp = Percentiles(&total->parallel_ms, qs);
    entry("loadgen/serial", MeanMs(total->serial_ms),
          static_cast<int64_t>(total->serial_ms.size()),
          {{"p50_ms", ps[0]},
           {"p95_ms", ps[1]},
           {"p99_ms", ps[2]},
           {"p999_ms", ps[3]}});
    entry("loadgen/parallel", MeanMs(total->parallel_ms),
          static_cast<int64_t>(total->parallel_ms.size()),
          {{"p50_ms", pp[0]},
           {"p95_ms", pp[1]},
           {"p99_ms", pp[2]},
           {"p999_ms", pp[3]},
           {"threads_per_query",
            static_cast<double>(config.threads_per_query)}});
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenConfig config;
  bool have_connect = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (flag == "--help" || flag == "-h") {
      PrintUsage();
      return 0;
    } else if (flag == "--cache") {
      config.use_cache = true;
      continue;
    } else if ((v = next()) == nullptr) {
      return PrintUsage(), 2;
    } else if (flag == "--connect") {
      auto parsed = net::ParseHostPort(v);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --connect '%s'\n", v);
        return PrintUsage(), 2;
      }
      config.host = parsed->first;
      config.port = parsed->second;
      have_connect = true;
    } else if (flag == "--name") {
      config.name = v;
    } else if (flag == "--constraints") {
      config.constraint_spec = v;
    } else if (flag == "--load") {
      if (std::strncmp(v, "gen:", 4) != 0) {
        std::fprintf(stderr, "--load takes gen:SPEC, got '%s'\n", v);
        return PrintUsage(), 2;
      }
      config.load_spec = v + 4;
    } else if (flag == "--solver") {
      config.solver = v;
    } else if (flag == "--connections") {
      if (!cli::internal::ParseIntStrict(v, &config.connections) ||
          config.connections < 1) {
        std::fprintf(stderr, "bad --connections '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--duration") {
      if (!cli::internal::ParseDoubleStrict(v, &config.duration_s) ||
          config.duration_s <= 0) {
        std::fprintf(stderr, "bad --duration '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--topk") {
      if (!cli::internal::ParseIntStrict(v, &config.topk) ||
          config.topk < 0) {
        std::fprintf(stderr, "bad --topk '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--threshold") {
      if (!cli::internal::ParseDoubleStrict(v, &config.threshold) ||
          config.threshold < 0 || config.threshold > 1) {
        std::fprintf(stderr, "bad --threshold '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--target-qps") {
      if (!cli::internal::ParseDoubleStrict(v, &config.target_qps) ||
          config.target_qps < 0) {
        std::fprintf(stderr, "bad --target-qps '%s'\n", v);
        return PrintUsage(), 2;
      }
    } else if (flag == "--threads-per-query") {
      if (!cli::internal::ParseIntStrict(v, &config.threads_per_query) ||
          config.threads_per_query < 2) {
        std::fprintf(stderr, "--threads-per-query needs an integer >= 2\n");
        return PrintUsage(), 2;
      }
    } else if (flag == "--json") {
      config.json_out = v;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return PrintUsage(), 2;
    }
  }
  if (!have_connect || config.name.empty() || config.constraint_spec.empty()) {
    std::fprintf(stderr,
                 "--connect, --name, and --constraints are required\n");
    return PrintUsage(), 2;
  }
  if (config.topk >= 0 && config.threshold >= 0.0) {
    std::fprintf(stderr, "--topk and --threshold are mutually exclusive\n");
    return PrintUsage(), 2;
  }

  if (!config.load_spec.empty()) {
    auto client = net::ArspClient::Connect(config.host, config.port);
    if (!client.ok()) {
      std::fprintf(stderr, "loadgen: connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    net::LoadDatasetRequest load;
    load.name = config.name;
    load.source = net::LoadSource::kGenerator;
    load.payload = config.load_spec;
    auto loaded = client->LoadDataset(load);
    if (!loaded.ok()) {
      std::fprintf(stderr, "loadgen: load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("loadgen loaded %s: %d objects / %d instances, d=%d\n",
                loaded->name.c_str(), loaded->num_objects,
                loaded->num_instances, loaded->dim);
  }

  const double per_worker_interval_s =
      config.target_qps > 0.0
          ? static_cast<double>(config.connections) / config.target_qps
          : 0.0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.duration_s));

  std::vector<WorkerResult> results(
      static_cast<size_t>(config.connections));
  std::vector<std::thread> workers;
  workers.reserve(results.size());
  for (WorkerResult& result : results) {
    workers.emplace_back([&config, deadline, per_worker_interval_s,
                          &result] {
      RunWorker(config, deadline, per_worker_interval_s, &result);
    });
  }
  for (std::thread& t : workers) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  WorkerResult total;
  for (WorkerResult& result : results) {
    total.ok += result.ok;
    total.retry_later += result.retry_later;
    total.errors += result.errors;
    if (total.first_error.empty()) total.first_error = result.first_error;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              result.latencies_ms.begin(),
                              result.latencies_ms.end());
    total.serial_ms.insert(total.serial_ms.end(), result.serial_ms.begin(),
                           result.serial_ms.end());
    total.parallel_ms.insert(total.parallel_ms.end(),
                             result.parallel_ms.begin(),
                             result.parallel_ms.end());
  }
  const std::vector<double> p =
      Percentiles(&total.latencies_ms, {0.50, 0.95, 0.99, 0.999});
  const double qps =
      elapsed_s > 0 ? static_cast<double>(total.ok) / elapsed_s : 0.0;
  std::printf(
      "loadgen: %lld ok, %lld retry-later, %lld errors in %.1fs  |  "
      "%.1f QPS, p50/p95/p99/p99.9 = %.2f/%.2f/%.2f/%.2f ms\n",
      static_cast<long long>(total.ok),
      static_cast<long long>(total.retry_later),
      static_cast<long long>(total.errors), elapsed_s, qps, p[0], p[1], p[2],
      p[3]);
  if (config.threads_per_query >= 2) {
    // Coordinator-side view of the intra-query speedup: both modes ran
    // interleaved on every connection, so the split is load-matched.
    const std::vector<double> ps =
        Percentiles(&total.serial_ms, {0.50, 0.95});
    const std::vector<double> pp =
        Percentiles(&total.parallel_ms, {0.50, 0.95});
    std::printf(
        "loadgen: serial p50/p95 = %.2f/%.2f ms  |  parallel(x%d) "
        "p50/p95 = %.2f/%.2f ms (%zu/%zu samples)\n",
        ps[0], ps[1], config.threads_per_query, pp[0], pp[1],
        total.serial_ms.size(), total.parallel_ms.size());
  }
  if (!config.json_out.empty()) {
    if (!WriteBenchJson(config, &total, elapsed_s, qps, p)) return 1;
    std::printf("loadgen: wrote %s\n", config.json_out.c_str());
  }
  if (total.errors > 0) {
    std::fprintf(stderr, "loadgen: first error: %s\n",
                 total.first_error.c_str());
    return 1;
  }
  return 0;
}
