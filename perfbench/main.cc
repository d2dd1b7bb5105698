// Copyright 2026 The ARSP Authors.
//
// serve_bench — the ARSP serving benchmark program (run it through
// perfbench/run.py, which builds it first):
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--work-dir DIR]
//
// Prints a header, one line per metric (name, value, unit, sample count),
// the answer-check tally, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/serve_bench.h"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunReport;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

// The metrics every untraced run must produce (BENCHMARK.json end_to_end).
const char* const kEndToEnd[] = {"qps",     "p50_ms",           "p90_ms",
                                 "cpu_ms_per_query", "setup_s", "peak_rss_mb"};

bool Has(const RunReport& report, const char* name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return PrintUsage(), 2;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      config.seed = number;
    } else if (flag == "--seconds" && ParseUint(value, &number) &&
               number > 0) {
      config.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      config.trace = number == 1;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value);
      return PrintUsage(), 2;
    }
  }
  if (!have_workload) return PrintUsage(), 2;

  auto report = perfbench::RunWorkload(config);
  if (!report.ok()) {
    std::fprintf(stderr, "serve_bench: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& line : report->header) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%s metrics:\n", config.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : report->metrics) {
    std::printf("  %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const perfbench::Tally& tally = report->tally;
  std::printf(
      "  %-34s %16.6f %-6s %lld retry-later, %lld errors, %lld mismatched of "
      "%lld attempted; %lld replies checked against the serial reference\n",
      "failed_ratio",
      tally.attempted > 0 ? static_cast<double>(tally.failed()) /
                                static_cast<double>(tally.attempted)
                          : 0.0,
      "ratio", static_cast<long long>(tally.retry_later),
      static_cast<long long>(tally.errors),
      static_cast<long long>(tally.mismatched),
      static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.checked));
  if (!tally.first_problem.empty()) {
    std::printf("  first problem: %s\n", tally.first_problem.c_str());
  }
  for (const std::string& note : report->notes) {
    std::printf("%s\n", note.c_str());
  }

  if (tally.attempted == 0) {
    std::fprintf(stderr, "serve_bench: no request was sent\n");
    return 1;
  }
  if (!config.trace) {
    for (const char* name : kEndToEnd) {
      if (!Has(*report, name)) {
        std::fprintf(stderr, "serve_bench: %s could not be measured\n", name);
        return 1;
      }
    }
  }
  std::string json = "{\"correct\": ";
  json += report->correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report->metrics.size(); ++i) {
    const Metric& m = report->metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "serve_bench: %s is not finite\n", m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
