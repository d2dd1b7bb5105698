// Copyright 2026 The ARSP Authors.

#include "perfbench/serve_bench.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "src/common/mem.h"
#include "src/simd/kernels.h"

namespace perfbench {

using arsp::StatusOr;

namespace {

std::string Format(const char* format, ...) __attribute__((format(printf, 1, 2)));

std::string Format(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

void AddHeader(const RunConfig& config, const Workload& w, RunReport* report) {
  const char* revision = std::getenv("ARSP_GIT_REV");
  report->header = {
      Format("serve_bench %s | seed %llu | %.6g s window | %s run",
             w.name.c_str(), static_cast<unsigned long long>(config.seed),
             config.seconds, config.trace ? "traced" : "untraced"),
      Format("revision %s | simd %s | nproc %u",
             revision != nullptr && *revision != '\0' ? revision : "unknown",
             arsp::simd::ActiveArchName(),
             std::thread::hardware_concurrency()),
      Format("data: %s: %d objects, %d instances, d=%d, %.3f MB sent",
             w.data_line.c_str(), w.num_objects, w.num_instances, w.dim,
             static_cast<double>(w.input_bytes) / (1 << 20)),
      Format("requests: %s; closed loops", w.request_line.c_str()),
      "the servers run inside this process: cpu_ms_per_query and "
      "peak_rss_mb include the ArspClient side and the in-process "
      "reference engine"};
}

StatusOr<RunReport> RunUntraced(const RunConfig& config, const Workload& w,
                                Reference& reference, RunReport report) {
  std::vector<double> setups;
  std::unique_ptr<ServingStack> stack;
  for (int r = 0; r < w.setups; ++r) {
    stack.reset();
    auto seconds = SetUp(w, reference, config.stack, 0, &stack);
    if (!seconds.ok()) return seconds.status();
    setups.push_back(*seconds);
  }
  const Window window =
      RunClosedLoop(stack->port(), w, 0, config.seconds,
                    static_cast<int64_t>(MinSamplesFor(0.9)), false);
  stack.reset();
  ARSP_RETURN_IF_ERROR(report.tally.Add(w, reference, window));

  const int64_t ok = window.ok();
  const std::vector<double> latencies = window.OkLatencies();
  const std::string samples = Format("n=%lld OK replies",
                                     static_cast<long long>(ok));
  report.metrics.push_back(
      {"qps", static_cast<double>(ok) / window.elapsed_s, "req/s",
       Format("%s in %.3f s", samples.c_str(), window.elapsed_s)});
  report.metrics.push_back({"p50_ms", Median(latencies), "ms", samples});
  const auto p90 = TailPercentile(latencies, 0.9);
  if (p90.ok()) {
    // Nearest rank: index round(0.9 (n - 1)); the rest lie beyond it.
    const size_t n = latencies.size();
    const size_t beyond =
        n - 1 - static_cast<size_t>(std::llround(0.9 * static_cast<double>(n - 1)));
    report.metrics.push_back(
        {"p90_ms", *p90, "ms",
         Format("%s, %zu beyond", samples.c_str(), beyond)});
  } else {
    report.notes.push_back("p90_ms refused: " + p90.status().message());
  }
  if (ok > 0) {
    report.metrics.push_back(
        {"cpu_ms_per_query", window.cpu_s * 1e3 / static_cast<double>(ok),
         "ms", Format("%.3f CPU s over the window", window.cpu_s)});
  }
  report.metrics.push_back(
      {"setup_s", Median(setups), "s",
       Format("median of %zu set-ups", setups.size())});
  report.metrics.push_back(
      {"peak_rss_mb",
       static_cast<double>(arsp::PeakRssBytes()) / (1 << 20), "MB",
       "process peak after the run"});
  return report;
}

StatusOr<RunReport> RunTraced(const RunConfig& config, const Workload& w,
                              Reference& reference, RunReport report) {
  LayerLog log;
  StackOptions options = config.stack;
  options.wrap = log.Wrap();
  std::unique_ptr<ServingStack> stack;
  log.set_enabled(true);
  auto setup = SetUp(w, reference, options, kWarmupTraceBase, &stack);
  if (!setup.ok()) return setup.status();
  // Half the window untraced, half traced, on the same servers: the
  // difference is the tracing overhead.
  log.set_enabled(false);
  const Window plain =
      RunClosedLoop(stack->port(), w, 0, config.seconds / 2, 0, false);
  log.set_enabled(true);
  const Window traced = RunClosedLoop(stack->port(), w, kTracedFirstIndex,
                                      config.seconds / 2, 0, true);
  log.set_enabled(false);
  stack.reset();
  ARSP_RETURN_IF_ERROR(report.tally.Add(w, reference, plain));
  ARSP_RETURN_IF_ERROR(report.tally.Add(w, reference, traced));

  auto layers = MeasureLayers(w, reference, traced, log.Records(),
                              config.work_dir, &report.notes);
  if (!layers.ok()) return layers.status();
  report.metrics = std::move(*layers);
  const double plain_qps =
      static_cast<double>(plain.ok()) / plain.elapsed_s;
  const double traced_qps =
      static_cast<double>(traced.ok()) / traced.elapsed_s;
  const double plain_p50 = Median(plain.OkLatencies());
  const double traced_p50 = Median(traced.OkLatencies());
  report.notes.push_back(Format(
      "  tracing overhead: p50 %.4f ms untraced vs %.4f ms traced (%+.1f%%), "
      "qps %.3f vs %.3f (%+.1f%%); each over half the window",
      plain_p50, traced_p50,
      plain_p50 > 0 ? 100.0 * (traced_p50 / plain_p50 - 1.0) : 0.0,
      plain_qps, traced_qps,
      plain_qps > 0 ? 100.0 * (traced_qps / plain_qps - 1.0) : 0.0));
  return report;
}

}  // namespace

StatusOr<RunReport> RunWorkload(const RunConfig& config) {
  auto workload = MakeWorkload(config.workload, config.seed, config.scale,
                               config.work_dir);
  if (!workload.ok()) return workload.status();
  auto reference = Reference::Create(*workload);
  if (!reference.ok()) return reference.status();
  RunReport report;
  AddHeader(config, *workload, &report);
  return config.trace
             ? RunTraced(config, *workload, **reference, std::move(report))
             : RunUntraced(config, *workload, **reference, std::move(report));
}

}  // namespace perfbench
