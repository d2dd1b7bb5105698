// Copyright 2026 The ARSP Authors.
//
// One benchmark run: build the workload from its seed, set the servers up,
// drive the closed loops, check the answers, and report either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).

#ifndef ARSP_PERFBENCH_SERVE_BENCH_H_
#define ARSP_PERFBENCH_SERVE_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/layers.h"
#include "perfbench/workload.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Where files the run writes (the .arsp snapshot) go.
  std::string work_dir = ".";
  /// Decoration / admission for the self-tests; a traced run replaces the
  /// decoration with its own.
  StackOptions stack;
};

struct RunReport {
  std::vector<std::string> header;  ///< seed, shapes, arch, nproc, revision
  /// Untraced: qps, p50_ms, p90_ms, cpu_ms_per_query, setup_s, peak_rss_mb.
  /// Traced: the per-layer metrics. A metric that cannot be measured
  /// (p90_ms on too few samples) is absent and explained in `notes`.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  Tally tally;
  bool correct() const { return tally.mismatched == 0; }
};

/// Runs one workload. Errors are failures of the run itself (a server that
/// does not start, a warm-up reply that differs from the reference);
/// failures of timed requests are counted in the report's tally.
arsp::StatusOr<RunReport> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // ARSP_PERFBENCH_SERVE_BENCH_H_
