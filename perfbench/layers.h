// Copyright 2026 The ARSP Authors.
//
// The traced run's per-layer measurements, all taken from benchmark code
// around public calls — the program itself carries no extra spans:
//
//   * LayerLog's decorators time ServiceBackend::Query on the server's
//     backend ("front"), on each RemoteShard ("leg") and on each
//     EngineBackend ("engine"), keyed by the trace id the client stamps;
//     the replies they pass through give the solver counters;
//   * direct timed calls into ArspEngine::Solve, registry solvers on an
//     ExecutionContext, ScoreMapper::MapView, KdTree::FromView,
//     RTree::BulkLoadFromView, LoadSnapshot, ParseUncertainDatasetCsv and
//     the simd::Ops() kernels, over the workload's own data.

#ifndef ARSP_PERFBENCH_LAYERS_H_
#define ARSP_PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workload.h"
#include "src/net/protocol.h"

namespace perfbench {

/// One decorated Query call.
struct LayerRecord {
  std::string role;
  uint64_t trace_id = 0;
  double ms = 0.0;
  bool ok = false;
  bool cache_hit = false;
  arsp::net::WireSolverStats stats;
};

/// Collects LayerRecords from the decorators it hands out. Recording can be
/// switched off (the decorators then only forward), so one server stack
/// serves both the untraced and the traced window of a traced run. Must
/// outlive every stack built with its wrap.
class LayerLog {
 public:
  /// Decorators that time Query into this log.
  BackendWrap Wrap();

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Add(LayerRecord record);
  std::vector<LayerRecord> Records() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<LayerRecord> records_;  // guarded by mu_
};

/// A named measurement with its unit; `note` says what it was taken over.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// First stream index of the traced window (its trace ids are index + 1),
/// far from the untraced window's indices so fresh-constraint streams never
/// repeat a request of that window.
inline constexpr uint64_t kTracedFirstIndex = uint64_t{1} << 32;
/// Trace ids of the warm-up requests.
inline constexpr uint64_t kWarmupTraceBase = uint64_t{1} << 48;

/// Computes the per-layer metrics of a traced run from the decorator
/// records, the traced window, and direct timed calls. Appends extra text
/// lines (solver mix, the cluster layer's figures) to `notes`.
arsp::StatusOr<std::vector<Metric>> MeasureLayers(
    const Workload& workload, Reference& reference, const Window& traced,
    const std::vector<LayerRecord>& records, const std::string& work_dir,
    std::vector<std::string>* notes);

}  // namespace perfbench

#endif  // ARSP_PERFBENCH_LAYERS_H_
