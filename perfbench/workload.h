// Copyright 2026 The ARSP Authors.
//
// The serving benchmark's workloads: for each named workload, the seeded
// inputs a server receives (dataset bytes or a snapshot path, the warm-up
// requests, the timed request stream) and the in-process serial reference
// every reply is checked against. The datasets come from the generators at
// one fixed generator seed (see kDataSeed in workload.cc); the run seed
// drives the weight-ratio streams and the sample of replies that is
// checked, so equal seeds give byte-identical inputs.

#ifndef ARSP_PERFBENCH_WORKLOAD_H_
#define ARSP_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/net/protocol.h"

namespace perfbench {

/// kFull is the benchmark; kTiny runs every workload through the same code
/// on datasets small enough for the self-tests.
enum class Scale { kFull, kTiny };

/// The four workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// A file the benchmark wrote; removed when its owner is destroyed.
class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {}
  ~ScratchFile();
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// One line each: the dataset and the request shape.
  std::string data_line;
  std::string request_line;
  /// Closed-loop client connections.
  int connections = 2;
  /// True for the coordinator-over-two-shards topology.
  bool cluster = false;
  /// Set-ups per untraced run; setup_s is their median.
  int setups = 5;

  /// What the server is sent to register the dataset: inline CSV text, or
  /// the path of `snapshot`.
  arsp::net::LoadDatasetRequest load;
  /// The .arsp file (snapshot workload only).
  std::shared_ptr<ScratchFile> snapshot;
  int num_objects = 0;
  int num_instances = 0;
  int dim = 0;
  /// Bytes the server reads to load the dataset (CSV text or .arsp file).
  int64_t input_bytes = 0;

  /// Requests whose correct replies end set-up (sent in order on one
  /// connection).
  std::vector<arsp::net::QueryRequestWire> warmup;
  /// The timed stream. Without fresh ratios, request i is presets[i mod
  /// size]; with them, presets[0] carrying a weight-ratio spec drawn from
  /// (seed, i) — a constraint no other index of the run repeats.
  std::vector<arsp::net::QueryRequestWire> presets;
  bool fresh_ratios = false;
  arsp::net::QueryRequestWire Request(uint64_t index) const;

  /// Check every reply (true) or only the seeded sample (false).
  bool check_all = false;
  /// True when the warm-up caches each constraint's full answer before any
  /// derived request for it: the server then answers derived goals by
  /// slicing that complete result, so the reference slices a full serial
  /// solve too instead of pushing the goal down.
  bool derived_from_cached_full = false;
  /// Seeded offsets from a window's first stream index: these replies are
  /// always checked, and kept for the per-layer size and codec timings.
  std::vector<uint64_t> sample;
};

/// Builds the named workload from `seed`. The snapshot workload writes its
/// .arsp file into `work_dir` (removed with the workload).
arsp::StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                      Scale scale,
                                      const std::string& work_dir);

/// Renders a dataset as the CSV text ParseUncertainDatasetCsv reads, every
/// double printed so that it parses back to the same bits. Object j is
/// named names[j] when given, else "obj-j".
std::string RenderCsv(const arsp::UncertainDataset& dataset,
                      const std::vector<std::string>* names);

/// The answer fields a reply must reproduce: a 64-bit FNV-1a digest of the
/// ranked (id, probability) list and the instance probabilities, bit for
/// bit, and result_size.
struct Answer {
  uint64_t digest = 0;
  int32_t result_size = -1;
};
Answer AnswerOf(const arsp::net::QueryResponseWire& reply);

/// True when `reply` reproduces `expected`. result_size must be equal too,
/// except that a reply to a derived goal (top-k, threshold, count) may
/// carry -1: it was answered from goal-pruned partial results, which have
/// no count. A coordinator merging scoped partials reports -1 where one
/// engine whose pushdown solve happened to resolve every instance reports
/// the full count.
bool Matches(const Answer& expected, const Answer& reply,
             const arsp::net::QueryRequestWire& request);

/// The in-process reference: one ArspEngine over the dataset parsed from
/// the same bytes the server got. Not thread-safe.
class Reference {
 public:
  static arsp::StatusOr<std::unique_ptr<Reference>> Create(
      const Workload& workload);

  /// The serial answer to `request` (parallelism 1, no result cache, a
  /// private context); memoized per distinct request.
  arsp::StatusOr<Answer> Expected(const arsp::net::QueryRequestWire& request);

  /// `request` solved as the server solves it (result cache, context pool
  /// and parallelism policy as the request asks) — the in-process engine
  /// time the per-layer report compares with the server's backend time.
  arsp::StatusOr<arsp::QueryResponse> SolveLikeServer(
      const arsp::net::QueryRequestWire& request);

  const std::shared_ptr<const arsp::UncertainDataset>& dataset() const {
    return dataset_;
  }

 private:
  Reference() = default;
  arsp::StatusOr<arsp::QueryRequest> ToEngineRequest(
      const arsp::net::QueryRequestWire& request) const;

  arsp::ArspEngine engine_;
  arsp::DatasetHandle handle_;
  std::shared_ptr<const arsp::UncertainDataset> dataset_;
  bool derived_from_cached_full_ = false;
  std::map<std::string, Answer> expected_;
};

}  // namespace perfbench

#endif  // ARSP_PERFBENCH_WORKLOAD_H_
