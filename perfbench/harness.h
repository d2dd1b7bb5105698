// Copyright 2026 The ARSP Authors.
//
// The serving harness: an in-process server stack on ephemeral loopback
// ports (one ArspServer, or a Coordinator server over two shard servers
// reached through RemoteShard), set-up timing, closed-loop ArspClient
// windows, and the answer check that feeds failed_ratio.

#ifndef ARSP_PERFBENCH_HARNESS_H_
#define ARSP_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workload.h"
#include "src/common/status.h"
#include "src/net/backend.h"
#include "src/net/server.h"

namespace perfbench {

/// Decorates a backend the stack is about to install. `role` is "front"
/// (what the client-facing server dispatches to), "leg" (a RemoteShard) or
/// "engine" (an EngineBackend). Used by the traced run and the self-tests.
using BackendWrap = std::function<std::shared_ptr<arsp::net::ServiceBackend>(
    std::shared_ptr<arsp::net::ServiceBackend> inner, const char* role)>;

struct StackOptions {
  BackendWrap wrap;  ///< null = install the backends undecorated
  /// Admission gate on the client-facing server; null admits everything.
  std::shared_ptr<arsp::net::QueryGate> gate;
};

/// The servers of one workload. Destruction drains them front first.
class ServingStack {
 public:
  static arsp::StatusOr<std::unique_ptr<ServingStack>> Start(
      const Workload& workload, const StackOptions& options);

  int port() const { return front_->port(); }

 private:
  ServingStack() = default;
  // Declared before front_ so they are destroyed after it: the coordinator
  // behind front_ holds connections to them.
  std::vector<std::unique_ptr<arsp::net::ArspServer>> shards_;
  std::unique_ptr<arsp::net::ArspServer> front_;
};

/// Builds a stack, loads the dataset and sends the warm-up requests on one
/// connection. Returns the seconds from server construction to the last
/// warm-up reply, each reply checked against `reference` (expected answers
/// are computed before the clock starts). Warm-up request i carries trace
/// id trace_base + i when trace_base is nonzero.
arsp::StatusOr<double> SetUp(const Workload& workload, Reference& reference,
                             const StackOptions& options, uint64_t trace_base,
                             std::unique_ptr<ServingStack>* stack);

enum class Outcome : uint8_t { kOk, kRetryLater, kError };

struct Reply {
  uint64_t index = 0;  ///< stream index of the request
  double latency_ms = 0.0;  ///< ArspClient::Query call to decoded reply
  Outcome outcome = Outcome::kError;
  bool checked = false;  ///< answer taken for the check
  Answer answer;
};

/// One closed-loop window.
struct Window {
  std::vector<Reply> replies;
  /// The sampled replies, kept whole (stream index, reply).
  std::vector<std::pair<uint64_t, arsp::net::QueryResponseWire>> kept;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;  ///< user + system CPU of this process in the window
  std::string first_error;

  int64_t ok() const;
  std::vector<double> OkLatencies() const;
};

/// Runs workload.connections closed loops against `port` for `seconds`:
/// connection c sends stream indices first + c, first + c + C, ... and
/// waits for each reply. A window that ends with fewer than `min_ok` OK
/// replies goes on until it has them, for at most 2 * seconds in all. With
/// stamp_trace_ids, request i carries trace id i + 1 so decorators can
/// attribute their timings to it.
Window RunClosedLoop(int port, const Workload& workload, uint64_t first_index,
                     double seconds, int64_t min_ok, bool stamp_trace_ids);

/// Reply counts across windows; failed() feeds failed_ratio.
struct Tally {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t retry_later = 0;
  int64_t errors = 0;  ///< transport errors and ERROR replies
  int64_t checked = 0;
  int64_t mismatched = 0;  ///< checked replies differing from the reference
  std::string first_problem;

  int64_t failed() const { return retry_later + errors + mismatched; }
  /// Counts `window` and checks its digested replies against `reference`.
  /// A non-OK status means the reference itself failed.
  arsp::Status Add(const Workload& workload, Reference& reference,
                   const Window& window);
};

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> samples);

/// The fewest samples for which percentile q has ten samples beyond it.
size_t MinSamplesFor(double q);

/// Nearest-rank percentile q, refused (FailedPrecondition) unless the
/// sample has at least MinSamplesFor(q) values.
arsp::StatusOr<double> TailPercentile(std::vector<double> samples, double q);

/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // ARSP_PERFBENCH_HARNESS_H_
