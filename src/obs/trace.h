// Copyright 2026 The ARSP Authors.
//
// Per-request tracing: a Trace carries a 64-bit trace id and a tree of
// Spans (name, monotonic start/end nanoseconds, key=value annotations).
// One Trace is created per QueryRequest when the caller asks for it and
// threaded by pointer through engine → solver → (optionally) TaskArena.
//
// The zero-cost contract: a null Trace* — the default everywhere — makes
// every tracing call a no-op that performs no allocation and no clock
// read, so traced and untraced solves are bit-identical and the disabled
// path stays inside the perf gate. Instrumented code writes
//
//   obs::ScopedSpan span(trace, "solve");     // trace may be nullptr
//   span.Annotate("solver", name);            // no-op when disabled
//
// and never branches on enablement itself.
//
// Spans nest lexically: ScopedSpan opens a child of the innermost open
// span and closes it on destruction, so the open spans always form a
// stack rooted at the trace root. Only the innermost open span can gain
// children, which is what makes raw Span* stable while a span is open
// (closed siblings may move when a children vector grows; open ancestors
// never do).
//
// A Trace is single-threaded by design — one per request, used on the
// thread driving that request. TaskArena worker events go through the
// separate ChromeTraceWriter (ARSP_TRACE_FILE), which is thread-safe.
//
// Cross-process stitching: a Span tree rides in QueryResponseWire as a
// field of the wire codec (src/net/protocol.cc), which bounds how many
// spans and how deep a nesting one reply may carry; the coordinator adopts
// the shard's subtree under its own forward span. Timestamps are
// per-process monotonic clocks, so durations are exact within a process
// and the tree structure is exact across processes, but absolute offsets
// between processes are not comparable.

#ifndef ARSP_OBS_TRACE_H_
#define ARSP_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace arsp {
namespace obs {

/// One timed, named, annotated node in the trace tree.
struct Span {
  std::string name;
  uint64_t start_ns = 0;  // steady_clock, this process
  uint64_t end_ns = 0;    // 0 while open
  std::vector<std::pair<std::string, std::string>> annotations;
  std::vector<Span> children;

  double DurationMs() const {
    return end_ns >= start_ns
               ? static_cast<double>(end_ns - start_ns) / 1e6
               : 0.0;
  }
};

class ScopedSpan;

/// A per-request trace. Construct with NewTraceId() (or a propagated id
/// from an upstream coordinator) to enable; pass nullptr where a Trace*
/// is expected to disable.
class Trace {
 public:
  /// Opens the root span ("request" unless named otherwise).
  explicit Trace(uint64_t trace_id, std::string root_name = "request");
  ~Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  uint64_t id() const { return id_; }

  /// Closes the root span (idempotent). Called automatically by the
  /// destructor; call earlier to stop the clock before rendering.
  void Finish();

  /// The root span; valid after Finish() (or any time for structure).
  const Span& root() const { return root_; }

  /// Adopts `subtree` as a child of the innermost open span — the
  /// coordinator stitching hook for a shard reply's spans.
  void AdoptChild(Span subtree);

  /// Annotates the innermost open span.
  void Annotate(const std::string& key, std::string value);

  /// Random 64-bit nonzero trace id.
  static uint64_t NewTraceId();

  /// Monotonic now in nanoseconds (process-local).
  static uint64_t NowNs();

 private:
  friend class ScopedSpan;

  Span* OpenChild(const char* name);
  void CloseTop(Span* span);

  uint64_t id_;
  Span root_;
  std::vector<Span*> open_;  // stack of open spans, open_[0] == &root_
};

/// RAII child span. All methods are no-ops when constructed with a null
/// trace — the zero-cost disabled mode.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name)
      : trace_(trace),
        span_(trace != nullptr ? trace->OpenChild(name) : nullptr) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->CloseTop(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Annotate(const std::string& key, std::string value) {
    if (span_ != nullptr) span_->annotations.emplace_back(key,
                                                          std::move(value));
  }
  void Annotate(const std::string& key, int64_t value) {
    if (span_ != nullptr) {
      span_->annotations.emplace_back(key, std::to_string(value));
    }
  }

  bool enabled() const { return span_ != nullptr; }

 private:
  Trace* trace_;
  Span* span_;
};

/// Renders the span tree as an indented text timeline:
///   trace 1a2b3c4d5e6f7081
///     request                          12.41ms
///       cache_probe                     0.02ms  hit=false
///       solve                          11.80ms  solver=kdtt+
/// Offsets are relative to the outermost span of each process subtree.
std::string RenderSpanTree(const Span& root, uint64_t trace_id);

/// Appends the span tree (and, if recorded, TaskArena task events) to the
/// Chrome trace_event JSON file named by ARSP_TRACE_FILE. No-op when the
/// env var is unset. Each call writes one JSON array — load the file in
/// chrome://tracing or Perfetto after slicing out one array.
void MaybeWriteChromeTrace(const Span& root, uint64_t trace_id);

/// Thread-safe collector for TaskArena per-task events, active only when
/// ARSP_TRACE_FILE is set (checked once). TaskArena records one complete
/// event per executed task; MaybeWriteChromeTrace drains them into the
/// same file so the flamegraph shows the per-worker lanes under the query
/// spans.
class TaskEventSink {
 public:
  struct Event {
    uint64_t start_ns;
    uint64_t end_ns;
    int worker;
    bool stolen;
  };

  /// The process-global sink; enabled() is false unless ARSP_TRACE_FILE
  /// was set at first use.
  static TaskEventSink& Global();

  bool enabled() const { return enabled_; }
  void Record(const Event& event);
  /// Removes and returns everything recorded so far.
  std::vector<Event> Drain();

 private:
  TaskEventSink();
  bool enabled_;
  std::vector<Event> events_;
  // A plain mutex: the sink is off unless explicitly profiling.
  std::mutex mu_;
};

}  // namespace obs
}  // namespace arsp

#endif  // ARSP_OBS_TRACE_H_
