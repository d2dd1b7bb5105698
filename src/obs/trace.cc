// Copyright 2026 The ARSP Authors.

#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <sstream>

namespace arsp {
namespace obs {

// -------------------------------------------------------------------- Trace

uint64_t Trace::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Trace::NewTraceId() {
  // Seeded once per process; a splitmix-style step per id keeps this cheap
  // and collision-free enough for correlating log lines.
  static std::atomic<uint64_t> state = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  uint64_t z = state.fetch_add(0x9e3779b97f4a7c15ull,
                               std::memory_order_relaxed) +
               0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 1;  // 0 means "no trace" on the wire
}

Trace::Trace(uint64_t trace_id, std::string root_name) : id_(trace_id) {
  root_.name = std::move(root_name);
  root_.start_ns = NowNs();
  open_.push_back(&root_);
}

Trace::~Trace() { Finish(); }

void Trace::Finish() {
  // Close everything still open, innermost first (normally just the root).
  while (!open_.empty()) {
    if (open_.back()->end_ns == 0) open_.back()->end_ns = NowNs();
    open_.pop_back();
  }
}

Span* Trace::OpenChild(const char* name) {
  if (open_.empty()) return nullptr;  // after Finish(): ignore late spans
  Span* parent = open_.back();
  parent->children.emplace_back();
  Span* child = &parent->children.back();
  child->name = name;
  child->start_ns = NowNs();
  open_.push_back(child);
  return child;
}

void Trace::CloseTop(Span* span) {
  if (span == nullptr || open_.empty()) return;
  // Lexical nesting guarantees LIFO closes; tolerate a mismatch (e.g. a
  // span outliving Finish) by only popping when it really is the top.
  if (open_.back() == span) {
    span->end_ns = NowNs();
    open_.pop_back();
  }
}

void Trace::AdoptChild(Span subtree) {
  if (open_.empty()) {
    root_.children.push_back(std::move(subtree));
  } else {
    open_.back()->children.push_back(std::move(subtree));
  }
}

void Trace::Annotate(const std::string& key, std::string value) {
  if (open_.empty()) return;
  open_.back()->annotations.emplace_back(key, std::move(value));
}

// ---------------------------------------------------------------- rendering

namespace {

void RenderSpan(const Span& span, uint64_t base_ns, int depth,
                std::ostringstream* out) {
  // A subtree adopted from another process carries that process's
  // monotonic clock; restart the offset base at each clock domain (detected
  // as a child starting "before" the current base).
  if (span.start_ns < base_ns) base_ns = span.start_ns;
  char line[160];
  std::snprintf(line, sizeof(line), "%*s%-*s %+9.3fms %8.3fms",
                2 * depth, "", std::max(1, 36 - 2 * depth),
                span.name.c_str(),
                static_cast<double>(span.start_ns - base_ns) / 1e6,
                span.DurationMs());
  *out << line;
  for (const auto& [k, v] : span.annotations) {
    *out << "  " << k << "=" << v;
  }
  *out << "\n";
  for (const Span& child : span.children) {
    RenderSpan(child, base_ns, depth + 1, out);
  }
}

}  // namespace

std::string RenderSpanTree(const Span& root, uint64_t trace_id) {
  std::ostringstream out;
  char header[64];
  std::snprintf(header, sizeof(header), "trace %016llx\n",
                static_cast<unsigned long long>(trace_id));
  out << header;
  RenderSpan(root, root.start_ns, 1, &out);
  return out.str();
}

// ------------------------------------------------------------- Chrome trace

TaskEventSink::TaskEventSink()
    : enabled_(std::getenv("ARSP_TRACE_FILE") != nullptr) {}

TaskEventSink& TaskEventSink::Global() {
  static auto* sink = new TaskEventSink();
  return *sink;
}

void TaskEventSink::Record(const Event& event) {
  if (!enabled_) return;
  std::lock_guard lock(mu_);
  events_.push_back(event);
}

std::vector<TaskEventSink::Event> TaskEventSink::Drain() {
  std::lock_guard lock(mu_);
  std::vector<Event> out;
  out.swap(events_);
  return out;
}

namespace {

void EmitChromeSpan(const Span& span, uint64_t trace_id, FILE* f,
                    bool* first) {
  std::fprintf(
      f, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":\"%016llx\"}}",
      *first ? "" : ",\n", span.name.c_str(),
      static_cast<double>(span.start_ns) / 1e3,
      static_cast<double>(span.end_ns - span.start_ns) / 1e3,
      static_cast<unsigned long long>(trace_id));
  *first = false;
  for (const Span& child : span.children) {
    EmitChromeSpan(child, trace_id, f, first);
  }
}

}  // namespace

void MaybeWriteChromeTrace(const Span& root, uint64_t trace_id) {
  const char* path = std::getenv("ARSP_TRACE_FILE");
  if (path == nullptr) return;
  FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot append ARSP_TRACE_FILE %s\n", path);
    return;
  }
  std::fprintf(f, "[");
  bool first = true;
  EmitChromeSpan(root, trace_id, f, &first);
  for (const TaskEventSink::Event& e : TaskEventSink::Global().Drain()) {
    std::fprintf(
        f, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
           "\"ts\":%.3f,\"dur\":%.3f}",
        first ? "" : ",\n", e.stolen ? "task(stolen)" : "task", e.worker + 1,
        static_cast<double>(e.start_ns) / 1e3,
        static_cast<double>(e.end_ns - e.start_ns) / 1e3);
    first = false;
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace obs
}  // namespace arsp
