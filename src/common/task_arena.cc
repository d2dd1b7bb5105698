// Copyright 2026 The ARSP Authors.

#include "src/common/task_arena.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/obs/trace.h"

namespace arsp {
namespace {

std::atomic<int> g_in_use{0};
std::atomic<int> g_total_override{0};  // testing hook; 0 = none

int ResolveTotal() {
  if (const char* env = std::getenv("ARSP_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 4096) {
      return static_cast<int>(v);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int CoreBudget::Total() {
  int override_total = g_total_override.load(std::memory_order_relaxed);
  if (override_total > 0) return override_total;
  static const int kTotal = ResolveTotal();
  return kTotal;
}

int CoreBudget::TryAcquire(int max_slots) {
  if (max_slots <= 0) return 0;
  int total = Total();
  int in_use = g_in_use.load(std::memory_order_relaxed);
  while (true) {
    int available = total - in_use;
    if (available <= 0) return 0;
    int want = available < max_slots ? available : max_slots;
    if (g_in_use.compare_exchange_weak(in_use, in_use + want,
                                       std::memory_order_relaxed)) {
      return want;
    }
    // in_use was reloaded by the failed CAS; retry with the fresh value.
  }
}

void CoreBudget::Release(int n) {
  if (n > 0) g_in_use.fetch_sub(n, std::memory_order_relaxed);
}

int CoreBudget::InUse() { return g_in_use.load(std::memory_order_relaxed); }

namespace internal {
void SetCoreBudgetTotalForTesting(int total) {
  g_total_override.store(total, std::memory_order_relaxed);
}
}  // namespace internal

TaskArena::TaskArena(int requested_workers)
    : granted_helpers_(
          CoreBudget::TryAcquire(std::max(requested_workers, 1) - 1)) {}

TaskArena::~TaskArena() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : helpers_) t.join();
  CoreBudget::Release(granted_helpers_);
}

void TaskArena::Submit(Task task) {
  spawned_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (helpers_.empty()) {
      // The first task starts the granted helpers; each waits for mu_
      // until this Submit has queued it.
      for (int i = 0; i < granted_helpers_; ++i) {
        helpers_.emplace_back([this, i] { HelperLoop(i + 1); });
      }
    }
    queue_.push_back(std::move(task));
    ++pending_;
  }
  cv_.notify_one();
}

void TaskArena::RunFront(std::unique_lock<std::mutex>& lock, int worker) {
  Task task = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  const bool stolen = worker != 0;
  if (stolen) stolen_.fetch_add(1, std::memory_order_relaxed);
  // Optional per-task profiling events (ARSP_TRACE_FILE): one Chrome
  // trace_event complete event per executed task, keyed by worker lane.
  // enabled() is a cached bool, so the untraced hot path pays one branch.
  obs::TaskEventSink& sink = obs::TaskEventSink::Global();
  if (sink.enabled()) {
    obs::TaskEventSink::Event event;
    event.worker = worker;
    event.stolen = stolen;
    event.start_ns = obs::Trace::NowNs();
    task(worker);
    event.end_ns = obs::Trace::NowNs();
    sink.Record(event);
  } else {
    task(worker);
  }
  lock.lock();
  if (--pending_ == 0) cv_.notify_all();
}

void TaskArena::HelperLoop(int worker) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and nothing left to run
    RunFront(lock, worker);
  }
}

void TaskArena::RunAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_ > 0) {
    if (queue_.empty()) {
      // Helpers hold the remaining tasks; they may still submit more.
      cv_.wait(lock, [this] { return pending_ == 0 || !queue_.empty(); });
    } else {
      RunFront(lock, 0);
    }
  }
}

}  // namespace arsp
