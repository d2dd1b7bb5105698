// Copyright 2026 The ARSP Authors.
//
// Parallel execution primitives:
//
//  * CoreBudget — one process-global ledger of helper threads. The total is
//    ARSP_THREADS when set, else the hardware concurrency. Every TaskArena
//    *tries* to acquire its helpers from what is left and gets possibly
//    none, so arenas running inside other arenas' tasks (arsp_cli's
//    in-process --batch round runs each query as a task, and each query's
//    traversal opens its own arena) can never fan out more threads than
//    the budget. A starved arena runs on its calling thread alone, which by
//    the determinism contract changes nothing but wall time.
//
//  * TaskArena — one mutex-guarded FIFO queue. The calling thread is
//    worker 0 during RunAndWait(); the helpers the budget granted start
//    with the first Submit and take tasks from the same queue as soon as
//    they are submitted, so an arena that never gets a task starts no
//    thread (it holds its budget slots until it is destroyed all the
//    same). The tasks are few and coarse (one per traversal subtree at
//    the frontier depth, 4–32 per solve), so one queue balances them as
//    well as per-worker deques would. A TaskArena granted no helpers is a
//    serial loop over the submitted tasks in submission order — the
//    degenerate case the bit-identity contract leans on.
//
// Tasks must not throw. Submit may be called from the owner thread (before
// or between RunAndWait rounds) or from inside a running task; RunAndWait
// may be called repeatedly.

#ifndef ARSP_COMMON_TASK_ARENA_H_
#define ARSP_COMMON_TASK_ARENA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arsp {

/// Process-global concurrency budget (see file comment). All methods are
/// thread-safe; the total is resolved once from ARSP_THREADS / hardware
/// concurrency and cached.
class CoreBudget {
 public:
  /// Total concurrent threads the process should run: max(1, ARSP_THREADS)
  /// when the env var is set and parses, else hardware concurrency (1 when
  /// the platform cannot tell).
  static int Total();

  /// Grants up to `max_slots` of the remaining budget (possibly 0) and
  /// records them in use. Never oversubscribes past Total().
  static int TryAcquire(int max_slots);

  /// Returns `n` previously TryAcquire()d slots.
  static void Release(int n);

  /// Slots currently in use (diagnostic).
  static int InUse();
};

namespace internal {
/// Test hook: overrides Total() (0 restores the env/hardware value).
void SetCoreBudgetTotalForTesting(int total);
}  // namespace internal

/// Shared-queue task executor (see file comment).
class TaskArena {
 public:
  /// A task; the argument is the running worker's id in
  /// [0, num_workers()) — workers use it to index per-worker state.
  using Task = std::function<void(int)>;

  /// Asks the CoreBudget for `requested_workers - 1` helper threads (the
  /// caller is the remaining worker); the grant may be smaller, down to
  /// zero helpers. `requested_workers` < 1 is clamped to 1. The granted
  /// helpers start with the first Submit.
  explicit TaskArena(int requested_workers);
  ~TaskArena();

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// Helpers granted + the calling thread, started or not.
  int num_workers() const { return granted_helpers_ + 1; }

  /// Appends one task to the queue; an idle helper starts on it at once.
  /// The first call starts the granted helpers.
  void Submit(Task task);

  /// Runs until every submitted task has completed; the calling thread
  /// takes tasks from the queue as worker 0. May be called repeatedly.
  void RunAndWait();

  /// Tasks ever submitted / tasks a helper ran rather than the calling
  /// thread (cumulative; stolen ≤ spawned, and 0 without helpers).
  int64_t tasks_spawned() const {
    return spawned_.load(std::memory_order_relaxed);
  }
  int64_t tasks_stolen() const {
    return stolen_.load(std::memory_order_relaxed);
  }

 private:
  /// Pops the oldest task, runs it as `worker` with `lock` released, then
  /// retakes the lock and counts it done.
  void RunFront(std::unique_lock<std::mutex>& lock, int worker);
  void HelperLoop(int worker);

  std::mutex mu_;
  // Signals "a task was queued" (to helpers and to a waiting RunAndWait)
  // and "every task is done" (to RunAndWait).
  std::condition_variable cv_;
  std::deque<Task> queue_;  // guarded by mu_
  int64_t pending_ = 0;     // guarded by mu_: submitted − completed
  bool stop_ = false;       // guarded by mu_
  std::atomic<int64_t> spawned_{0};
  std::atomic<int64_t> stolen_{0};
  const int granted_helpers_;  // CoreBudget slots held until destruction
  // Declared after everything the helpers use; guarded by mu_ (the first
  // Submit fills it), and the destructor joins them.
  std::vector<std::thread> helpers_;
};

}  // namespace arsp

#endif  // ARSP_COMMON_TASK_ARENA_H_
