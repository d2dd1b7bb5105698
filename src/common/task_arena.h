// Copyright 2026 The ARSP Authors.
//
// Intra-query parallel execution primitives:
//
//  * CoreBudget — one process-global concurrency ledger shared by every
//    ThreadPool (inter-query parallelism, e.g. arsp_cli running an
//    in-process --batch round's queries at once: one thread per in-flight
//    query) and TaskArena (intra-query parallelism: several workers inside
//    one query). The total is ARSP_THREADS when set, else the hardware
//    concurrency.
//    ThreadPool *reserves* unconditionally (its size is an explicit caller
//    decision and existing behavior must not shrink); TaskArena only
//    *tries* to acquire what is left, so a full pool of in-flight queries
//    can never fan out pool_size × workers-per-query OS threads — parallel
//    queries inside a saturated pool degrade gracefully to serial, which by
//    the determinism contract changes nothing but wall time.
//
//  * TaskArena — a work-stealing task scheduler: per-worker deques, owner
//    pushes/pops at the back, idle workers steal half a victim's deque from
//    the front (steal-half amortizes steal traffic on irregular subtree
//    sizes). The constructing thread participates as worker 0 during
//    RunAndWait(), so a TaskArena granted zero extra workers is simply a
//    serial loop over the submitted tasks in submission order — the
//    degenerate case the bit-identity contract leans on.
//
// Tasks must not throw. Submit is intended from the owner thread (between
// RunAndWait rounds) or from inside a running task; RunAndWait may be
// called repeatedly (B&B submits one round per heap batch).

#ifndef ARSP_COMMON_TASK_ARENA_H_
#define ARSP_COMMON_TASK_ARENA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
  /// when the env var is set and parses, else hardware concurrency (with
  /// the same ≥1 fallback ThreadPool::DefaultConcurrency applies).
  static int Total();

  /// Unconditionally records `n` slots as in use (ThreadPool: explicit pool
  /// sizes are honored even when they overshoot the budget — the budget
  /// then simply denies intra-query workers).
  static void Reserve(int n);

  /// Grants up to `max_slots` of the remaining budget (possibly 0) and
  /// records them in use. Never oversubscribes past Total().
  static int TryAcquire(int max_slots);

  /// Returns `n` previously Reserve()d / TryAcquire()d slots.
  static void Release(int n);

  /// Slots currently in use (diagnostic).
  static int InUse();
};

namespace internal {
/// Test hook: overrides Total() (0 restores the env/hardware value).
void SetCoreBudgetTotalForTesting(int total);
}  // namespace internal

/// Work-stealing task scheduler (see file comment).
class TaskArena {
 public:
  /// A task; the argument is the running worker's id in
  /// [0, num_workers()) — workers use it to index per-worker state.
  using Task = std::function<void(int)>;

  /// Asks the CoreBudget for `requested_workers - 1` helper threads (the
  /// caller is the remaining worker); the grant may be smaller, down to
  /// zero helpers. `requested_workers` < 1 is clamped to 1.
  explicit TaskArena(int requested_workers);
  ~TaskArena();

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// Helpers granted + the calling thread.
  int num_workers() const { return static_cast<int>(queues_.size()); }

  /// Enqueues one task. Tasks submitted from the owner thread are dealt
  /// round-robin across worker deques (seeding the steal-half balancing);
  /// tasks submitted from inside a task land on the submitting worker's
  /// own deque.
  void Submit(Task task);

  /// Runs until every submitted task has completed; the calling thread
  /// participates as worker 0. May be called repeatedly.
  void RunAndWait();

  /// Tasks ever submitted / tasks claimed by a worker other than the one
  /// whose deque held them (cumulative; stolen ≤ spawned).
  int64_t tasks_spawned() const {
    return spawned_.load(std::memory_order_relaxed);
  }
  int64_t tasks_stolen() const {
    return stolen_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /// Claims and runs one task as `worker` (own deque first, then
  /// steal-half). Returns false when every deque was empty.
  bool RunOneTask(int worker);
  void HelperLoop(int worker);
  void FinishTask();

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> helpers_;
  int granted_helpers_ = 0;

  std::mutex mu_;                 // guards cv waits (counters are atomic)
  std::condition_variable cv_;    // "work available" and "all done"
  std::atomic<int64_t> queued_{0};   // tasks sitting in some deque
  std::atomic<int64_t> pending_{0};  // submitted − completed
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> spawned_{0};
  std::atomic<int64_t> stolen_{0};
  // Round-robin dealing cursor. Atomic because tasks may Submit subtasks
  // from worker threads concurrently with the owner; which deque a task
  // lands in never affects results (the merge is canonical-order).
  std::atomic<uint32_t> submit_cursor_{0};
};

}  // namespace arsp

#endif  // ARSP_COMMON_TASK_ARENA_H_
