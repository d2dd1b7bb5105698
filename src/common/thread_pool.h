// Copyright 2026 The ARSP Authors.
//
// A fixed-size worker pool with a FIFO task queue. arsp_cli runs an
// in-process --batch round's queries on one, the cluster Coordinator fans
// LOAD / ADD_VIEW / STATS / DROP out to its shards on another, and tests
// drive concurrent ArspEngine::Solve calls from one.

#ifndef ARSP_COMMON_THREAD_POOL_H_
#define ARSP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arsp {

/// Fixed pool of worker threads draining a FIFO queue of tasks. Tasks must
/// not throw; completion signalling (latches, futures) is the submitter's
/// responsibility. The destructor drains already-queued tasks, then joins.
/// Pool threads are charged against the process-global CoreBudget
/// (src/common/task_arena.h) for their lifetime, so intra-query TaskArenas
/// never oversubscribe on top of the pool's own parallelism.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  /// The worker count to use when the caller wants "one per core":
  /// std::thread::hardware_concurrency(), except that the standard allows
  /// it to return 0 when the platform cannot tell — then this falls back to
  /// kFallbackConcurrency instead of silently creating a 0 → 1-thread pool.
  static int DefaultConcurrency();

  /// Fallback worker count when hardware concurrency is unknown (≥ 1).
  static constexpr int kFallbackConcurrency = 2;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker thread.
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace arsp

#endif  // ARSP_COMMON_THREAD_POOL_H_
