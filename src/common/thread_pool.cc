// Copyright 2026 The ARSP Authors.

#include "src/common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "src/common/task_arena.h"

namespace arsp {

int ThreadPool::DefaultConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? kFallbackConcurrency : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  // Pool sizes are explicit caller decisions, so this reserves
  // unconditionally; intra-query TaskArenas only take what remains, which
  // keeps pool × intra-query parallelism within one core budget.
  CoreBudget::Reserve(count);
  threads_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  CoreBudget::Release(num_threads());
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace arsp
