// Copyright 2026 The ARSP Authors.
//
// CoreBudget + TaskArena: the process-global concurrency ledger
// (try-acquire / release accounting, ARSP_THREADS-independent via the test
// override) and the shared-queue executor (every task runs exactly once,
// worker ids are in range, nested submission, repeated RunAndWait rounds,
// helpers starting at the first Submit and before RunAndWait, what
// tasks_stolen counts, and a serial loop in submission order when the
// budget grants nothing).

#include "src/common/task_arena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <system_error>
#include <thread>
#include <vector>

namespace arsp {
namespace {

// Restores the real budget when a test exits (0 = use env/hardware).
class ScopedBudget {
 public:
  explicit ScopedBudget(int total) {
    internal::SetCoreBudgetTotalForTesting(total);
  }
  ~ScopedBudget() { internal::SetCoreBudgetTotalForTesting(0); }
};

TEST(CoreBudgetTest, TryAcquireNeverOversubscribes) {
  ScopedBudget budget(4);
  const int base = CoreBudget::InUse();
  const int a = CoreBudget::TryAcquire(3);
  EXPECT_EQ(a, 3);
  const int b = CoreBudget::TryAcquire(3);
  EXPECT_EQ(b, 1);  // only one slot left
  const int c = CoreBudget::TryAcquire(3);
  EXPECT_EQ(c, 0);  // exhausted
  CoreBudget::Release(a + b);
  EXPECT_EQ(CoreBudget::InUse(), base);
}

TEST(TaskArenaTest, RunsEveryTaskExactlyOnce) {
  ScopedBudget budget(4);
  TaskArena arena(4);
  ASSERT_GE(arena.num_workers(), 1);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  for (int i = 0; i < kTasks; ++i) {
    arena.Submit([&runs, i, &arena](int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, arena.num_workers());
      runs[i].fetch_add(1);
    });
  }
  arena.RunAndWait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(arena.tasks_spawned(), kTasks);
  EXPECT_LE(arena.tasks_stolen(), arena.tasks_spawned());
}

TEST(TaskArenaTest, NestedSubmissionFromInsideTasks) {
  ScopedBudget budget(4);
  TaskArena arena(4);
  std::atomic<int> leaf_runs{0};
  constexpr int kRoots = 16;
  constexpr int kLeavesPerRoot = 8;
  for (int i = 0; i < kRoots; ++i) {
    arena.Submit([&arena, &leaf_runs](int) {
      for (int j = 0; j < kLeavesPerRoot; ++j) {
        arena.Submit([&leaf_runs](int) { leaf_runs.fetch_add(1); });
      }
    });
  }
  arena.RunAndWait();
  EXPECT_EQ(leaf_runs.load(), kRoots * kLeavesPerRoot);
  EXPECT_EQ(arena.tasks_spawned(), kRoots + kRoots * kLeavesPerRoot);
}

TEST(TaskArenaTest, RepeatedRoundsReuseTheArena) {
  ScopedBudget budget(4);
  TaskArena arena(4);
  std::atomic<int> runs{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      arena.Submit([&runs](int) { runs.fetch_add(1); });
    }
    arena.RunAndWait();
    EXPECT_EQ(runs.load(), (round + 1) * 20);
  }
}

TEST(TaskArenaTest, ExhaustedBudgetDegradesToSerialLoop) {
  // The realistic serial case: another arena (a --batch round's, say) holds
  // every slot, so this one gets no helpers and runs on the caller alone.
  ScopedBudget budget(1);
  const int held = CoreBudget::TryAcquire(1);
  ASSERT_EQ(held, 1);
  TaskArena arena(8);
  EXPECT_EQ(arena.num_workers(), 1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    arena.Submit([&order, i](int worker) {
      EXPECT_EQ(worker, 0);
      order.push_back(i);
    });
  }
  arena.RunAndWait();
  // A single worker is a serial loop in submission order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(arena.tasks_stolen(), 0);
  CoreBudget::Release(held);
}

TEST(TaskArenaTest, HelpersStartBeforeRunAndWait) {
  // The traversal submits its frontier tasks while the caller is still
  // descending; a helper must start on them before the caller joins.
  ScopedBudget budget(2);
  TaskArena arena(2);
  ASSERT_EQ(arena.num_workers(), 2);
  std::atomic<bool> ran{false};
  std::atomic<int> ran_on{-1};
  arena.Submit([&ran, &ran_on](int worker) {
    ran_on.store(worker);
    ran.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load()) << "no helper ran the task before RunAndWait";
  arena.RunAndWait();
  EXPECT_EQ(ran_on.load(), 1);
  EXPECT_EQ(arena.tasks_stolen(), 1);
}

// Threads in this process: the entries of /proc/self/task, or -1 where
// the platform has no such directory.
int ThreadCount() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  if (error) return -1;
  return static_cast<int>(
      std::distance(it, std::filesystem::directory_iterator()));
}

TEST(TaskArenaTest, HelpersStartAtTheFirstSubmit) {
  // A traversal builds its arena before it knows whether the walk reaches
  // the frontier depth; one that never submits must start no thread.
  ScopedBudget budget(4);
  const int before = ThreadCount();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this platform";
  TaskArena arena(4);
  ASSERT_EQ(arena.num_workers(), 4);
  EXPECT_EQ(ThreadCount(), before);
  arena.Submit([](int) {});
  EXPECT_EQ(ThreadCount(), before + 3);
  arena.Submit([](int) {});  // later tasks start no more
  EXPECT_EQ(ThreadCount(), before + 3);
  arena.RunAndWait();
  EXPECT_EQ(arena.tasks_spawned(), 2);
}

TEST(TaskArenaTest, StolenCountsTasksRunByHelpers) {
  ScopedBudget budget(4);
  TaskArena arena(4);
  std::atomic<int64_t> helper_runs{0};
  const auto count = [&helper_runs](int worker) {
    if (worker != 0) helper_runs.fetch_add(1);
  };
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      arena.Submit([&arena, &count](int worker) {
        count(worker);
        arena.Submit(count);  // nested submissions count the same way
      });
    }
    arena.RunAndWait();
    EXPECT_EQ(arena.tasks_stolen(), helper_runs.load()) << round;
  }
  EXPECT_EQ(arena.tasks_spawned(), 300);
}

TEST(TaskArenaTest, ReleasesBudgetOnDestruction) {
  ScopedBudget budget(6);
  const int base = CoreBudget::InUse();
  {
    TaskArena arena(6);
    EXPECT_EQ(CoreBudget::InUse(), base + arena.num_workers() - 1);
  }
  EXPECT_EQ(CoreBudget::InUse(), base);
}

TEST(TaskArenaTest, RequestClampAndGrantShrink) {
  ScopedBudget budget(3);
  // The caller's slot is free; helpers come from the budget. Asking for 100
  // workers grants the whole 3-slot budget as helpers: 4 workers total.
  TaskArena arena(100);
  EXPECT_EQ(arena.num_workers(), 4);
  TaskArena clamped(0);  // < 1 clamps to 1 worker (the caller)
  EXPECT_EQ(clamped.num_workers(), 1);
}

}  // namespace
}  // namespace arsp
