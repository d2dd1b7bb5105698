// Copyright 2026 The ARSP Authors.
//
// The traversal driver keeps every per-node buffer (corners, kept
// candidates, child ranges, quadrant centre) in per-depth scratch and the
// undo log in one stack per worker, all reused across nodes, so a solve
// allocates O(depth) times, not O(nodes). This binary replaces the global
// operator new with a counting one and holds one serial solve of each
// traversal solver to fewer than nodes_visited / 4 heap allocations, on an
// input where each visits at least 5,000 nodes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/solver.h"
#include "src/uncertain/generators.h"
#include "tests/test_util.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array and nothrow forms forward to these in the standard library.
void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace arsp {
namespace {

TEST(TraversalAllocTest, SerialSolveAllocatesFarLessThanOncePerNode) {
  const UncertainDataset dataset = GenerateNbaLike(60, 4, 1003);
  const PreferenceRegion region = testing_util::WrRegion(4, 3);
  for (const char* name : {"kdtt", "kdtt+", "qdtt+", "mwtt"}) {
    SCOPED_TRACE(name);
    ExecutionContext context(dataset, region);
    context.scores();  // the score mapping is context setup, not the solve
    auto solver = SolverRegistry::Create(name);
    ASSERT_TRUE(solver.ok());
    const int64_t before = g_allocations.load();
    StatusOr<ArspResult> result = (*solver)->Solve(context);
    const int64_t allocations = g_allocations.load() - before;
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(result->nodes_visited, 5000);
    EXPECT_LT(allocations, result->nodes_visited / 4)
        << "nodes_visited=" << result->nodes_visited;
  }
}

}  // namespace
}  // namespace arsp
