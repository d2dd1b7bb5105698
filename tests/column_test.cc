// Copyright 2026 The ARSP Authors.
//
// Column<T> — the owned-vs-borrowed storage seam under every hot array in
// the out-of-core data plane (src/common/column.h). These tests pin the
// contracts the snapshot loader leans on: borrowed columns alias their
// backing without owning it, mutation of borrowed storage dies rather than
// silently copying, copies of owned columns are deep, and ColumnBytes
// splits the footprint by storage class.

#include "src/common/column.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/aligned.h"
#include "src/common/macros.h"

namespace arsp {
namespace {

AlignedVector<double> Doubles(std::initializer_list<double> values) {
  AlignedVector<double> v;
  v.assign(values.begin(), values.end());
  return v;
}

TEST(ColumnOwned, DefaultIsEmptyAndOwned) {
  Column<double> column;
  EXPECT_FALSE(column.borrowed());
  EXPECT_TRUE(column.empty());
  EXPECT_EQ(column.size(), 0u);
  EXPECT_EQ(column.bytes(), 0u);
}

TEST(ColumnOwned, WrapsVectorAndMutates) {
  Column<double> column(Doubles({1.0, 2.0, 3.0}));
  EXPECT_FALSE(column.borrowed());
  EXPECT_EQ(column.size(), 3u);
  EXPECT_EQ(column.bytes(), 3 * sizeof(double));
  EXPECT_DOUBLE_EQ(column[1], 2.0);

  column.push_back(4.0);
  column.at_mut(0) = -1.0;
  EXPECT_EQ(column.size(), 4u);
  EXPECT_DOUBLE_EQ(column[0], -1.0);
  EXPECT_DOUBLE_EQ(column[3], 4.0);

  column.resize(2);
  EXPECT_EQ(column.size(), 2u);
  column.clear();
  EXPECT_TRUE(column.empty());
}

TEST(ColumnOwned, SyncAfterDirectVectorSurgery) {
  Column<int32_t> column;
  column.mutable_vec().assign({7, 8, 9});
  // Before sync() the cached view is stale; after, it tracks the vector.
  column.sync();
  EXPECT_EQ(column.size(), 3u);
  EXPECT_EQ(column[2], 9);
  EXPECT_EQ(column.data(), column.mutable_vec().data());
}

TEST(ColumnOwned, CopyIsDeep) {
  Column<double> original(Doubles({1.0, 2.0}));
  Column<double> copy(original);
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_NE(copy.data(), original.data());

  copy.at_mut(0) = 99.0;
  EXPECT_DOUBLE_EQ(original[0], 1.0);
  EXPECT_DOUBLE_EQ(copy[0], 99.0);
}

TEST(ColumnOwned, MoveTransfersAndEmptiesSource) {
  Column<double> source(Doubles({5.0, 6.0}));
  Column<double> target(std::move(source));
  ASSERT_EQ(target.size(), 2u);
  EXPECT_DOUBLE_EQ(target[1], 6.0);
  EXPECT_FALSE(target.borrowed());
  EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.data(), nullptr);
}

TEST(ColumnBorrowed, AliasesBackingWithoutOwning) {
  const double backing[4] = {1.5, 2.5, 3.5, 4.5};
  auto column = Column<double>::Borrowed(backing, 4);
  EXPECT_TRUE(column.borrowed());
  EXPECT_EQ(column.size(), 4u);
  EXPECT_EQ(column.data(), backing);  // zero copy: same address
  EXPECT_DOUBLE_EQ(column[3], 4.5);
}

TEST(ColumnBorrowed, CopyAndMoveStayBorrowed) {
  const int32_t backing[3] = {10, 20, 30};
  auto column = Column<int32_t>::Borrowed(backing, 3);

  Column<int32_t> copy(column);
  EXPECT_TRUE(copy.borrowed());
  EXPECT_EQ(copy.data(), backing);  // copies alias, they don't materialize

  Column<int32_t> moved(std::move(copy));
  EXPECT_TRUE(moved.borrowed());
  EXPECT_EQ(moved.data(), backing);
  EXPECT_EQ(moved.size(), 3u);
}

TEST(ColumnBorrowedDeathTest, MutationDies) {
  const double backing[2] = {1.0, 2.0};
  auto column = Column<double>::Borrowed(backing, 2);
  // Mapped sections are immutable by contract; every mutator must refuse
  // rather than copy-on-write behind the caller's paging budget.
  EXPECT_DEATH(column.mutable_vec(), "borrowed");
  EXPECT_DEATH(column.push_back(3.0), "borrowed");
  EXPECT_DEATH(column.resize(8), "borrowed");
  EXPECT_DEATH(column.clear(), "borrowed");
  EXPECT_DEATH(column.at_mut(0) = 9.0, "borrowed");
}

TEST(ColumnBytesTest, SplitsResidentFromMapped) {
  Column<double> owned(Doubles({1.0, 2.0, 3.0}));
  const int32_t backing[5] = {1, 2, 3, 4, 5};
  auto borrowed = Column<int32_t>::Borrowed(backing, 5);

  ColumnBytes bytes;
  bytes.Add(owned);
  bytes.Add(borrowed);
  EXPECT_EQ(bytes.resident, 3 * sizeof(double));
  EXPECT_EQ(bytes.mapped, 5 * sizeof(int32_t));

  ColumnBytes more;
  more.Add(owned);
  bytes += more;
  EXPECT_EQ(bytes.resident, 6 * sizeof(double));
  EXPECT_EQ(bytes.mapped, 5 * sizeof(int32_t));
}

// Owned storage of kPageMappedMinBytes and up gets its own mapping, so
// freeing it gives the pages back: once the column is gone its range is not
// mapped at all, where a heap block would stay mapped for reuse.
TEST(ColumnPageMapped, LargeOwnedStorageIsUnmappedOnFree) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t bytes = kPageMappedMinBytes;
  std::vector<unsigned char> residency((bytes + page - 1) / page);
  void* address = nullptr;
  {
    Column<double> column;
    column.resize(bytes / sizeof(double), 1.0);
    address = const_cast<double*>(column.data());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(address) % page, 0u);
    EXPECT_EQ(mincore(address, bytes, residency.data()), 0);
  }
  errno = 0;
  EXPECT_EQ(mincore(address, bytes, residency.data()), -1);
  EXPECT_EQ(errno, ENOMEM);
}

#ifdef ARSP_ASAN
// A mapping hands out whole pages, but AddressSanitizer must still report
// the first byte past the block: the slack is poisoned, and so is a guard
// page behind a block that fills its pages exactly.
TEST(ColumnPageMappedDeathTest, OverflowIsReportedUnderAsan) {
  const size_t exact = kPageMappedMinBytes / sizeof(double);
  for (const size_t count : {exact, exact + 3}) {
    EXPECT_DEATH(
        {
          AlignedVector<double> storage(count, 0.0);
          volatile double* data = storage.data();
          data[count] = 1.0;
        },
        "AddressSanitizer");
  }
}
#endif

}  // namespace
}  // namespace arsp
