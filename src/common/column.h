// Copyright 2026 The ARSP Authors.
//
// The storage-trait seam of the out-of-core data plane: a Column<T> is one
// contiguous typed array that is either *owned* (an AlignedVector built in
// memory — datasets from CSV/generators, indexes from bulk loaders; blocks
// of 64 KiB and up are private mappings, see aligned.h) or
// *borrowed* (a read-only span into an mmap'ed snapshot section — see
// src/io/snapshot.h). Consumers read through data()/operator[] and cannot
// tell the difference; only construction and mutation know. This is what
// lets a snapshot load with zero parse and zero copy: every hot array in
// UncertainDataset, ScoreBuffer, KdTree, and RTree is a Column, and the
// loader points them straight into the mapped file, paging on demand.
//
// Lifetime: a borrowed column does NOT keep its backing alive. Whoever
// assembles borrowed columns (the snapshot loader) must pin the mapping,
// e.g. via the shared_ptr backing slot on UncertainDataset.

#ifndef ARSP_COMMON_COLUMN_H_
#define ARSP_COMMON_COLUMN_H_

#include <cstddef>
#include <type_traits>
#include <utility>

#include "src/common/aligned.h"
#include "src/common/macros.h"

namespace arsp {

template <typename T>
class Column {
  static_assert(std::is_trivially_copyable_v<T>,
                "Columns hold flat POD data (they map 1:1 to file sections)");

 public:
  /// An empty owned column.
  Column() = default;

  /// Owned column taking over an existing vector.
  explicit Column(AlignedVector<T> data)
      : owned_(std::move(data)), data_(owned_.data()), size_(owned_.size()) {}

  /// Borrowed read-only window; `data` must outlive the column (the caller
  /// pins the backing, e.g. an mmap region).
  static Column Borrowed(const T* data, std::size_t size) {
    Column c;
    c.data_ = data;
    c.size_ = size;
    c.borrowed_ = true;
    return c;
  }

  // Copy/move keep the owned/borrowed distinction; a copied owned column
  // deep-copies its storage (columns sit inside value types like KdTree).
  Column(const Column& other) { *this = other; }
  Column& operator=(const Column& other) {
    if (this == &other) return *this;
    owned_ = other.owned_;
    borrowed_ = other.borrowed_;
    size_ = other.size_;
    data_ = borrowed_ ? other.data_ : owned_.data();
    return *this;
  }
  Column(Column&& other) noexcept { *this = std::move(other); }
  Column& operator=(Column&& other) noexcept {
    if (this == &other) return *this;
    owned_ = std::move(other.owned_);
    borrowed_ = other.borrowed_;
    size_ = other.size_;
    data_ = borrowed_ ? other.data_ : owned_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.borrowed_ = false;
    return *this;
  }

  bool borrowed() const { return borrowed_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bytes() const { return size_ * sizeof(T); }

  const T* data() const { return data_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](std::size_t i) const {
    ARSP_DCHECK(i < size_);
    return data_[i];
  }

  // ------------------------------------------------------ owned mutation
  // Every mutator CHECKs that the column is owned: borrowed (mapped)
  // storage is immutable by contract, and silently copying it on write
  // would defeat the paging budget the caller signed up for.

  AlignedVector<T>& mutable_vec() {
    ARSP_CHECK_MSG(!borrowed_, "mutating a borrowed (mapped) column");
    return owned_;
  }
  T* mutable_data() { return mutable_vec().data(); }
  void resize(std::size_t n) {
    mutable_vec().resize(n);
    sync();
  }
  void resize(std::size_t n, const T& value) {
    mutable_vec().resize(n, value);
    sync();
  }
  void reserve(std::size_t n) { mutable_vec().reserve(n); }
  void push_back(const T& v) {
    mutable_vec().push_back(v);
    sync();
  }
  void clear() {
    mutable_vec().clear();
    sync();
  }
  T& at_mut(std::size_t i) {
    ARSP_DCHECK(i < size_);
    return mutable_data()[i];
  }

  /// Re-derives the cached view after direct mutable_vec() surgery.
  void sync() {
    data_ = owned_.data();
    size_ = owned_.size();
  }

 private:
  AlignedVector<T> owned_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  bool borrowed_ = false;
};

/// Resident vs. mapped byte split of one column — the unit the index
/// memory-footprint stats aggregate.
struct ColumnBytes {
  std::size_t resident = 0;  ///< owned heap bytes
  std::size_t mapped = 0;    ///< borrowed (mmap-backed) bytes

  ColumnBytes& operator+=(const ColumnBytes& other) {
    resident += other.resident;
    mapped += other.mapped;
    return *this;
  }
  template <typename T>
  void Add(const Column<T>& column) {
    (column.borrowed() ? mapped : resident) += column.bytes();
  }
};

}  // namespace arsp

#endif  // ARSP_COMMON_COLUMN_H_
