// Copyright 2026 The ARSP Authors.
//
// Cache-line-aligned vector storage for the SoA data plane. ScoreBuffer's
// coordinate/probability streams start on 64-byte boundaries so hot spans
// never share a cache line with unrelated allocations and vector loads hit
// full lines from row 0. This is a layout guarantee, not a kernel
// precondition — spans may window a buffer at arbitrary row offsets, so
// the SIMD kernels always use unaligned loads (see src/simd/kernels.h).
//
// Blocks of at least kPageMappedMinBytes bypass the heap: each gets its own
// anonymous mapping, and freeing it unmaps the pages. glibc's dynamic mmap
// threshold rises to the largest block freed so far (a 0.3 MB CSV payload
// is enough), after which ~200 KB score buffers land on the heap; a server
// churning its context pool then strands free heap between cached results
// that RSS never gives back. A mapping is page-aligned, which satisfies
// every Alignment this allocator accepts.

#ifndef ARSP_COMMON_ALIGNED_H_
#define ARSP_COMMON_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace arsp {

/// Smallest block AlignedAllocator gives its own anonymous mapping.
inline constexpr std::size_t kPageMappedMinBytes = 64 * 1024;

namespace internal {
/// A fresh private anonymous mapping of at least `bytes` (page-aligned,
/// zero-filled); throws std::bad_alloc when the kernel refuses. Under
/// AddressSanitizer the slack past `bytes` and one extra page are poisoned,
/// so overflows still report.
void* MapPages(std::size_t bytes);
/// Releases a MapPages block of the same `bytes` to the OS.
void UnmapPages(void* p, std::size_t bytes) noexcept;
}  // namespace internal

/// Minimal C++17 allocator handing out `Alignment`-aligned blocks: via the
/// aligned operator new below kPageMappedMinBytes, as a private mapping at
/// or above it. Stateless: all instances are interchangeable.
template <typename T, std::size_t Alignment>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T),
                "Alignment must be at least the type's natural alignment");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment <= 4096, "mappings are only page-aligned");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kPageMappedMinBytes) {
      return static_cast<T*>(internal::MapPages(bytes));
    }
    return static_cast<T*>(::operator new(bytes, std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kPageMappedMinBytes) {
      internal::UnmapPages(p, bytes);
      return;
    }
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// Alignment of the SoA score streams.
inline constexpr std::size_t kScoreAlignment = 64;

/// A std::vector whose data() is 64-byte (cache-line) aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, kScoreAlignment>>;

}  // namespace arsp

#endif  // ARSP_COMMON_ALIGNED_H_
