// Copyright 2026 The ARSP Authors.

#include "src/common/aligned.h"

#include <sys/mman.h>
#include <unistd.h>

#include "src/common/macros.h"

#ifdef ARSP_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace arsp {
namespace internal {
namespace {

// The length actually mapped for a `bytes` block. ASan builds add a guard
// page past the rounded-up block, so even a page-multiple block has
// poisoned memory right after its last byte.
std::size_t MappedLength(std::size_t bytes) {
#ifdef ARSP_ASAN
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page + page;
#else
  return bytes;  // mmap/munmap round up to whole pages themselves
#endif
}

}  // namespace

void* MapPages(std::size_t bytes) {
  const std::size_t length = MappedLength(bytes);
  void* p = mmap(nullptr, length, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef ARSP_ASAN
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + bytes, length - bytes);
#endif
  return p;
}

void UnmapPages(void* p, std::size_t bytes) noexcept {
  const std::size_t length = MappedLength(bytes);
#ifdef ARSP_ASAN
  // The shadow must not outlive the mapping: the next mmap may reuse it.
  ASAN_UNPOISON_MEMORY_REGION(p, length);
#endif
  munmap(p, length);
}

}  // namespace internal
}  // namespace arsp
