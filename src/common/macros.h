// Copyright 2026 The ARSP Authors.
//
// Lightweight checked-assertion macros used across the library. Following the
// RocksDB/Arrow convention, internal invariant violations abort with a
// readable message rather than throwing: corrupted state in a query engine is
// not recoverable, and exceptions are banned from hot paths.

#ifndef ARSP_COMMON_MACROS_H_
#define ARSP_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>

// Aborts with a formatted message. Used for unrecoverable internal errors.
#define ARSP_FATAL(...)                                              \
  do {                                                               \
    std::fprintf(stderr, "[ARSP FATAL] %s:%d: ", __FILE__, __LINE__); \
    std::fprintf(stderr, __VA_ARGS__);                               \
    std::fprintf(stderr, "\n");                                      \
    std::abort();                                                    \
  } while (0)

// Checks an invariant in all build modes (cheap conditions only).
#define ARSP_CHECK(cond)                              \
  do {                                                \
    if (!(cond)) ARSP_FATAL("check failed: %s", #cond); \
  } while (0)

#define ARSP_CHECK_MSG(cond, ...)   \
  do {                              \
    if (!(cond)) ARSP_FATAL(__VA_ARGS__); \
  } while (0)

// Debug-only check for conditions that are too expensive for release builds.
#ifndef NDEBUG
#define ARSP_DCHECK(cond) ARSP_CHECK(cond)
#else
#define ARSP_DCHECK(cond) \
  do {                    \
  } while (0)
#endif

// Defined when this translation unit is built under AddressSanitizer (GCC
// and Clang spell the test differently).
#if defined(__SANITIZE_ADDRESS__)
#define ARSP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARSP_ASAN 1
#endif
#endif

#endif  // ARSP_COMMON_MACROS_H_
