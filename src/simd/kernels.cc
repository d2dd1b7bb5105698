// Copyright 2026 The ARSP Authors.
//
// Dispatch-table resolution: pick the best table the CPU supports, honor a
// one-time ARSP_KERNEL override, and expose the test hook that swaps the
// active table in-process. The resolved table lives behind one atomic
// pointer — a hot-loop call is an atomic load plus an indirect call, and
// kernels amortize that over a whole batch.

#include "src/simd/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace arsp {
namespace simd {
namespace {

std::atomic<const KernelOps*> g_active{nullptr};
std::once_flag g_init_once;

// Best table the machine supports, ignoring the override.
const KernelOps* NativeOps() {
  if (const KernelOps* avx2 = internal::Avx2OpsOrNull()) return avx2;
  return &internal::ScalarOps();
}

void InitActive() {
  const KernelOps* chosen = NativeOps();
  if (const char* env = std::getenv("ARSP_KERNEL");
      env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) {
      chosen = &internal::ScalarOps();
    } else if (std::strcmp(env, "avx2") == 0 &&
               internal::Avx2OpsOrNull() != nullptr) {
      chosen = internal::Avx2OpsOrNull();
    } else {
      std::fprintf(stderr,
                   "arsp: ARSP_KERNEL=%s not supported on this machine; "
                   "using scalar kernels\n",
                   env);
      chosen = &internal::ScalarOps();
    }
  }
  g_active.store(chosen, std::memory_order_release);
}

const KernelOps* Active() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops != nullptr) return ops;
  std::call_once(g_init_once, InitActive);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* KernelArchName(KernelArch arch) {
  switch (arch) {
    case KernelArch::kScalar:
      return "scalar";
    case KernelArch::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelOps& Ops() { return *Active(); }

KernelArch ActiveArch() { return Active()->arch; }

const char* ActiveArchName() { return KernelArchName(ActiveArch()); }

std::vector<KernelArch> SupportedArches() {
  std::vector<KernelArch> arches = {KernelArch::kScalar};
  if (internal::Avx2OpsOrNull() != nullptr) {
    arches.push_back(KernelArch::kAvx2);
  }
  return arches;
}

namespace internal {

bool SetArchForTesting(KernelArch arch) {
  const KernelOps* table = nullptr;
  switch (arch) {
    case KernelArch::kScalar:
      table = &ScalarOps();
      break;
    case KernelArch::kAvx2:
      table = Avx2OpsOrNull();
      break;
  }
  if (table == nullptr) return false;
  Active();  // ensure the one-time init has run (keeps ARSP_KERNEL parsing
             // from clobbering a later override)
  g_active.store(table, std::memory_order_release);
  return true;
}

}  // namespace internal
}  // namespace simd
}  // namespace arsp
