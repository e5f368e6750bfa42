// Kernel taxonomy shared by the kernel registry, the hybrid selection
// policy, and the cost model.
#pragma once

#include <string_view>

namespace mclx::spgemm {

// A kind names a selection rule, a cost row and a report label. Every
// kind computes its real product with hash_spgemm's row accumulator
// (hash.hpp), so the kind never changes a bit of the output.
enum class KernelKind {
  kCpuHeap,         ///< heap column merge — original HipMCL kernel
  kCpuHash,         ///< hash accumulation — §VI's CPU kernel (cpu-hash)
  kGpuBhsparse,     ///< ESC (expand-sort-compress) on the device
  kGpuNsparse,      ///< device hash tables — wins at large cf
  kGpuRmerge2,      ///< iterative row merging — wins at small cf
};

inline constexpr std::string_view kernel_name(KernelKind k) {
  switch (k) {
    case KernelKind::kCpuHeap: return "cpu-heap";
    case KernelKind::kCpuHash: return "cpu-hash";
    case KernelKind::kGpuBhsparse: return "bhsparse";
    case KernelKind::kGpuNsparse: return "nsparse";
    case KernelKind::kGpuRmerge2: return "rmerge2";
  }
  return "unknown";
}

inline constexpr bool is_gpu_kernel(KernelKind k) {
  return k == KernelKind::kGpuBhsparse || k == KernelKind::kGpuNsparse ||
         k == KernelKind::kGpuRmerge2;
}

}  // namespace mclx::spgemm
