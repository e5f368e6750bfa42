// Unified local-SpGEMM entry point with the paper's hybrid selection
// recipe (§III, §VII-B): choose CPU vs GPU by flops (enough arithmetic to
// saturate device threads?), then choose the GPU library by compression
// factor (nsparse at large cf, rmerge2 at small), with cpu-hash vs
// cpu-heap likewise split by cf on the CPU side.
//
// Selection inputs are *estimates* available before multiplying: the
// exact flops (cheap to compute from the operands) and the cf estimated
// by the iteration's memory-requirement pass — exactly the quantities
// HipMCL has at hand.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "gpuk/device.hpp"
#include "gpuk/multigpu.hpp"
#include "sim/costmodel.hpp"
#include "sparse/csc.hpp"
#include "spgemm/kernels.hpp"
#include "util/types.hpp"

namespace mclx::spgemm {

struct HybridPolicy {
  /// Below this many flops the GPU cannot be saturated: stay on CPU. The
  /// default is tuned to the mini-dataset scale (see MachineConfig::
  /// work_scale): the virtual device is work_scale times slower than a
  /// real V100, so it saturates at work_scale times fewer flops —
  /// ~10^8 real-threshold / 2.5e5 ≈ a few hundred. Blocks at the paper's
  /// scale are always far above the real threshold; keeping this low
  /// preserves that property for the minis' large-grid runs.
  std::uint64_t min_gpu_flops = 512;
  /// GPU library split: cf >= threshold -> nsparse, else rmerge2.
  double gpu_cf_threshold = 4.0;
  /// CPU kernel split: cf < threshold -> heap, else hash (§VI: heaps
  /// slightly ahead only at small cf).
  double cpu_cf_threshold = 1.5;

  /// The choice depends only on the multiply, never on the pool width,
  /// so kernel kind and virtual cost are the same at any thread count.
  KernelKind select(std::uint64_t flops, double cf_estimate,
                    bool gpu_available) const;
};

/// Kernel request: a fixed kernel, or hybrid selection.
struct KernelPolicy {
  std::optional<KernelKind> fixed;  ///< nullopt => hybrid
  HybridPolicy hybrid;

  static KernelPolicy fixed_kernel(KernelKind k) { return {k, {}}; }
  static KernelPolicy hybrid_policy(HybridPolicy h = {}) {
    return {std::nullopt, h};
  }
};

using CscD = sparse::Csc<vidx_t, val_t>;

struct LocalSpgemmResult {
  CscD c;
  KernelKind used = KernelKind::kCpuHash;
  std::uint64_t flops = 0;
  double cf = 0;                 ///< actual cf of this multiply
  vtime_t cpu_time = 0;          ///< host-side kernel time (CPU kernels)
  gpuk::DeviceCost device_cost;  ///< transfers + device kernel (GPU path)
  bool gpu_fallback = false;     ///< GPU OOM forced the CPU path
};

/// What selecting and costing a multiply C = A*B needs: sizes and counts
/// of its operands and product, not the matrices themselves.
struct MultiplyCounts {
  vidx_t a_nrows = 0;
  bytes_t a_bytes = 0;  ///< A as a CSC
  vidx_t b_ncols = 0;
  std::uint64_t b_nnz = 0;
  std::uint64_t flops = 0;
  std::uint64_t c_nnz = 0;
  /// The multiply split over the rank's devices (gpuk::count_slices);
  /// read only when a GPU kind runs, so it may stay empty unless
  /// LocalMultiplier::may_use_devices().
  std::span<const gpuk::SliceCounts> slices;
};

/// Executes one local multiply with kernel selection, real computation,
/// and virtual-cost reporting. Owns the rank's simulated devices.
class LocalMultiplier {
 public:
  LocalMultiplier(const sim::CostModel& model, KernelPolicy policy);

  /// The product, its counts and charge() on them. `cf_estimate`: the
  /// iteration-level cf estimate used for selection (<= 0 means unknown;
  /// a neutral default is used).
  LocalSpgemmResult multiply(const CscD& a, const CscD& b,
                             double cf_estimate = -1);

  /// Kernel selection, GPU reservations with their OOM fallback, the
  /// selection report and the virtual cost of a multiply, from its
  /// counts alone; the result's `c` stays empty. The SUMMA pipeline
  /// charges its block products this way without building them.
  LocalSpgemmResult charge(const MultiplyCounts& counts,
                           double cf_estimate = -1);

  /// True when charge() can run a GPU kind, i.e. needs counts.slices.
  bool may_use_devices() const;

  const KernelPolicy& policy() const { return policy_; }
  int num_devices() const { return static_cast<int>(devices_.size()); }

 private:
  LocalSpgemmResult charge_cpu(KernelKind kind, const MultiplyCounts& counts);

  sim::CostModel model_;
  KernelPolicy policy_;
  std::vector<gpuk::GpuDevice> devices_;
};

}  // namespace mclx::spgemm
