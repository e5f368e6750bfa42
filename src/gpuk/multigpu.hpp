// Multi-GPU SpGEMM on one node, per §III-A: A is replicated to every
// device, B's columns are split evenly, each device computes its slice of
// C, and the final product is a trivial column concatenation.
//
// The product is computed once over all of B with hash_spgemm's row
// accumulator, whichever library is named: all three libraries fold each
// output column's products in B's column order (docs/KERNELS.md, "Fold
// order"), so they differ in device time, working set and OOM, not in
// bits. Each device's memory reservation and virtual cost come from its
// column range of B and C, exactly as if it had multiplied that slice
// alone.
//
// Transfers ride each GPU's own NVLink (parallel), so the aggregate cost
// components are per-device maxima, not sums.
#pragma once

#include <vector>

#include "gpuk/device.hpp"
#include "sim/costmodel.hpp"
#include "sparse/csc.hpp"
#include "spgemm/kernels.hpp"
#include "util/types.hpp"

namespace mclx::gpuk {

using CscD = sparse::Csc<vidx_t, val_t>;

struct MultiGpuResult {
  CscD c;
  DeviceCost cost;              ///< per-component maxima across devices
  double cf = 0;                ///< of the whole multiply
  std::uint64_t flops = 0;
  int devices_used = 0;
};

/// Run C = A*B with the GPU library `kind` across `devices` (all must
/// share the capacity of the machine's GPUs). Throws GpuOom, before any
/// work, when a device's slice does not fit: operands + output +
/// workspace, with nnz(C) bounded by the slice's flops (callers fall back
/// to the CPU).
MultiGpuResult multi_gpu_spgemm(spgemm::KernelKind kind, const CscD& a,
                                const CscD& b,
                                std::vector<GpuDevice>& devices,
                                const sim::CostModel& model);

/// Device-memory working set of a multiply: `operand_bytes` (A and the
/// B slice), the output estimate and the per-library workspace. Used
/// for OOM pre-checks.
bytes_t gpu_working_set_bytes(spgemm::KernelKind kind, bytes_t operand_bytes,
                              std::uint64_t flops,
                              std::uint64_t out_nnz_estimate);

}  // namespace mclx::gpuk
