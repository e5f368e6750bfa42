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
// alone: charge_slices() computes both from per-slice counts, for this
// product and for the SUMMA pipeline, which counts its slices without
// building per-block products (dist/summa.cpp).
//
// Transfers ride each GPU's own NVLink (parallel), so the aggregate cost
// components are per-device maxima, not sums.
#pragma once

#include <span>
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

/// One device's share of a multiply: its columns of B (and C), the B
/// entries in them, their flops and the product's entries in them.
struct SliceCounts {
  vidx_t ncols = 0;
  std::uint64_t b_nnz = 0;
  std::uint64_t flops = 0;
  std::uint64_t c_nnz = 0;
};

/// Columns per device when `ncols` columns split evenly over `devices`
/// (the paper divides "columns of B evenly among GPUs"): device d takes
/// [d·w, min((d+1)·w, ncols)), and devices past the last column get no
/// slice.
vidx_t slice_width(vidx_t ncols, int devices);

/// Reserve each slice's working set on its device — operands + output +
/// workspace, with nnz(C) bounded by the slice's flops — and cost the
/// multiply of an A of `a_nrows` rows and `a_bytes` CSC bytes. Throws
/// GpuOom for the first slice that does not fit (callers fall back to the
/// CPU); the reservations are released on return. `slices` holds at most
/// one entry per device; none costs nothing.
DeviceCost charge_slices(spgemm::KernelKind kind, vidx_t a_nrows,
                         bytes_t a_bytes, std::span<const SliceCounts> slices,
                         std::vector<GpuDevice>& devices,
                         const sim::CostModel& model);

/// Per-slice counts of C = A*B split over `devices` devices.
std::vector<SliceCounts> count_slices(const CscD& a, const CscD& b,
                                      const CscD& c, int devices);

/// Run C = A*B with the GPU library `kind` across `devices` (all must
/// share the capacity of the machine's GPUs): the product, then
/// charge_slices() on its counts. Throws GpuOom like charge_slices().
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
