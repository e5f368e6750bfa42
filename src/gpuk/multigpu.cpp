#include "gpuk/multigpu.hpp"

#include <algorithm>
#include <stdexcept>

#include "sparse/ops.hpp"
#include "spgemm/hash.hpp"

namespace mclx::gpuk {

vidx_t slice_width(vidx_t ncols, int devices) {
  if (devices <= 0) throw std::invalid_argument("slice_width: no devices");
  const auto g = static_cast<vidx_t>(devices);
  return (ncols + g - 1) / g;
}

bytes_t gpu_working_set_bytes(spgemm::KernelKind kind, bytes_t operand_bytes,
                              std::uint64_t flops,
                              std::uint64_t out_nnz_estimate) {
  const bytes_t entry = sizeof(vidx_t) + sizeof(val_t);
  const bytes_t output = out_nnz_estimate * entry;
  bytes_t workspace = 0;
  switch (kind) {
    case spgemm::KernelKind::kGpuBhsparse:
      // ESC materializes every intermediate product before compression.
      workspace = flops * entry;
      break;
    case spgemm::KernelKind::kGpuNsparse:
      // Hash tables sized ~2x the output row counts.
      workspace = 2 * output;
      break;
    case spgemm::KernelKind::kGpuRmerge2:
      // Two merge buffers of at most the output size per round.
      workspace = 2 * output;
      break;
    default:
      throw std::invalid_argument("gpu_working_set_bytes: not a GPU kernel");
  }
  return operand_bytes + output + workspace;
}

DeviceCost charge_slices(spgemm::KernelKind kind, vidx_t a_nrows,
                         bytes_t a_bytes, std::span<const SliceCounts> slices,
                         std::vector<GpuDevice>& devices,
                         const sim::CostModel& model) {
  if (slices.size() > devices.size())
    throw std::invalid_argument("charge_slices: more slices than devices");

  // Conservative pre-check with nnz(C) <= flops, held while the devices
  // compute. A real implementation would use the symbolic pass or the
  // probabilistic estimate here; the conservative bound keeps the
  // failure path (GpuOom -> CPU fallback) exercised.
  std::vector<GpuDevice::Reservation> reservations;
  reservations.reserve(slices.size());
  for (std::size_t d = 0; d < slices.size(); ++d) {
    const SliceCounts& s = slices[d];
    const auto out_bound = std::min<std::uint64_t>(
        s.flops, static_cast<std::uint64_t>(a_nrows) *
                     static_cast<std::uint64_t>(s.ncols));
    reservations.emplace_back(
        devices[d],
        gpu_working_set_bytes(kind, a_bytes + CscD::bytes_for(s.ncols, s.b_nnz),
                              s.flops, out_bound));
  }

  DeviceCost out;
  for (const SliceCounts& s : slices) {
    DeviceCost cost;
    // The slice's B and C columns as CSCs of their own.
    cost.bytes_in = a_bytes + CscD::bytes_for(s.ncols, s.b_nnz);
    cost.bytes_out = CscD::bytes_for(s.ncols, s.c_nnz);
    cost.h2d = model.h2d(cost.bytes_in);
    cost.kernel = model.local_spgemm(
        kind, s.flops, sparse::compression_factor(s.flops, s.c_nnz),
        static_cast<double>(s.b_nnz) / static_cast<double>(s.ncols));
    cost.d2h = model.d2h(cost.bytes_out);

    out.h2d = std::max(out.h2d, cost.h2d);
    out.kernel = std::max(out.kernel, cost.kernel);
    out.d2h = std::max(out.d2h, cost.d2h);
    out.bytes_in = std::max(out.bytes_in, cost.bytes_in);
    out.bytes_out = std::max(out.bytes_out, cost.bytes_out);
  }
  return out;
}

std::vector<SliceCounts> count_slices(const CscD& a, const CscD& b,
                                      const CscD& c, int devices) {
  const vidx_t ncols = b.ncols();
  const vidx_t width = slice_width(ncols, devices);
  std::vector<SliceCounts> slices;
  for (vidx_t j0 = 0; j0 < ncols; j0 += width) {
    const vidx_t j1 = std::min(j0 + width, ncols);
    SliceCounts s;
    s.ncols = j1 - j0;
    s.b_nnz = static_cast<std::uint64_t>(b.colptr()[j1] - b.colptr()[j0]);
    s.c_nnz = static_cast<std::uint64_t>(c.colptr()[j1] - c.colptr()[j0]);
    for (vidx_t p = b.colptr()[j0]; p < b.colptr()[j1]; ++p) {
      s.flops += static_cast<std::uint64_t>(a.col_nnz(b.rowids()[p]));
    }
    slices.push_back(s);
  }
  return slices;
}

MultiGpuResult multi_gpu_spgemm(spgemm::KernelKind kind, const CscD& a,
                                const CscD& b,
                                std::vector<GpuDevice>& devices,
                                const sim::CostModel& model) {
  if (devices.empty())
    throw std::invalid_argument("multi_gpu_spgemm: no devices");
  if (!spgemm::is_gpu_kernel(kind))
    throw std::invalid_argument("multi_gpu_spgemm: not a GPU kernel");
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("multi_gpu_spgemm: inner dimension mismatch");

  MultiGpuResult out;
  out.c = spgemm::hash_spgemm(a, b);
  const std::vector<SliceCounts> slices =
      count_slices(a, b, out.c, static_cast<int>(devices.size()));
  out.cost = charge_slices(kind, a.nrows(), a.bytes(), slices, devices, model);
  for (const SliceCounts& s : slices) out.flops += s.flops;
  out.devices_used = static_cast<int>(slices.size());
  out.cf = sparse::compression_factor(out.flops, out.c.nnz());
  return out;
}

}  // namespace mclx::gpuk
