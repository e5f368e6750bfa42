#include "gpuk/multigpu.hpp"

#include <algorithm>
#include <stdexcept>

#include "sparse/ops.hpp"
#include "spgemm/hash.hpp"

namespace mclx::gpuk {

namespace {

/// Bytes of columns [j0, j1) of `m` as a CSC of their own — what
/// csc_col_slice(m, j0, j1).bytes() would report, without the copy.
bytes_t col_range_bytes(const CscD& m, vidx_t j0, vidx_t j1) {
  const auto nnz = static_cast<bytes_t>(m.colptr()[j1] - m.colptr()[j0]);
  return static_cast<bytes_t>(j1 - j0 + 1) * sizeof(vidx_t) +
         nnz * (sizeof(vidx_t) + sizeof(val_t));
}

}  // namespace

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

  // Even column split (the paper divides "columns of B evenly among
  // GPUs"); devices past the last column get no slice.
  struct Slice {
    vidx_t j0, j1;
    std::uint64_t flops;
  };
  const auto g = static_cast<vidx_t>(devices.size());
  const vidx_t per = (b.ncols() + g - 1) / g;
  std::vector<Slice> slices;
  for (vidx_t d = 0; d < g; ++d) {
    const vidx_t j0 = std::min(d * per, b.ncols());
    const vidx_t j1 = std::min(j0 + per, b.ncols());
    if (j0 == j1) break;
    std::uint64_t flops = 0;
    for (vidx_t p = b.colptr()[j0]; p < b.colptr()[j1]; ++p) {
      flops += static_cast<std::uint64_t>(a.col_nnz(b.rowids()[p]));
    }
    slices.push_back({j0, j1, flops});
  }

  MultiGpuResult out;
  if (slices.empty()) {
    out.c = CscD(a.nrows(), b.ncols());
    out.cf = 1.0;
    return out;
  }

  // Conservative pre-check with nnz(C) <= flops, held while the devices
  // compute. A real implementation would use the symbolic pass or the
  // probabilistic estimate here; the conservative bound keeps the
  // failure path (GpuOom -> CPU fallback) exercised.
  std::vector<GpuDevice::Reservation> reservations;
  reservations.reserve(slices.size());
  for (std::size_t d = 0; d < slices.size(); ++d) {
    const Slice& s = slices[d];
    const auto out_bound = std::min<std::uint64_t>(
        s.flops, static_cast<std::uint64_t>(a.nrows()) *
                     static_cast<std::uint64_t>(s.j1 - s.j0));
    reservations.emplace_back(
        devices[d],
        gpu_working_set_bytes(kind, a.bytes() + col_range_bytes(b, s.j0, s.j1),
                              s.flops, out_bound));
  }

  out.c = spgemm::hash_spgemm(a, b);
  for (const Slice& s : slices) {
    const auto width = static_cast<double>(s.j1 - s.j0);
    const auto c_nnz =
        static_cast<std::uint64_t>(out.c.colptr()[s.j1] - out.c.colptr()[s.j0]);
    DeviceCost cost;
    cost.bytes_in = a.bytes() + col_range_bytes(b, s.j0, s.j1);
    cost.bytes_out = col_range_bytes(out.c, s.j0, s.j1);
    cost.h2d = model.h2d(cost.bytes_in);
    cost.kernel = model.local_spgemm(
        kind, s.flops, sparse::compression_factor(s.flops, c_nnz),
        static_cast<double>(b.colptr()[s.j1] - b.colptr()[s.j0]) / width);
    cost.d2h = model.d2h(cost.bytes_out);

    out.flops += s.flops;
    out.cost.h2d = std::max(out.cost.h2d, cost.h2d);
    out.cost.kernel = std::max(out.cost.kernel, cost.kernel);
    out.cost.d2h = std::max(out.cost.d2h, cost.d2h);
    out.cost.bytes_in = std::max(out.cost.bytes_in, cost.bytes_in);
    out.cost.bytes_out = std::max(out.cost.bytes_out, cost.bytes_out);
    ++out.devices_used;
  }
  out.cf = sparse::compression_factor(out.flops, out.c.nnz());
  return out;
}

}  // namespace mclx::gpuk
