#include "sim/costmodel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mclx::sim {

namespace {
double lg2(double x) { return std::log2(std::max(x, 1.0)); }
double ceil_lg2(int p) {
  return p <= 1 ? 0.0 : std::ceil(std::log2(static_cast<double>(p)));
}
}  // namespace

double CostModel::net_beta() const {
  // Ranks on one node share the NIC: process-based layouts divide the
  // node's injection bandwidth among ranks_per_node ranks, which is a
  // big part of why the thread-based mode wins the broadcast stage in
  // §VII-B.
  return m_.net_beta_s_per_byte * m_.comm_scale *
         static_cast<double>(m_.ranks_per_node);
}

double CostModel::gpu_efficiency(spgemm::KernelKind kind, double cf) const {
  cf = std::max(cf, 1.0);
  switch (kind) {
    // Device hash tables amortize beautifully once many intermediate
    // products collapse onto few outputs; poor when cf ~ 1 (table churn).
    case spgemm::KernelKind::kGpuNsparse:
      return cf / (cf + 2.5);
    // ESC pays an O(sort) toll on the expanded products regardless of cf;
    // strong but consistently below nsparse at high cf.
    case spgemm::KernelKind::kGpuBhsparse:
      return 0.85 * cf / (cf + 7.0);
    // Row-merging moves each intermediate product through O(lg) merge
    // rounds — only mildly cf-sensitive, so it edges out nsparse when cf
    // is small and trails badly when cf is large (Fig 4: ~1.1x vs 3.3x
    // over cpu-hash).
    case spgemm::KernelKind::kGpuRmerge2:
      return 0.55 / (1.0 + cf / 40.0);
    default:
      throw std::invalid_argument("gpu_efficiency: not a GPU kernel");
  }
}

vtime_t CostModel::local_spgemm(spgemm::KernelKind kind, std::uint64_t flops,
                                double cf, double mean_merge_width) const {
  const auto f = static_cast<double>(flops);
  switch (kind) {
    case spgemm::KernelKind::kCpuHash:
      // The simulated rank's thread scaling is the cpu_threads() factor;
      // the host pool lanes that compute the real product never show.
      return f / (m_.cpu_core_rate_flops / m_.work_scale * cpu_threads());
    case spgemm::KernelKind::kCpuHeap: {
      // Comparison-dominated: lg(width) comparisons per flop. The heap
      // comparison rate is a bit higher than the hash probe rate per op,
      // but the lg factor dominates at MCL densities.
      const double rate =
          1.4 * m_.cpu_core_rate_flops / m_.work_scale * heap_rate_scale *
          cpu_threads();
      return f * lg2(2.0 + mean_merge_width) / rate;
    }
    case spgemm::KernelKind::kGpuNsparse:
    case spgemm::KernelKind::kGpuBhsparse:
    case spgemm::KernelKind::kGpuRmerge2: {
      // Single-device time. Multi-GPU parallelism is handled above this
      // model by column-chunking (gpuk::multi_gpu_spgemm), not here.
      const double eff = gpu_efficiency(kind, cf);
      return m_.gpu_launch_s + f / (m_.gpu_rate_flops / m_.work_scale * eff);
    }
  }
  throw std::invalid_argument("local_spgemm: unknown kernel");
}

vtime_t CostModel::h2d(bytes_t bytes) const {
  return m_.pci_alpha_s +
         static_cast<double>(bytes) * m_.pci_beta_s_per_byte * m_.comm_scale;
}

vtime_t CostModel::d2h(bytes_t bytes) const { return h2d(bytes); }

vtime_t CostModel::bcast(int group, bytes_t bytes) const {
  if (group <= 1) return 0;
  return ceil_lg2(group) *
         (m_.net_alpha_s + static_cast<double>(bytes) * net_beta());
}

vtime_t CostModel::allreduce(int group, bytes_t bytes) const {
  if (group <= 1) return 0;
  // Reduce-scatter + allgather ≈ 2 lg p messages of the payload.
  return 2.0 * ceil_lg2(group) *
         (m_.net_alpha_s + static_cast<double>(bytes) * net_beta());
}

vtime_t CostModel::allgather(int group, bytes_t bytes_per_rank) const {
  if (group <= 1) return 0;
  // Ring allgather: (p-1) steps of the per-rank payload.
  return static_cast<double>(group - 1) *
         (m_.net_alpha_s + static_cast<double>(bytes_per_rank) * net_beta());
}

vtime_t CostModel::merge(std::uint64_t elems, int ways) const {
  if (elems == 0 || ways <= 1) return 0;
  return static_cast<double>(elems) * lg2(static_cast<double>(ways) + 1.0) /
         (merge_rate_elems / m_.work_scale * cpu_threads());
}

vtime_t CostModel::prune(std::uint64_t nnz) const {
  return static_cast<double>(nnz) /
         (prune_rate / m_.work_scale * cpu_threads());
}

vtime_t CostModel::topk_select(std::uint64_t nnz, std::uint64_t ncols,
                               int k) const {
  // Heap-select per column: nnz passes through lg k heaps, plus O(ncols)
  // bookkeeping. Selection scales *sublinearly* in the thread count
  // (serial per-column heap phases and shared-cache contention), which is
  // why §VII-B's fat thread-based ranks lose the pruning stage to the
  // process-based layout while winning everywhere else.
  const double work = static_cast<double>(nnz) *
                          lg2(static_cast<double>(std::max(k, 2))) +
                      static_cast<double>(ncols);
  const double effective_threads = std::pow(cpu_threads(), 0.85);
  return work / (select_rate / m_.work_scale * effective_threads);
}

vtime_t CostModel::inflate(std::uint64_t nnz) const {
  return static_cast<double>(nnz) /
         (inflate_rate / m_.work_scale * cpu_threads());
}

vtime_t CostModel::symbolic_spgemm(std::uint64_t flops) const {
  return static_cast<double>(flops) /
         (symbolic_rate / m_.work_scale * cpu_threads());
}

vtime_t CostModel::cohen_estimate(std::uint64_t nnz_a, std::uint64_t nnz_b,
                                  int keys) const {
  return static_cast<double>(keys) * static_cast<double>(nnz_a + nnz_b) /
         (cohen_rate / m_.work_scale * cpu_threads());
}

vtime_t CostModel::cohen_estimate_gpu(std::uint64_t nnz_a,
                                      std::uint64_t nnz_b, int keys) const {
  // Scale the host path by the device/host throughput ratio (per rank:
  // all its GPUs against all its threads), plus one launch.
  const double node_gpu = m_.gpu_rate_flops *
                          static_cast<double>(std::max(1, m_.gpus_per_rank));
  const double node_cpu = m_.cpu_core_rate_flops * cpu_threads();
  const double ratio = node_gpu / node_cpu;
  return m_.gpu_launch_s + cohen_estimate(nnz_a, nnz_b, keys) / ratio;
}

vtime_t CostModel::other(std::uint64_t n) const {
  return static_cast<double>(n) /
         (other_rate / m_.work_scale * cpu_threads());
}

}  // namespace mclx::sim
