// Analytic cost model: converts *measured work quantities* (flops, nnz,
// bytes, merge widths) into virtual seconds on the simulated machine.
//
// This is the load-bearing piece of the Summit substitution, so the
// modeling choices are spelled out:
//
//  * CPU hash SpGEMM: t = flops / (core_rate · threads). Hash SpGEMM is
//    O(flops) with a throughput set by random-access memory bandwidth.
//  * CPU heap SpGEMM: t = flops · lg(2 + w̄) / (heap_rate · threads) where
//    w̄ is the mean merge width (nnz of B's columns). The lg factor is the
//    heap's comparison cost — this is exactly why the paper replaces it.
//  * GPU kernels: t = launch + flops / (gpu_rate · eff(cf)). Each library
//    gets its own efficiency curve in the compression factor, shaped to
//    reproduce the paper's ranking (§VII-B): nsparse dominates at large
//    cf, rmerge2 edges ahead at small cf, bhsparse sits between.
//  * Broadcasts: binomial tree, t = ⌈lg p⌉ · (α + bytes·β).
//  * Merging: t = elems · lg(ways+1) / (merge_rate · threads) — the
//    multiway/binary merge complexity of §IV with a bandwidth constant.
//
// Constants are calibrated so the *shapes* of Figs 1/4-8 and Tables II-V
// emerge; absolute seconds are not claims. Every constant lives here.
#pragma once

#include <cstdint>

#include "sim/machine.hpp"
#include "spgemm/kernels.hpp"
#include "util/types.hpp"

namespace mclx::sim {

class CostModel {
 public:
  explicit CostModel(const MachineConfig& machine) : m_(machine) {}

  const MachineConfig& machine() const { return m_; }

  // --- local SpGEMM -------------------------------------------------------
  /// `mean_merge_width`: average nnz of B's columns (heap's lg factor).
  /// `cf`: flops / nnz(C) of this multiply.
  vtime_t local_spgemm(spgemm::KernelKind kind, std::uint64_t flops,
                       double cf, double mean_merge_width) const;

  /// Efficiency (0..1] of a GPU library at compression factor cf.
  double gpu_efficiency(spgemm::KernelKind kind, double cf) const;

  // --- transfers / network ------------------------------------------------
  vtime_t h2d(bytes_t bytes) const;
  vtime_t d2h(bytes_t bytes) const;
  /// One tree broadcast among `group` ranks of a `bytes`-sized payload.
  vtime_t bcast(int group, bytes_t bytes) const;
  /// Tree allreduce/allgather of `bytes` among `group` ranks.
  vtime_t allreduce(int group, bytes_t bytes) const;
  vtime_t allgather(int group, bytes_t bytes_per_rank) const;

  // --- merging & element-wise stages --------------------------------------
  vtime_t merge(std::uint64_t elems, int ways) const;
  vtime_t prune(std::uint64_t nnz) const;
  vtime_t topk_select(std::uint64_t nnz, std::uint64_t ncols, int k) const;
  vtime_t inflate(std::uint64_t nnz) const;

  // --- memory estimation ---------------------------------------------------
  vtime_t symbolic_spgemm(std::uint64_t flops) const;
  vtime_t cohen_estimate(std::uint64_t nnz_a, std::uint64_t nnz_b,
                         int keys) const;
  /// Device-side Cohen estimation (the conclusions' future-work item):
  /// key propagation is a bandwidth-bound gather/min — the device runs it
  /// at the gpu/cpu rate ratio over the host path.
  vtime_t cohen_estimate_gpu(std::uint64_t nnz_a, std::uint64_t nnz_b,
                             int keys) const;

  /// Miscellaneous O(n) bookkeeping charged to Stage::kOther.
  vtime_t other(std::uint64_t n) const;

  // Tunable kernel-level constants (public so ablation benches can sweep).
  double heap_rate_scale = 1.0;   ///< multiplies the heap comparison rate
  double merge_rate_elems = 1.2e9; ///< merged elems/s/core
  double prune_rate = 3e9;        ///< entries/s/core
  double inflate_rate = 1.5e9;    ///< entries/s/core
  double select_rate = 4e9;       ///< entries/s/core through top-k heaps
                                  ///< (sublinear thread scaling, see .cpp)
  /// Symbolic flops/s/core. Original HipMCL's exact estimation pass costs
  /// about as much as the numeric multiply (Fig 1's two dominant bars),
  /// so the symbolic rate sits near the heap kernel's effective rate.
  double symbolic_rate = 0.2e9;
  double cohen_rate = 120e6;      ///< key-propagations/s/core
  double other_rate = 300e6;      ///< misc entries/s/core

 private:
  double cpu_threads() const { return static_cast<double>(m_.threads_per_rank); }
  /// Effective per-rank inverse network bandwidth (NIC shared per node).
  double net_beta() const;
  MachineConfig m_;
};

}  // namespace mclx::sim
