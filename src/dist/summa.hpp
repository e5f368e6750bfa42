// Sparse SUMMA (Buluç & Gilbert) and the paper's Pipelined Sparse SUMMA.
//
// C = A·B on a √P×√P grid runs in √P stages; stage k broadcasts A(i,k)
// along grid rows and B(k,j) along grid columns, then every rank
// multiplies its received pair locally and merges the per-stage partial
// products into its C block.
//
// The host computes each phase's chunks once, in one pass over the
// phase's global columns of the gathered operands, folding the stages
// left to right exactly as the per-block products and their merges
// would. The pass counts what the stage loop charges — per rank and
// stage the flops and product nnz, per device slice the same, and the
// size of every stage range the binary merge folds — and the stage loop
// replays kernel selection, GPU reservations, merges and every virtual
// time from those counts: stage products and merge intermediates are
// counted, not built.
//
// Variants (§III, §IV):
//  * blocking   — original HipMCL: bcast → multiply → next stage; merging
//                 deferred to a single multiway pass after the last stage.
//  * pipelined  — local multiplies run on the (simulated) GPU; the CPU
//                 only waits for the H2D transfer, then proceeds to the
//                 next stage's broadcasts while the device computes; the
//                 binary merge folds partial products incrementally at
//                 even stages, overlapping the device work (Fig 2).
//  * phased     — B's columns are processed in `phases` batches so the
//                 unpruned product of one batch fits in memory; a caller-
//                 supplied PhaseSink (the fused prune) runs per batch.
#pragma once

#include <functional>
#include <vector>

#include "dist/distmat.hpp"
#include "sim/timeline.hpp"
#include "spgemm/registry.hpp"
#include "util/types.hpp"

namespace mclx::dist {

struct SummaOptions {
  bool pipelined = false;
  bool binary_merge = false;
  spgemm::KernelPolicy kernel = spgemm::KernelPolicy::hybrid_policy();
  int phases = 1;
  /// Iteration-level cf estimate for kernel selection (<=0: unknown).
  double cf_estimate = -1;
};

/// Called after each phase with every rank's merged (still unpruned)
/// column chunk; the fused expand+prune mutates chunks in place (and
/// charges its own simulator time). rank_chunks is indexed by rank id;
/// chunk columns are block-local [phase_col_begin, phase_col_end).
using PhaseSink = std::function<void(int phase, std::vector<CscD>& rank_chunks)>;

struct SummaStats {
  std::uint64_t total_flops = 0;
  /// Merge working-set peaks (elements): summed / maxed over ranks, where
  /// each rank contributes its worst phase (Table III's peak memory).
  std::uint64_t merge_peak_elements_sum = 0;
  std::uint64_t merge_peak_elements_max = 0;
  /// Total nnz of the merged-but-not-yet-pruned product across all ranks
  /// and phases — the measured actual the estimator audit joins against
  /// Cohen's prediction (equals symbolic nnz(A·B), but measured for free
  /// from the chunks SUMMA materializes anyway).
  std::uint64_t unpruned_nnz = 0;
  int gpu_fallbacks = 0;
  /// Per-operation times: max over ranks of virtual time attributed to
  /// the stage *within this call* (Table II's columns). SpGEMM includes
  /// host↔device transfers, as in the paper's measurement.
  vtime_t spgemm_time = 0;
  vtime_t bcast_time = 0;
  vtime_t merge_time = 0;
  vtime_t other_time = 0;
  /// Virtual wall time of the expansion itself (Table II's "overall") —
  /// excludes time spent inside the PhaseSink (the fused prune), which
  /// the paper accounts to the pruning stage, not to SUMMA.
  vtime_t elapsed = 0;
  /// Virtual wall time consumed by the PhaseSink callbacks.
  vtime_t sink_time = 0;
  /// Idle deltas (mean over ranks) within this call (Table V).
  vtime_t cpu_idle = 0;
  vtime_t gpu_idle = 0;
};

struct SummaResult {
  DistMat c;
  SummaStats stats;
};

/// Distributed multiply. `a` and `b` must share the grid size and agree on
/// the inner dimension; `sim` must have grid-size ranks. Gathers the
/// operands (once when `a` and `b` are one matrix).
SummaResult summa_multiply(const DistMat& a, const DistMat& b,
                           sim::SimState& sim, const SummaOptions& opt,
                           const PhaseSink& sink = {});

/// The same multiply on operands the caller has gathered already:
/// `ga` is a.to_csc() and `gb` is b.to_csc() (one object when `a` and
/// `b` are one matrix).
SummaResult summa_multiply(const DistMat& a, const DistMat& b,
                           const CscD& ga, const CscD& gb,
                           sim::SimState& sim, const SummaOptions& opt,
                           const PhaseSink& sink = {});

/// The block-local column range of rank-column j's chunk in `phase` out of
/// `phases` (used by sinks to map chunk columns to global columns).
std::pair<vidx_t, vidx_t> phase_col_range(vidx_t block_cols, int phase,
                                          int phases);

}  // namespace mclx::dist
