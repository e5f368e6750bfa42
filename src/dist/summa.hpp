// Sparse SUMMA (Buluç & Gilbert) and the paper's Pipelined Sparse SUMMA.
//
// C = A·B on a √P×√P grid runs in √P stages; stage k broadcasts A(i,k)
// along grid rows and B(k,j) along grid columns, then every rank
// multiplies its received pair locally and merges the per-stage partial
// products into its C block.
//
// The host pass (SummaPass) computes each phase's columns once, in one
// pass over the phase's global columns of the operands' host matrices,
// folding the stages left to right exactly as the per-block products and
// their merges would. The pass counts what the stage loop charges — per
// rank and stage the flops and product nnz, per device slice the same, and
// the size of every stage range the binary merge folds — and the
// accounting (SummaAccounting) replays kernel selection, GPU reservations,
// merges and every virtual time from those counts: stage products and
// merge intermediates are counted, not built. summa_multiply composes the
// two; the exact estimator drives them itself, to read nnz(A·A) off a
// one-phase pass before it plans the phases.
//
// Variants (§III, §IV):
//  * blocking   — original HipMCL: bcast → multiply → next stage; merging
//                 deferred to a single multiway pass after the last stage.
//  * pipelined  — local multiplies run on the (simulated) GPU; the CPU
//                 only waits for the H2D transfer, then proceeds to the
//                 next stage's broadcasts while the device computes; the
//                 binary merge folds partial products incrementally at
//                 even stages, overlapping the device work (Fig 2).
//  * phased     — B's columns are processed in `phases` batches, each
//                 pruned as it is formed (the fused expand+prune, §II):
//                 the pass prunes every global column right after it is
//                 extracted and keeps only the survivors, so the unpruned
//                 product never exists on the host; SUMMA charges the
//                 prune's two virtual passes where HipMCL runs them,
//                 after each batch's merge.
#pragma once

#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "dist/distmat.hpp"
#include "gpuk/multigpu.hpp"
#include "sim/timeline.hpp"
#include "spgemm/registry.hpp"
#include "util/types.hpp"

namespace mclx::dist {

/// MCL's prune (Algorithm 1, line 4): drop entries below the cutoff,
/// recover the largest discards of over-pruned columns, then keep at most
/// the top-k ("selection number") entries per column to bound density.
struct PruneParams {
  val_t cutoff = 1e-4;  ///< threshold below which entries are discarded
  int select_k = 50;    ///< max entries kept per column (MCL's ~1000, scaled)
  /// MCL's recovery: if cutoff pruning leaves a column with fewer than
  /// `recover_num` entries, the largest discarded entries are recovered
  /// until the column has recover_num (or no discards remain). Guards
  /// against over-pruning sparse columns whose mass sits just under the
  /// cutoff. 0 disables recovery.
  int recover_num = 0;
};

/// The prune of one global column, in MCL's order:
///  1. cutoff: entries with |v| >= cutoff survive;
///  2. recovery: a column left with fewer than recover_num survivors gets
///     back its largest discards by |v| until it has recover_num or no
///     discards remain;
///  3. selection: a column with more than select_k survivors, recovered
///     ones included, keeps its exact top select_k by v.
/// Both rankings break ties to the earlier position, so the kept set is
/// unique. A column's entries come in global row order, which is also
/// "row block, then row" across the ranks of a grid column.
class ColumnPrune {
 public:
  /// Each entry's fate after run(): dropped by the cutoff (and not
  /// recovered), dropped by the selection, or kept.
  static constexpr char kDropped = 0;
  static constexpr char kKept = 1;
  static constexpr char kUnselected = 2;

  explicit ColumnPrune(const PruneParams& params) : params_(params) {}

  /// Decides the fate of each of one column's values, in position order.
  /// The span stays valid until the next call.
  std::span<const char> run(std::span<const val_t> vals);

  /// Appends the kept ones of `n` entries, whose fates start at position
  /// `first` of the last run, to a piece. Returns how many of them
  /// survived the recovery, which is what the selection is charged on.
  std::uint64_t append_kept(std::size_t first, std::size_t n,
                            const vidx_t* rows, const val_t* vals,
                            std::vector<vidx_t>& out_rows,
                            std::vector<val_t>& out_vals) const;

  /// Bytes of the scratch held between calls.
  std::uint64_t bytes() const {
    return fate_.capacity() + cands_.capacity() * sizeof(Candidate);
  }

 private:
  struct Candidate {
    val_t key;
    vidx_t pos;
  };
  /// Marks the `want` best candidates kept: larger key, then the earlier
  /// position.
  void keep_best(std::size_t want);

  PruneParams params_;
  std::vector<char> fate_;
  std::vector<Candidate> cands_;
};

/// Charges one phase's prune as the paper's two passes, in order: every
/// grid column's cutoff sweep (with recovery, also its survivor-count
/// reduction), then every grid column's top-k selection. Per rank:
/// `unpruned` is its chunk's nnz before the cutoff and `recovered` its
/// nnz after the recovery; `widths` is each grid column's chunk width.
/// Also counts the swept entries as `kernel.simd.prune_elems`.
void charge_prune(sim::SimState& sim, const ProcGrid& grid,
                  const PruneParams& params, std::span<const vidx_t> widths,
                  std::span<const std::uint64_t> unpruned,
                  std::span<const std::uint64_t> recovered);

struct SummaOptions {
  bool pipelined = false;
  bool binary_merge = false;
  spgemm::KernelPolicy kernel = spgemm::KernelPolicy::hybrid_policy();
  int phases = 1;
  /// Iteration-level cf estimate for kernel selection (<=0: unknown).
  double cf_estimate = -1;
  /// The fused prune: with a rule, the pass keeps only each column's
  /// survivors and the call charges the prune after every phase.
  std::optional<PruneParams> prune;
};

/// Called after each phase with every rank's merged column chunk (pruned
/// when SummaOptions::prune is set); it may mutate the chunks in place
/// and charge simulator time. rank_chunks is indexed by rank id; chunk
/// columns are block-local [phase_col_begin, phase_col_end). Kept for the
/// e2e probe, which times core::prune_chunks as a sink, and for tests.
using PhaseSink = std::function<void(int phase, std::vector<CscD>& rank_chunks)>;

struct SummaStats {
  std::uint64_t total_flops = 0;
  /// Merge working-set peaks (elements): summed / maxed over ranks, where
  /// each rank contributes its worst phase (Table III's peak memory).
  std::uint64_t merge_peak_elements_sum = 0;
  std::uint64_t merge_peak_elements_max = 0;
  /// Total nnz of the merged-but-not-yet-pruned product across all ranks
  /// and phases — the measured actual the estimator audit joins against
  /// Cohen's prediction (equals symbolic nnz(A·B), counted by the pass as
  /// it extracts each column, before the prune).
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
  /// excludes the fused prune's charges and any PhaseSink, which the
  /// paper accounts to the pruning stage, not to SUMMA.
  vtime_t elapsed = 0;
  /// Virtual wall time of the fused prune's charges and the PhaseSink
  /// callbacks.
  vtime_t sink_time = 0;
  /// Idle deltas (mean over ranks) within this call (Table V).
  vtime_t cpu_idle = 0;
  vtime_t gpu_idle = 0;
};

struct SummaResult {
  DistMat c;
  SummaStats stats;
};

/// One phase's counts from the host pass: all that the accounting reads.
struct PhaseCounts {
  int dim = 0;
  int nslices = 1;             ///< device slices per chunk (1: not counted)
  bool device_slices = false;  ///< a GPU kind can run: multiplies see slices
  /// The stage ranges Algorithm 2 folds short of the whole phase.
  std::vector<std::pair<int, int>> ranges;
  std::vector<vidx_t> widths;            ///< per grid column: chunk width
  std::vector<std::uint64_t> unpruned;   ///< per rank: nnz before the prune
  std::vector<std::uint64_t> recovered;  ///< per rank: after the recovery
  /// Per rank r, stage k and slice d, at (r·dim + k)·nslices + d.
  std::vector<gpuk::SliceCounts> slices;
  /// Per rank r and range u, at r·ranges.size() + u: the range's size.
  std::vector<std::uint64_t> unions;

  /// nnz(A·B) over the phase's columns, before the prune.
  std::uint64_t unpruned_nnz() const {
    return std::accumulate(unpruned.begin(), unpruned.end(), std::uint64_t{0});
  }
  /// Entries of the sum of rank r's stage products [first, end).
  std::uint64_t merged_size(int r, int first, int end) const;
};

/// SUMMA's host half: builds the product phase by phase, pruned when
/// `opt.prune` is set, and counts each phase (device slices only when
/// `opt.kernel` can run a GPU kind on `machine`). `opt.phases` is unread.
class SummaPass {
 public:
  SummaPass(const DistMat& a, const DistMat& b,
            const sim::MachineConfig& machine, const SummaOptions& opt);
  ~SummaPass();

  /// Builds phase `phase` of `phases`, appends its columns to the product
  /// and returns its counts, valid until the next call.
  const PhaseCounts& run(int phase, int phases);
  /// Hands `sink` the last phase's columns as rank chunks and puts them
  /// back, edits included.
  void sink(const PhaseSink& sink, int phase);
  /// The product of the phases run so far; the pass holds none after.
  DistMat take_product();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// SUMMA's virtual half: charges `opt.phases` phases from their counts.
/// Construction starts the expansion, so it follows every earlier charge.
class SummaAccounting {
 public:
  SummaAccounting(const DistMat& a, sim::SimState& sim,
                  const SummaOptions& opt);

  /// Charges the next phase: the ranks meet at a barrier, then the
  /// broadcasts, multiplies and merges, the prune and `sink`, whose
  /// virtual time is SummaStats::sink_time's.
  void charge(const PhaseCounts& counts,
              const std::function<void()>& sink = {});
  /// Charges placing the product `c`; the call's statistics.
  SummaStats finish(const DistMat& c);

 private:
  const DistMat& a_;
  sim::SimState& sim_;
  SummaOptions opt_;
  std::vector<spgemm::LocalMultiplier> mults_;  ///< per rank
  std::vector<sim::StageTimes> stages_before_;  ///< per rank
  std::vector<std::pair<vtime_t, vtime_t>> idle_before_;  ///< cpu, gpu
  vtime_t elapsed_before_ = 0;
  std::vector<std::uint64_t> rank_peak_;  ///< per rank: peak merge elements
  std::uint64_t unpruned_bytes_ = 0;
  SummaStats stats_;
};

/// Distributed multiply: SummaPass and SummaAccounting over `opt.phases`
/// phases, `sink` after each phase's prune. `a` and `b` must share the
/// grid size and agree on the inner dimension; `sim` must have grid-size
/// ranks.
SummaResult summa_multiply(const DistMat& a, const DistMat& b,
                           sim::SimState& sim, const SummaOptions& opt,
                           const PhaseSink& sink = {});

/// The block-local column range of rank-column j's chunk in `phase` out of
/// `phases` (used by sinks to map chunk columns to global columns).
std::pair<vidx_t, vidx_t> phase_col_range(vidx_t block_cols, int phase,
                                          int phases);

}  // namespace mclx::dist
