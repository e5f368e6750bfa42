// HipMCL driver: the full distributed Markov Cluster loop of Algorithm 1
// with every optimization of the paper behind a configuration switch, so
// "original HipMCL" and "optimized HipMCL" (and the intermediate
// no-overlap variant of Fig 1) are the same code path with different
// HipMclConfig values:
//
//                      original          optimized(no overlap)  optimized
//  local kernel        cpu-heap          hybrid (GPU)            hybrid (GPU)
//  SUMMA               blocking          blocking                pipelined
//  merge               multiway          multiway                binary
//  memory estimation   exact symbolic    probabilistic           probabilistic
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "core/prune.hpp"
#include "dist/distmat.hpp"
#include "dist/summa.hpp"
#include "obs/progress.hpp"
#include "sim/stage.hpp"
#include "sim/timeline.hpp"
#include "spgemm/registry.hpp"
#include "util/types.hpp"

namespace mclx::order {
/// Kept only because bench/e2e/mclx_e2e.cpp assigns HipMclConfig::ordering.
enum class OrderKind { kNone };
}  // namespace mclx::order

namespace mclx::core {

struct MclParams {
  double inflation = 2.0;     ///< paper uses 2 in all experiments
  PruneParams prune;          ///< cutoff + selection number
  int max_iters = 60;
  double chaos_eps = 1e-3;    ///< converged when chaos drops below this
  bool add_self_loops = true; ///< standard MCL initialization
};

enum class EstimatorKind {
  /// original HipMCL: a full symbolic SpGEMM, O(flops), as charged; on
  /// the host the count comes from a one-phase pass of the expansion.
  kExactSymbolic,
  kProbabilistic,   ///< §V: Cohen estimator, O(r·nnz)
  /// §VII-D's refinement: "when cf is below a certain threshold, we use
  /// the exact scheme" — probabilistic while the compression factor is
  /// high (where it is much cheaper), exact once the previous iteration's
  /// cf falls under kAdaptiveCfThreshold (late, thin iterations where
  /// the symbolic pass is cheaper than r key sweeps).
  kAdaptive,
};

/// "exact", "probabilistic" or "adaptive", as the CLI and manifests name
/// them.
std::string_view to_string(EstimatorKind kind);

/// kAdaptive switches to the exact pass when the previous iteration's
/// cf drops below this.
inline constexpr double kAdaptiveCfThreshold = 4.0;

struct IterationReport;

struct HipMclConfig {
  spgemm::KernelPolicy kernel = spgemm::KernelPolicy::hybrid_policy();
  bool pipelined = true;
  bool binary_merge = true;
  EstimatorKind estimator = EstimatorKind::kProbabilistic;
  int cohen_keys = 5;
  /// Future-work extension (§VIII): run the probabilistic estimation's
  /// key propagation on the GPUs, pipelined against the host's key
  /// exchange, instead of on the CPU threads. Ignored for the exact
  /// estimator or on GPU-less machines.
  bool gpu_estimation = false;
  /// Memory available per rank for the unpruned product; 0 = use the
  /// machine's mem_per_rank. Benches shrink it to force multi-phase runs.
  bytes_t mem_budget_per_rank = 0;
  double guard_factor = 0.85;
  std::uint64_t seed = 0x5eedULL;
  /// Keep the converged matrix in the result (checkpointing resumes
  /// from it).
  bool keep_final_matrix = false;
  /// Global index of the first iteration this call runs (0 for a fresh
  /// run). Checkpoint resume passes the completed count so per-iteration
  /// estimator seeds derive from the *global* index — a resumed run draws
  /// the same Cohen sketches an uninterrupted run would, which is half of
  /// the bitwise resume contract (docs/SERVICE.md).
  int start_iteration = 0;
  /// Chaos of the iteration before start_iteration (+∞ for none). The
  /// stall rule compares the first iteration's chaos with it, so a resumed
  /// run stops where the uninterrupted run would.
  double prev_chaos = std::numeric_limits<double>::infinity();
  order::OrderKind ordering = order::OrderKind::kNone;  ///< unread
  /// The input is already column-stochastic (a checkpoint of a running
  /// iteration): skip the initial normalization. Renormalizing an
  /// already-stochastic matrix is mathematically a no-op but not bitwise
  /// (column sums land near 1.0, not at it), so this flag is the other
  /// half of the bitwise resume contract.
  bool assume_stochastic = false;
  /// Cooperative cancellation: polled after every completed iteration;
  /// returning true stops the run at that iteration boundary with
  /// MclResult::cancelled set (the iterations already run are reported
  /// normally). The service layer points this at the job's cancel flag.
  std::function<bool()> should_stop;
  /// Progress hook: called after each completed iteration with that
  /// iteration's report — the svc layer streams these as JSONL records
  /// while the run is still going. Must not throw.
  std::function<void(const IterationReport&)> on_iteration;
  /// Stage hook: called when the run enters each coarse stage of an
  /// iteration (estimate → expand → inflate → converge) and once before
  /// the final cluster interpretation. Cheaper and finer-grained than
  /// on_iteration — the svc layer points it at a live progress gauge so
  /// a long expansion shows as "expand", not as a silent iteration. Must
  /// not throw; called from the driver thread only.
  std::function<void(obs::RunStage)> on_stage;

  static HipMclConfig original();
  static HipMclConfig optimized_no_overlap();
  static HipMclConfig optimized();
};

struct IterationReport {
  int iter = 0;
  std::uint64_t nnz_before = 0;        ///< nnz(A) entering the iteration
  std::uint64_t flops = 0;             ///< flops(A·A)
  double est_unpruned_nnz = 0;         ///< estimator output
  /// nnz(A·A) before the prune, which the expansion's pass counts as it
  /// builds each column; the exact estimator's output is this count.
  std::uint64_t measured_unpruned_nnz = 0;
  bool used_exact_estimator = false;   ///< which path this iteration took
  double cf = 0;                       ///< flops / est nnz
  int phases = 1;
  std::uint64_t nnz_after_prune = 0;
  double chaos = 0;
  sim::StageTimes stage_times{};       ///< critical (max-rank) per-stage delta
  vtime_t elapsed = 0;
  /// Expansion-only (pipelined-SUMMA window) statistics: per-operation
  /// times vs achieved overall — the quantities of Table II.
  dist::SummaStats summa;
  std::uint64_t merge_peak_sum = 0;    ///< Table III peak elements (all ranks)
  std::uint64_t merge_peak_max = 0;
  vtime_t cpu_idle = 0;                ///< mean per-rank idle this iteration
  vtime_t gpu_idle = 0;
  int gpu_fallbacks = 0;
};

struct MclResult {
  std::vector<vidx_t> labels;          ///< cluster id per vertex
  vidx_t num_clusters = 0;
  /// The converged matrix (only when config.keep_final_matrix).
  std::optional<dist::DistMat> final_matrix;
  int iterations = 0;
  bool converged = false;
  /// True when config.should_stop ended the run before convergence or
  /// the iteration budget; the completed iterations are still reported.
  bool cancelled = false;
  std::vector<IterationReport> iters;
  sim::StageTimes stage_times{};       ///< whole-run critical per-stage times
  vtime_t elapsed = 0;                 ///< whole-run virtual wall time
  vtime_t mean_cpu_idle = 0;
  vtime_t mean_gpu_idle = 0;
};

/// Run HipMCL on `graph` (a weighted similarity network; made symmetric-
/// stochastic internally) over the simulated machine in `sim`. Throws
/// std::invalid_argument naming the entry when a weight is NaN, ±Inf or
/// negative; zero is a legal weight.
MclResult run_hipmcl(const dist::TriplesD& graph, const MclParams& params,
                     const HipMclConfig& config, sim::SimState& sim);

}  // namespace mclx::core
