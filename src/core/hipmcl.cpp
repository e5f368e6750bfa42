#include "core/hipmcl.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/chaos.hpp"
#include "core/inflate.hpp"
#include "dist/cc.hpp"
#include "dist/summa.hpp"
#include "estimate/cohen.hpp"
#include "estimate/planner.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"
#include "sparse/ops.hpp"
#include "util/log.hpp"

namespace mclx::core {

namespace {

using sim::Stage;

/// Both estimators move the operand blocks on the Sparse SUMMA broadcast
/// schedule: stage k broadcasts block (i, k) along grid row i and block
/// (k, j) along grid column j. Un-pipelined (future work ports it to the
/// pipelined GPU path).
void charge_operand_sweep(const dist::DistMat& a, sim::SimState& sim) {
  const int dim = a.dim();
  for (int k = 0; k < dim; ++k) {
    for (int i = 0; i < dim; ++i) {
      sim::sim_bcast(sim, a.grid().row_ranks(i), a.block_bytes(i, k),
                     Stage::kMemEstimation);
    }
    for (int j = 0; j < dim; ++j) {
      sim::sim_bcast(sim, a.grid().col_ranks(j), a.block_bytes(k, j),
                     Stage::kMemEstimation);
    }
  }
}

/// Charge the *exact* estimator: the symbolic multiply needs the same
/// operand movement as SUMMA, which is why it scales as poorly as
/// expansion (§V, Fig 8).
void charge_symbolic_sweep(const dist::DistMat& a, sim::SimState& sim,
                           std::uint64_t total_flops) {
  const sim::CostModel model(sim.machine());
  charge_operand_sweep(a, sim);
  const std::uint64_t per_rank =
      total_flops / static_cast<std::uint64_t>(sim.nranks());
  for (int r = 0; r < sim.nranks(); ++r) {
    sim.rank(r).cpu_run(Stage::kMemEstimation,
                        model.symbolic_spgemm(per_rank));
  }
}

/// Charge the probabilistic estimator. Its distributed implementation
/// reuses the Sparse SUMMA communication schedule to move the operand
/// blocks whose patterns the key propagation traverses — "it mimics the
/// execution of Sparse SUMMA algorithm" (§VII-E) — which is why memory
/// estimation remains the worst-scaling stage of the optimized code
/// (Fig 8) even though its computation is only O(r·nnz). With
/// gpu_offload, the key propagation runs on the devices; the sweep and
/// the final exchange stay on the host.
void charge_cohen(const dist::DistMat& a, sim::SimState& sim, int keys,
                  bool gpu_offload) {
  const sim::CostModel model(sim.machine());
  const auto nranks = static_cast<std::uint64_t>(sim.nranks());
  const std::uint64_t share = a.nnz() / std::max<std::uint64_t>(1, nranks);
  const bool on_gpu = gpu_offload && sim.machine().gpus_per_rank > 0;

  charge_operand_sweep(a, sim);
  for (int r = 0; r < sim.nranks(); ++r) {
    auto& tl = sim.rank(r);
    if (on_gpu) {
      const bytes_t key_bytes =
          share * (sizeof(vidx_t) + sizeof(val_t)) / 4;  // indices + keys
      tl.cpu_run(Stage::kMemEstimation, model.h2d(key_bytes));
      const vtime_t done = tl.gpu_run(
          Stage::kMemEstimation, model.cohen_estimate_gpu(share, share, keys),
          tl.cpu_now());
      // The host needs the final keys back before the exchange.
      tl.cpu_wait_until(done + model.d2h(key_bytes));
    } else {
      tl.cpu_run(Stage::kMemEstimation,
                 model.cohen_estimate(share, share, keys));
    }
  }
  // Mid-layer key exchange: r doubles per (block-local) column.
  for (int j = 0; j < a.dim(); ++j) {
    const bytes_t bytes = static_cast<bytes_t>(a.block_cols(j)) *
                          static_cast<bytes_t>(keys) * sizeof(double);
    sim::sim_allreduce(sim, a.grid().col_ranks(j), bytes,
                       Stage::kMemEstimation);
  }
}

sim::StageTimes stage_delta(const sim::SimState& sim,
                            const sim::StageTimes& before) {
  sim::StageTimes now = sim.critical_stage_times();
  for (std::size_t s = 0; s < sim::kNumStages; ++s) now[s] -= before[s];
  return now;
}

/// Metrics hook: the per-iteration trajectory (chaos, nnz, flops, cf,
/// phases, estimator error) that docs/OBSERVABILITY.md catalogues under
/// the mcl.* namespace. Full per-iteration records come from
/// obs::make_run_report; these value metrics make the same quantities
/// available to callers that only install a registry.
void report_iteration(const IterationReport& rep) {
  if (!obs::context().metrics) return;
  obs::count("mcl.iterations");
  obs::count("mcl.flops", rep.flops);
  obs::count(rep.used_exact_estimator ? "mcl.estimates.exact"
                                      : "mcl.estimates.probabilistic");
  obs::record("mcl.chaos", rep.chaos);
  obs::record("mcl.cf", rep.cf);
  obs::record("mcl.phases", static_cast<double>(rep.phases));
  obs::record("mcl.nnz_after_prune", static_cast<double>(rep.nnz_after_prune));
  // Estimator error against nnz(A·A), which the expansion's pass counts.
  const auto actual = static_cast<double>(rep.measured_unpruned_nnz);
  if (actual > 0 && !rep.used_exact_estimator) {
    obs::record("estimate.rel_error",
                std::abs(rep.est_unpruned_nnz - actual) / actual);
  }
}

}  // namespace

std::string_view to_string(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kExactSymbolic: return "exact";
    case EstimatorKind::kProbabilistic: return "probabilistic";
    case EstimatorKind::kAdaptive: return "adaptive";
  }
  return "unknown";
}

HipMclConfig HipMclConfig::original() {
  HipMclConfig c;
  c.kernel = spgemm::KernelPolicy::fixed_kernel(spgemm::KernelKind::kCpuHeap);
  c.pipelined = false;
  c.binary_merge = false;
  c.estimator = EstimatorKind::kExactSymbolic;
  return c;
}

HipMclConfig HipMclConfig::optimized_no_overlap() {
  HipMclConfig c;
  c.kernel = spgemm::KernelPolicy::hybrid_policy();
  c.pipelined = false;
  c.binary_merge = false;
  c.estimator = EstimatorKind::kProbabilistic;
  return c;
}

HipMclConfig HipMclConfig::optimized() {
  HipMclConfig c;
  c.kernel = spgemm::KernelPolicy::hybrid_policy();
  c.pipelined = true;
  c.binary_merge = true;
  c.estimator = EstimatorKind::kProbabilistic;
  return c;
}

MclResult run_hipmcl(const dist::TriplesD& graph, const MclParams& params,
                     const HipMclConfig& config, sim::SimState& sim) {
  if (graph.nrows() != graph.ncols())
    throw std::invalid_argument("run_hipmcl: graph matrix must be square");
  const auto reject = [](const char* field, const char* rule,
                         const auto& value) {
    std::ostringstream msg;
    msg << "run_hipmcl: " << field << " must " << rule << ", got " << value;
    throw std::invalid_argument(msg.str());
  };
  if (!std::isfinite(params.inflation) || params.inflation <= 1.0)
    reject("inflation", "be finite and exceed 1", params.inflation);
  if (!std::isfinite(params.prune.cutoff) || params.prune.cutoff < 0)
    reject("cutoff", "be finite and non-negative", params.prune.cutoff);
  if (params.prune.select_k < 1)
    reject("select_k", "be at least 1", params.prune.select_k);
  if (params.prune.recover_num < 0)
    reject("recover_num", "be non-negative", params.prune.recover_num);
  // Weights are finite and non-negative from here on; the two-way merge's
  // bitwise argument (merge/kway.hpp) and column normalization need it.
  for (const auto& e : graph) {
    const char* bad = std::isnan(e.val)   ? "NaN"
                      : std::isinf(e.val) ? "infinite"
                      : e.val < 0         ? "negative"
                                          : nullptr;
    if (bad) {
      throw std::invalid_argument(
          std::string("run_hipmcl: ") + bad + " weight " +
          std::to_string(e.val) + " at (" + std::to_string(e.row) + ", " +
          std::to_string(e.col) + ")");
    }
  }

  const dist::ProcGrid grid(sim.nranks());
  const sim::CostModel model(sim.machine());
  const bytes_t mem_budget = config.mem_budget_per_rank != 0
                                 ? config.mem_budget_per_rank
                                 : sim.machine().mem_per_rank;

  // --- initialization: self loops + column-stochastic normalization -----
  // No sort and no copy here: DistMat::from_triples canonicalizes (sums
  // duplicates in input order) and appends each self loop after its
  // column's edges.
  dist::DistMat a =
      dist::DistMat::from_triples(graph, grid, params.add_self_loops);
  if (!config.assume_stochastic) distributed_normalize(a, sim);

  MclResult result;
  const sim::StageTimes run_before = sim.critical_stage_times();
  const vtime_t run_elapsed_before = sim.elapsed();

  const auto notify_stage = [&config](obs::RunStage stage) {
    obs::fr_record(obs::FrEventKind::kStage, obs::to_string(stage),
                   static_cast<std::uint64_t>(stage));
    if (config.on_stage) config.on_stage(stage);
  };

  double prev_chaos = config.prev_chaos;
  for (int iter = 0; iter < params.max_iters; ++iter) {
    IterationReport rep;
    rep.iter = config.start_iteration + iter + 1;  // global numbering
    rep.nnz_before = a.nnz();
    const sim::StageTimes iter_before = sim.critical_stage_times();
    const vtime_t iter_elapsed_before = sim.elapsed();

    // --- memory-requirement estimation (§V) ---------------------------
    notify_stage(obs::RunStage::kEstimate);
    bool use_exact = config.estimator == EstimatorKind::kExactSymbolic;
    if (config.estimator == EstimatorKind::kAdaptive) {
      // Previous iteration's cf decides; first iteration stays
      // probabilistic (expansion cf is highest early).
      use_exact = !result.iters.empty() &&
                  result.iters.back().cf < kAdaptiveCfThreshold;
    }
    rep.used_exact_estimator = use_exact;

    // The one host matrix, which the flop count, the estimator and the
    // expansion's product read.
    const obs::MemScope a_mem("dist.matrix", a.to_csc().bytes());
    const dist::CscD& ga = a.to_csc();
    rep.flops = sparse::spgemm_flops(ga, ga);
    dist::SummaOptions opt{.pipelined = config.pipelined,
                           .binary_merge = config.binary_merge,
                           .kernel = config.kernel,
                           .prune = params.prune};
    // The exact estimator's count is nnz(A·A), which a one-phase pass of
    // the expansion counts as it builds the product; the symbolic multiply
    // it stands for is still what the estimate stage is charged.
    std::optional<dist::SummaPass> pass;
    const dist::PhaseCounts* one_phase = nullptr;
    if (use_exact) {
      notify_stage(obs::RunStage::kExpand);
      pass.emplace(a, a, sim.machine(), opt);
      one_phase = &pass->run(0, 1);
      rep.est_unpruned_nnz = static_cast<double>(one_phase->unpruned_nnz());
      charge_symbolic_sweep(a, sim, rep.flops);
    } else {
      // Seeds derive from the *global* iteration index so a checkpoint-
      // resumed run (start_iteration > 0) draws the sketches the
      // uninterrupted run would have drawn.
      const auto est = estimate::cohen_nnz_estimate(
          ga, ga, config.cohen_keys,
          util::derive_seed(config.seed,
                            static_cast<std::uint64_t>(
                                config.start_iteration + iter)));
      rep.est_unpruned_nnz = est.total;
      charge_cohen(a, sim, config.cohen_keys, config.gpu_estimation);
    }
    rep.cf = rep.est_unpruned_nnz > 0
                 ? static_cast<double>(rep.flops) / rep.est_unpruned_nnz
                 : 1.0;

    // --- phase planning -------------------------------------------------
    estimate::PhasePlanInput plan_in;
    plan_in.est_output_nnz = rep.est_unpruned_nnz;
    plan_in.ncols_global = a.ncols();
    plan_in.grid_dim = grid.dim();
    plan_in.mem_budget_per_rank = mem_budget;
    plan_in.guard_factor = config.guard_factor;
    const estimate::PhasePlan plan = estimate::plan_phases(plan_in);
    rep.phases = plan.phases;

    // --- expansion (SUMMA) with fused prune -----------------------------
    // One phase reuses the exact estimator's pass; more rebuild the
    // product phase by phase, after freeing that pass's.
    if (!use_exact) notify_stage(obs::RunStage::kExpand);
    opt.phases = plan.phases;
    opt.cf_estimate = rep.cf;
    dist::SummaAccounting account(a, sim, opt);
    if (one_phase && plan.phases == 1) {
      account.charge(*one_phase);
    } else {
      pass.emplace(a, a, sim.machine(), opt);  // frees the estimator's first
      for (int phase = 0; phase < plan.phases; ++phase) {
        account.charge(pass->run(phase, plan.phases));
      }
    }
    dist::SummaResult expansion{pass->take_product(), {}};
    expansion.stats = account.finish(expansion.c);
    pass.reset();

    rep.summa = expansion.stats;
    rep.measured_unpruned_nnz = expansion.stats.unpruned_nnz;
    // Join the Cohen prediction recorded inside cohen_nnz_estimate with
    // the expansion's measured actual; gated on the estimator actually
    // having predicted this iteration so the audit channel stays
    // pairwise aligned.
    if (!use_exact) {
      obs::mem_measure("estimate.unpruned_nnz",
                       static_cast<double>(rep.measured_unpruned_nnz));
    }
    rep.merge_peak_sum = expansion.stats.merge_peak_elements_sum;
    rep.merge_peak_max = expansion.stats.merge_peak_elements_max;
    rep.cpu_idle = expansion.stats.cpu_idle;
    rep.gpu_idle = expansion.stats.gpu_idle;
    rep.gpu_fallbacks = expansion.stats.gpu_fallbacks;
    rep.nnz_after_prune = expansion.c.nnz();

    // --- inflation -------------------------------------------------------
    notify_stage(obs::RunStage::kInflate);
    distributed_inflate(expansion.c, params.inflation, sim);
    a = std::move(expansion.c);

    // --- convergence -------------------------------------------------------
    notify_stage(obs::RunStage::kConverge);
    rep.chaos = distributed_chaos(a, sim);
    rep.stage_times = stage_delta(sim, iter_before);
    rep.elapsed = sim.elapsed() - iter_elapsed_before;
    report_iteration(rep);
    obs::fr_record(obs::FrEventKind::kIteration, "iter",
                   static_cast<std::uint64_t>(rep.iter), rep.nnz_after_prune,
                   rep.chaos);
    result.iters.push_back(rep);
    if (config.on_iteration) config.on_iteration(rep);
    util::log_info("mcl iter ", rep.iter, ": nnz=", rep.nnz_after_prune,
                   " chaos=", rep.chaos, " phases=", rep.phases);

    result.iterations = iter + 1;
    if (rep.chaos < params.chaos_eps ||
        (rep.chaos == prev_chaos && rep.nnz_after_prune == rep.nnz_before)) {
      result.converged = true;
      break;
    }
    // Cooperative cancellation at the iteration boundary: cheap to poll,
    // and the matrix is in a checkpointable (stochastic) state here.
    if (config.should_stop && config.should_stop()) {
      result.cancelled = true;
      break;
    }
    prev_chaos = rep.chaos;
  }

  // --- interpretation: connected components are the clusters ------------
  notify_stage(obs::RunStage::kInterpret);
  dist::ComponentsResult cc = dist::connected_components(a, sim);
  result.labels = std::move(cc.labels);
  result.num_clusters = cc.num_components;
  if (config.keep_final_matrix) result.final_matrix = std::move(a);

  result.stage_times = stage_delta(sim, run_before);
  result.elapsed = sim.elapsed() - run_elapsed_before;
  // Idle accounting follows Table V's definition: time spent waiting
  // *inside* the pipelined SUMMA, summed across the run's expansions.
  for (const auto& it : result.iters) {
    result.mean_cpu_idle += it.cpu_idle;
    result.mean_gpu_idle += it.gpu_idle;
  }
  return result;
}

}  // namespace mclx::core
