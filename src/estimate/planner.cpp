#include "estimate/planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace mclx::estimate {

PhasePlan plan_phases(const PhasePlanInput& in) {
  if (in.ncols_global <= 0)
    throw std::invalid_argument("plan_phases: no columns");
  if (in.mem_budget_per_rank == 0)
    throw std::invalid_argument("plan_phases: zero memory budget");
  if (in.grid_dim <= 0)
    throw std::invalid_argument("plan_phases: bad grid dimension");
  if (in.guard_factor <= 0 || in.guard_factor > 1)
    throw std::invalid_argument("plan_phases: guard factor out of (0,1]");

  const double ranks =
      static_cast<double>(in.grid_dim) * static_cast<double>(in.grid_dim);
  // Unpruned product bytes landing on one rank if done in a single phase.
  const double full_bytes_per_rank =
      std::max(0.0, in.est_output_nnz) *
      static_cast<double>(in.bytes_per_nnz) / ranks;
  const double usable =
      static_cast<double>(in.mem_budget_per_rank) * in.guard_factor;

  PhasePlan plan;
  plan.phases = std::max(
      1, static_cast<int>(std::ceil(full_bytes_per_rank / usable)));
  // Never more phases than columns per grid column (each phase must carry
  // at least one column).
  const vidx_t cols_per_grid_col =
      (in.ncols_global + in.grid_dim - 1) / in.grid_dim;
  plan.phases = static_cast<int>(
      std::min<vidx_t>(plan.phases, std::max<vidx_t>(1, cols_per_grid_col)));
  plan.batch_cols = std::max<vidx_t>(
      1, (in.ncols_global + plan.phases - 1) / plan.phases);
  plan.est_bytes_per_rank_per_phase = static_cast<bytes_t>(
      full_bytes_per_rank / static_cast<double>(plan.phases));
  if (obs::context().metrics) {
    obs::count("planner.calls");
    obs::record("planner.phases", static_cast<double>(plan.phases));
    obs::record("planner.est_input_nnz", in.est_output_nnz);
    obs::record(
        "planner.est_bytes_per_rank_per_phase",
        static_cast<double>(plan.est_bytes_per_rank_per_phase));
  }
  // Estimator-audit prediction: the expansion this plan sizes measures
  // its materialized per-rank-per-phase bytes against this (dist/summa).
  obs::mem_predict("memory.phase_bytes",
                   static_cast<double>(plan.est_bytes_per_rank_per_phase));
  return plan;
}

}  // namespace mclx::estimate
