#include "core/chaos.hpp"

#include <algorithm>

#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"

namespace mclx::core {

double distributed_chaos(const dist::DistMat& m, sim::SimState& sim) {
  const sim::CostModel model(sim.machine());
  const int dim = m.dim();
  const dist::CscD& g = m.to_csc();
  // Per column: its max and its sum of squares, one entry at a time in
  // global row order, which is "row block, then row": the blocks' order.
  double chaos = 0.0;
  for (vidx_t c = 0; c < g.ncols(); ++c) {
    val_t colmax = 0.0;
    val_t colsumsq = 0.0;
    for (const val_t v : g.col_vals(c)) {
      colmax = std::max(colmax, v);
      colsumsq += v * v;
    }
    chaos = std::max(chaos, static_cast<double>(colmax - colsumsq));
  }
  for (int j = 0; j < dim; ++j) {
    const auto ncols = static_cast<std::size_t>(m.block_cols(j));
    for (int i = 0; i < dim; ++i) {
      sim.rank(m.grid().rank_of(i, j))
          .cpu_run(sim::Stage::kOther, model.other(m.block_nnz(i, j)));
    }
    // max and sumsq reductions along the grid column (one fused message).
    sim::sim_allreduce(sim, m.grid().col_ranks(j),
                       static_cast<bytes_t>(2 * ncols * sizeof(val_t)),
                       sim::Stage::kOther);
  }
  return chaos;
}

}  // namespace mclx::core
