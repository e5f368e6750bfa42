#include "core/inflate.hpp"

#include <cmath>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace mclx::core {

namespace {

using sim::Stage;

/// Divide every column by its sum. HipMCL's ranks each sum their
/// block's segment of a column, and one allreduce along the grid column
/// folds the segment sums; the host folds them in the same block order,
/// each segment summed on its own with the fixed 4-lane simd::sum, so
/// the sums are those bits. Columns are independent, so the sweep chunks
/// over columns on the shared pool, bit-identical at any thread count.
void normalize_grid_columns(dist::DistMat& m, sim::SimState& sim,
                            bool charge_pow) {
  const sim::CostModel model(sim.machine());
  const int dim = m.dim();
  const vidx_t* colptr = m.to_csc().colptr().data();
  const vidx_t* rows = m.to_csc().rowids().data();
  val_t* const vals = m.mutable_vals().data();
  std::vector<vidx_t> row_ends;
  for (int i = 1; i <= dim; ++i) row_ends.push_back(m.row_offset(i));
  par::parallel_chunks(vidx_t{0}, m.ncols(), [&](vidx_t c0, vidx_t c1, int) {
    for (vidx_t c = c0; c < c1; ++c) {
      val_t sum = 0.0;
      const vidx_t* const end = rows + colptr[c + 1];
      const vidx_t* row_end = row_ends.data();
      for (const vidx_t* p = rows + colptr[c]; p < end;) {
        while (*p >= *row_end) ++row_end;  // the row block of *p
        const vidx_t* q = p + 1;
        while (q < end && *q < *row_end) ++q;
        sum += simd::sum(vals + (p - rows), static_cast<std::size_t>(q - p));
        p = q;
      }
      if (sum != 0.0) {
        simd::div_by(vals + colptr[c],
                     static_cast<std::size_t>(colptr[c + 1] - colptr[c]), sum);
      }
    }
  });
  obs::count("kernel.simd.inflate_elems", m.nnz());

  // Per grid column: each rank's partial-sum pass, the partial-sum
  // exchange along the grid column, then each rank's divide.
  for (int j = 0; j < dim; ++j) {
    const auto ncols = static_cast<std::uint64_t>(m.block_cols(j));
    for (int i = 0; i < dim; ++i) {
      const int rank = m.grid().rank_of(i, j);
      sim.rank(rank).cpu_run(Stage::kOther,
                             model.other(m.block_nnz(i, j) + ncols));
      if (charge_pow) {
        sim.rank(rank).cpu_run(Stage::kOther, model.inflate(m.block_nnz(i, j)));
      }
    }
    sim::sim_allreduce(sim, m.grid().col_ranks(j),
                       static_cast<bytes_t>(ncols * sizeof(val_t)),
                       Stage::kOther);
    for (int i = 0; i < dim; ++i) {
      sim.rank(m.grid().rank_of(i, j))
          .cpu_run(Stage::kOther, model.inflate(m.block_nnz(i, j)));
    }
  }
}

}  // namespace

void distributed_inflate(dist::DistMat& m, double power, sim::SimState& sim) {
  // Hadamard power: purely local, elementwise — chunked on the pool and
  // vectorized per chunk (x·x for the MCL-standard power 2, scalar pow
  // otherwise; see util/simd.hpp for the numerics note).
  const std::span<val_t> vals = m.mutable_vals();
  par::parallel_chunks(std::size_t{0}, vals.size(),
                       [&](std::size_t lo, std::size_t hi, int) {
                         simd::hadamard_pow(vals.data() + lo, hi - lo, power);
                       });
  normalize_grid_columns(m, sim, /*charge_pow=*/true);
}

void distributed_normalize(dist::DistMat& m, sim::SimState& sim) {
  normalize_grid_columns(m, sim, /*charge_pow=*/false);
}

}  // namespace mclx::core
