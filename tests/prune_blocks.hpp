// Prune a whole distributed matrix as if it were one SUMMA phase: build
// every rank's chunk from its block, run core::prune_chunks, and join the
// chunks back into the matrix.
#pragma once

#include <vector>

#include "core/prune.hpp"
#include "dist/distmat.hpp"
#include "sparse/convert.hpp"

inline void prune_blocks(mclx::dist::DistMat& m,
                         const mclx::core::PruneParams& params,
                         mclx::sim::SimState& sim) {
  const mclx::dist::ProcGrid& grid = m.grid();
  std::vector<mclx::dist::CscD> chunks;
  for (int r = 0; r < grid.nranks(); ++r) {
    const auto [i, j] = grid.coords(r);
    chunks.push_back(mclx::sparse::csc_from_dcsc(m.block(i, j)));
  }
  mclx::core::prune_chunks(chunks, grid, params, sim);
  m = mclx::dist::DistMat::from_blocks(m.nrows(), m.ncols(), grid, chunks);
}
