// MCL pruning (Algorithm 1, line 4): drop entries below the cutoff,
// recover the largest discards of over-pruned columns, then keep at most
// the top-k ("selection number") entries per column to bound density.
// HipMCL prunes each SUMMA phase's product before the next phase is
// formed (the expand+prune fusion, §II). The pipeline does so inside
// SUMMA's phase pass (dist::SummaOptions::prune, dist::ColumnPrune), so
// the unpruned product never exists; this header keeps the names the
// e2e probe and the tests use.
#pragma once

#include <vector>

#include "dist/distmat.hpp"
#include "dist/summa.hpp"
#include "sim/timeline.hpp"

namespace mclx::core {

using PruneParams = dist::PruneParams;

/// Prune the per-rank column chunks of one SUMMA phase in place, by the
/// rule and charges the pass uses. `chunks` is indexed by rank; the ranks
/// of one grid column hold the same local column range, so every global
/// column is pruned exactly across them. Kept only as the e2e probe's
/// PhaseSink and for tests.
void prune_chunks(std::vector<dist::CscD>& chunks, const dist::ProcGrid& grid,
                  const PruneParams& params, sim::SimState& sim);

}  // namespace mclx::core
