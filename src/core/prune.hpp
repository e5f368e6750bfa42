// MCL pruning (Algorithm 1, line 4): drop entries below the cutoff,
// recover the largest discards of over-pruned columns, then keep at most
// the top-k ("selection number") entries per column to bound density.
// HipMCL prunes each SUMMA phase's product before the next phase is
// formed (the expand+prune fusion, §II), so the prune runs on the
// per-rank column chunks of one phase.
#pragma once

#include <vector>

#include "dist/distmat.hpp"
#include "sim/timeline.hpp"
#include "util/types.hpp"

namespace mclx::core {

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

/// Prune the per-rank column chunks of one SUMMA phase in place. `chunks`
/// is indexed by rank; the ranks of one grid column hold the same local
/// column range, so every global column is pruned exactly across them.
/// Used as the PhaseSink so the unpruned product of only one batch is ever
/// resident (the paper's memory-limiting trick).
void prune_chunks(std::vector<dist::CscD>& chunks, const dist::ProcGrid& grid,
                  const PruneParams& params, sim::SimState& sim);

}  // namespace mclx::core
