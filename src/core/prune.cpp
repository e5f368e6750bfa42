#include "core/prune.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "obs/metrics.hpp"
#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace mclx::core {

namespace {

using sim::Stage;

/// A recovery or selection candidate: the key it is ranked by, its piece,
/// a tie key within that piece, and its nnz position there.
struct Candidate {
  val_t key;
  std::size_t piece;
  vidx_t tie;
  vidx_t pos;
};

/// Keep the `want` best candidates of column c, in the total order larger
/// key, then smaller piece, then smaller tie key (so the kept set does not
/// depend on the selection algorithm): set their keep flags and add them
/// to the column's kept counts.
void keep_best(std::vector<Candidate>& cands, std::size_t want, vidx_t c,
               std::vector<std::vector<char>>& keep,
               std::vector<std::vector<vidx_t>>& counts) {
  std::nth_element(cands.begin(),
                   cands.begin() + static_cast<std::ptrdiff_t>(want),
                   cands.end(), [](const Candidate& x, const Candidate& y) {
                     if (x.key != y.key) return x.key > y.key;
                     return std::tie(x.piece, x.tie) <
                            std::tie(y.piece, y.tie);
                   });
  for (std::size_t q = 0; q < want; ++q) {
    keep[cands[q].piece][static_cast<std::size_t>(cands[q].pos)] = 1;
    ++counts[cands[q].piece][static_cast<std::size_t>(c) + 1];
  }
}

/// Fill the keep masks of one grid column's pieces (all pieces share the
/// local column range; piece i holds the i-th row block). Each column runs
/// MCL's prune in order:
///  1. cutoff: entries with |v| >= cutoff survive;
///  2. recovery: a column left with fewer than recover_num survivors gets
///     back its largest discards by |v|, ties to the earlier piece then
///     position, until it has recover_num or no discards remain;
///  3. selection: a column with more than select_k survivors, recovered
///     ones included, keeps its exact top select_k by v, ties to the
///     earlier piece then the smaller row.
/// counts[i][c + 1] receives piece i's kept entries in column c. Returns
/// each piece's nnz after recovery, which the selection is charged on.
///
/// Columns are independent: every write lands in the column's own mask
/// positions and counts, so the pass runs column-chunked on the shared
/// pool and its result does not depend on the chunking.
std::vector<std::uint64_t> fill_keep_masks(
    const std::vector<dist::CscD*>& pieces, const PruneParams& params,
    std::vector<std::vector<char>>& keep,
    std::vector<std::vector<vidx_t>>& counts) {
  using PerPiece = std::vector<std::uint64_t>;
  const std::size_t npieces = pieces.size();
  const auto recover =
      static_cast<std::size_t>(std::max(params.recover_num, 0));
  const auto k = static_cast<std::size_t>(std::max(params.select_k, 0));
  return par::parallel_reduce(
      vidx_t{0}, pieces.front()->ncols(), PerPiece(npieces, 0),
      [&](vidx_t c0, vidx_t c1) {
        PerPiece after_recovery(npieces, 0);
        std::vector<Candidate> cands;
        for (vidx_t c = c0; c < c1; ++c) {
          const auto slot = static_cast<std::size_t>(c) + 1;
          // Vectorized threshold scan per column segment (a pure
          // predicate, so identical flags in every backend).
          std::size_t survivors = 0;
          for (std::size_t i = 0; i < npieces; ++i) {
            const dist::CscD& piece = *pieces[i];
            const auto p0 = static_cast<std::size_t>(piece.colptr()[c]);
            const auto p1 = static_cast<std::size_t>(piece.colptr()[c + 1]);
            const auto kept = simd::threshold_flags(
                piece.vals().data() + p0, p1 - p0, params.cutoff,
                keep[i].data() + p0);
            counts[i][slot] = static_cast<vidx_t>(kept);
            survivors += kept;
          }
          if (survivors < recover) {
            cands.clear();
            for (std::size_t i = 0; i < npieces; ++i) {
              const dist::CscD& piece = *pieces[i];
              for (vidx_t p = piece.colptr()[c]; p < piece.colptr()[c + 1];
                   ++p) {
                if (!keep[i][static_cast<std::size_t>(p)])
                  cands.push_back({std::abs(piece.vals()[p]), i, p, p});
              }
            }
            const std::size_t want =
                std::min(recover - survivors, cands.size());
            keep_best(cands, want, c, keep, counts);
            survivors += want;
          }
          for (std::size_t i = 0; i < npieces; ++i)
            after_recovery[i] += static_cast<std::uint64_t>(counts[i][slot]);
          if (survivors > k) {
            cands.clear();
            for (std::size_t i = 0; i < npieces; ++i) {
              const dist::CscD& piece = *pieces[i];
              for (vidx_t p = piece.colptr()[c]; p < piece.colptr()[c + 1];
                   ++p) {
                char& flag = keep[i][static_cast<std::size_t>(p)];
                if (flag) {
                  cands.push_back({piece.vals()[p], i, piece.rowids()[p], p});
                  flag = 0;
                }
              }
              counts[i][slot] = 0;
            }
            keep_best(cands, k, c, keep, counts);
          }
        }
        return after_recovery;
      },
      [](PerPiece acc, const PerPiece& part) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += part[i];
        return acc;
      });
}

/// Rebuild a piece from its kept entries: prefix-sum the per-column kept
/// counts into colptr, then scatter column-chunked through it.
void rebuild(dist::CscD& piece, const std::vector<char>& keep,
             std::vector<vidx_t> colptr) {
  const vidx_t ncols = piece.ncols();
  for (vidx_t c = 0; c < ncols; ++c) {
    colptr[static_cast<std::size_t>(c) + 1] +=
        colptr[static_cast<std::size_t>(c)];
  }
  std::vector<vidx_t> rowids(static_cast<std::size_t>(colptr.back()));
  std::vector<val_t> vals(rowids.size());
  par::parallel_chunks(vidx_t{0}, ncols, [&](vidx_t c0, vidx_t c1, int) {
    for (vidx_t c = c0; c < c1; ++c) {
      auto dst = static_cast<std::size_t>(colptr[static_cast<std::size_t>(c)]);
      for (vidx_t p = piece.colptr()[c]; p < piece.colptr()[c + 1]; ++p) {
        if (keep[static_cast<std::size_t>(p)]) {
          rowids[dst] = piece.rowids()[p];
          vals[dst] = piece.vals()[p];
          ++dst;
        }
      }
    }
  });
  piece = dist::CscD(piece.nrows(), ncols, std::move(colptr),
                     std::move(rowids), std::move(vals));
}

/// Prune one grid column's pieces in place: one keep mask per piece, one
/// rebuild. Returns each piece's nnz after recovery.
std::vector<std::uint64_t> prune_grid_column(
    const std::vector<dist::CscD*>& pieces, const PruneParams& params) {
  const auto ncols = static_cast<std::size_t>(pieces.front()->ncols());
  std::vector<std::vector<char>> keep(pieces.size());
  std::vector<std::vector<vidx_t>> counts(pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    keep[i].resize(pieces[i]->nnz());
    counts[i].assign(ncols + 1, 0);
    obs::count("kernel.simd.prune_elems", pieces[i]->nnz());
  }
  std::vector<std::uint64_t> after_recovery =
      fill_keep_masks(pieces, params, keep, counts);
  for (std::size_t i = 0; i < pieces.size(); ++i)
    rebuild(*pieces[i], keep[i], std::move(counts[i]));
  return after_recovery;
}

/// Charge one grid column's cutoff(+recovery) pass: the local sweep per
/// rank, plus (when recovery is on) the survivor-count reduction.
void charge_cutoff(sim::SimState& sim, const std::vector<int>& group,
                   const std::vector<std::uint64_t>& rank_nnz,
                   std::uint64_t ncols, bool recovery) {
  const sim::CostModel model(sim.machine());
  for (std::size_t i = 0; i < group.size(); ++i) {
    sim.rank(group[i]).cpu_run(Stage::kPrune, model.prune(rank_nnz[i]));
  }
  if (recovery) {
    sim::sim_allreduce(sim, group,
                       static_cast<bytes_t>(ncols * sizeof(vidx_t)),
                       Stage::kPrune);
  }
}

/// Charge one grid column's top-k selection as HipMCL runs it: each global
/// column is scattered across the √P ranks of the grid column, so every
/// rank selects its local top-k, the candidates are exchanged within the
/// grid column, and a final selection runs on the combined set. That is
/// exact, because the global top-k is a subset of the union of the local
/// top-k sets. `rank_nnz` is each rank's nnz entering the selection.
void charge_selection(sim::SimState& sim, const std::vector<int>& group,
                      const std::vector<std::uint64_t>& rank_nnz,
                      std::uint64_t ncols, int k) {
  const sim::CostModel model(sim.machine());
  std::uint64_t total_candidates = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const std::uint64_t local_cand =
        std::min<std::uint64_t>(rank_nnz[i],
                                ncols * static_cast<std::uint64_t>(k));
    total_candidates += local_cand;
    // Local top-k pass over the rank's entries.
    sim.rank(group[i]).cpu_run(Stage::kPrune,
                               model.topk_select(rank_nnz[i], ncols, k));
  }
  // Candidate exchange within the grid column.
  const bytes_t per_rank_bytes =
      total_candidates / std::max<std::uint64_t>(1, group.size()) *
      (sizeof(vidx_t) + sizeof(val_t));
  sim::sim_allgather(sim, group, per_rank_bytes, Stage::kPrune);
  // Final selection over the combined candidates.
  for (const int r : group) {
    sim.rank(r).cpu_run(Stage::kPrune,
                        model.topk_select(total_candidates, ncols, k));
  }
}

}  // namespace

void prune_chunks(std::vector<dist::CscD>& chunks, const dist::ProcGrid& grid,
                  const PruneParams& params, sim::SimState& sim) {
  // Virtual time models the paper's two passes in order: every grid
  // column's cutoff(+recovery) sweep, then every grid column's selection.
  const int dim = grid.dim();
  std::vector<std::vector<std::uint64_t>> selected_nnz;
  std::vector<std::uint64_t> ncols;
  for (int j = 0; j < dim; ++j) {
    std::vector<dist::CscD*> pieces;
    std::vector<std::uint64_t> rank_nnz;
    for (int i = 0; i < dim; ++i) {
      dist::CscD& chunk = chunks[static_cast<std::size_t>(grid.rank_of(i, j))];
      pieces.push_back(&chunk);
      rank_nnz.push_back(chunk.nnz());
    }
    ncols.push_back(static_cast<std::uint64_t>(pieces.front()->ncols()));
    selected_nnz.push_back(prune_grid_column(pieces, params));
    charge_cutoff(sim, grid.col_ranks(j), rank_nnz, ncols.back(),
                  params.recover_num > 0);
  }
  for (int j = 0; j < dim; ++j) {
    const auto col = static_cast<std::size_t>(j);
    charge_selection(sim, grid.col_ranks(j), selected_nnz[col], ncols[col],
                     params.select_k);
  }
}

}  // namespace mclx::core
