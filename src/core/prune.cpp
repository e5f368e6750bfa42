#include "core/prune.hpp"

#include <cstdint>

namespace mclx::core {

void prune_chunks(std::vector<dist::CscD>& chunks, const dist::ProcGrid& grid,
                  const PruneParams& params, sim::SimState& sim) {
  const int dim = grid.dim();
  std::vector<std::uint64_t> unpruned(chunks.size(), 0);
  std::vector<std::uint64_t> recovered(chunks.size(), 0);
  std::vector<vidx_t> widths;
  dist::ColumnPrune rule(params);
  std::vector<val_t> column;
  for (int j = 0; j < dim; ++j) {
    const std::vector<int> ranks = grid.col_ranks(j);
    const vidx_t width =
        chunks[static_cast<std::size_t>(ranks.front())].ncols();
    widths.push_back(width);
    std::vector<std::vector<vidx_t>> colptr(ranks.size(), {vidx_t{0}});
    std::vector<std::vector<vidx_t>> rows(ranks.size());
    std::vector<std::vector<val_t>> vals(ranks.size());
    for (vidx_t c = 0; c < width; ++c) {
      column.clear();
      for (const int r : ranks) {
        const auto piece = chunks[static_cast<std::size_t>(r)].col_vals(c);
        column.insert(column.end(), piece.begin(), piece.end());
      }
      rule.run(column);
      std::size_t first = 0;
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        const auto r = static_cast<std::size_t>(ranks[i]);
        const dist::CscD& piece = chunks[r];
        const auto n = static_cast<std::size_t>(piece.col_nnz(c));
        recovered[r] += rule.append_kept(first, n, piece.col_rows(c).data(),
                                         piece.col_vals(c).data(), rows[i],
                                         vals[i]);
        colptr[i].push_back(static_cast<vidx_t>(rows[i].size()));
        first += n;
      }
    }
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      dist::CscD& piece = chunks[static_cast<std::size_t>(ranks[i])];
      unpruned[static_cast<std::size_t>(ranks[i])] = piece.nnz();
      piece = dist::CscD(piece.nrows(), width, std::move(colptr[i]),
                         std::move(rows[i]), std::move(vals[i]));
    }
  }
  dist::charge_prune(sim, grid, params, widths, unpruned, recovered);
}

}  // namespace mclx::core
