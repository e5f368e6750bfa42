// k-way merge of equally-shaped CSC blocks: the summation step of Sparse
// SUMMA (Cij = Σ_k Aik·Bkj) expressed as a merge of the k partial
// products, column by column.
//
// Fold order: equal (col,row) coordinates add left to right in block
// order — the first block holding the coordinate gives its value, the
// later ones add theirs — the order every SpGEMM kind folds its products
// in (docs/KERNELS.md, "Fold order"). Three or more blocks merge in one
// linear k-pointer pass: the smallest head row is found by a scan over
// the k cursors, then every cursor at that row folds in, in block order.
// Two blocks take the two-pointer loop, the k = 2 case of the same fold.
// No heap: a heap's tie order is its library's, not the blocks'.
//
// One sequential pass on the calling thread writes the merged columns
// into the output arrays, reserved for the blocks' summed nnz (the most
// the merge can produce) and charged once to "merge.scratch".
#pragma once

#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/mem.hpp"
#include "sparse/csc.hpp"

namespace mclx::merge {

/// Merge `blocks` (all same shape) into their sum. Accepts pointers so
/// callers can mix owned and borrowed blocks without copies.
template <typename IT, typename VT>
sparse::Csc<IT, VT> kway_merge(
    std::span<const sparse::Csc<IT, VT>* const> blocks) {
  if (blocks.empty()) throw std::invalid_argument("kway_merge: no blocks");
  const IT nrows = blocks.front()->nrows();
  const IT ncols = blocks.front()->ncols();
  for (const auto* b : blocks) {
    if (b->nrows() != nrows || b->ncols() != ncols)
      throw std::invalid_argument("kway_merge: shape mismatch");
  }
  if (blocks.size() == 1) return *blocks.front();

  std::size_t total = 0;
  for (const auto* b : blocks) total += b->nnz();

  std::vector<IT> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  std::vector<IT> rowids;
  std::vector<VT> vals;
  rowids.reserve(total);
  vals.reserve(total);
  const obs::MemScope scratch_mem(
      "merge.scratch", sparse::Csc<IT, VT>::bytes_for(ncols, total));
  const auto end_column = [&](IT j) {
    colptr[static_cast<std::size_t>(j) + 1] = static_cast<IT>(rowids.size());
  };

  if (blocks.size() == 2) {
    const auto& x = *blocks[0];
    const auto& y = *blocks[1];
    for (IT j = 0; j < ncols; ++j) {
      const auto xr = x.col_rows(j);
      const auto xv = x.col_vals(j);
      const auto yr = y.col_rows(j);
      const auto yv = y.col_vals(j);
      std::size_t p = 0, q = 0;
      while (p < xr.size() && q < yr.size()) {
        if (xr[p] < yr[q]) {
          rowids.push_back(xr[p]);
          vals.push_back(xv[p++]);
        } else if (yr[q] < xr[p]) {
          rowids.push_back(yr[q]);
          vals.push_back(yv[q++]);
        } else {
          rowids.push_back(xr[p]);
          vals.push_back(xv[p++] + yv[q++]);
        }
      }
      for (const auto rest : {xr.subspan(p), yr.subspan(q)}) {
        rowids.insert(rowids.end(), rest.begin(), rest.end());
      }
      for (const auto rest : {xv.subspan(p), yv.subspan(q)}) {
        vals.insert(vals.end(), rest.begin(), rest.end());
      }
      end_column(j);
    }
  } else {
    // One cursor per block over its part of column j; `head` is the row
    // under the cursor, or kDone (above every real row) once it is spent.
    struct Cursor {
      const IT* row;
      const IT* end;
      const VT* val;
      IT head;
    };
    constexpr IT kDone = std::numeric_limits<IT>::max();
    const auto advance = [](Cursor& c) {
      ++c.row;
      ++c.val;
      c.head = c.row != c.end ? *c.row : kDone;
    };
    std::vector<Cursor> cursors(blocks.size());
    for (IT j = 0; j < ncols; ++j) {
      for (std::size_t w = 0; w < blocks.size(); ++w) {
        const auto rows = blocks[w]->col_rows(j);
        Cursor& c = cursors[w];
        c.row = rows.data();
        c.end = rows.data() + rows.size();
        c.val = blocks[w]->col_vals(j).data();
        c.head = rows.empty() ? kDone : rows.front();
      }
      for (;;) {
        std::size_t first = 0;
        for (std::size_t w = 1; w < cursors.size(); ++w) {
          if (cursors[w].head < cursors[first].head) first = w;
        }
        const IT row = cursors[first].head;
        if (row == kDone) break;
        VT sum = *cursors[first].val;
        advance(cursors[first]);
        for (std::size_t w = first + 1; w < cursors.size(); ++w) {
          if (cursors[w].head == row) {
            sum += *cursors[w].val;
            advance(cursors[w]);
          }
        }
        rowids.push_back(row);
        vals.push_back(sum);
      }
      end_column(j);
    }
  }

  // Overlapping blocks merge to fewer entries than reserved; a merged
  // block held for a later merge carries no growth slack.
  rowids.shrink_to_fit();
  vals.shrink_to_fit();
  return sparse::Csc<IT, VT>(nrows, ncols, std::move(colptr),
                             std::move(rowids), std::move(vals));
}

/// Convenience overload for owned vectors.
template <typename IT, typename VT>
sparse::Csc<IT, VT> kway_merge(const std::vector<sparse::Csc<IT, VT>>& blocks) {
  std::vector<const sparse::Csc<IT, VT>*> ptrs;
  ptrs.reserve(blocks.size());
  for (const auto& b : blocks) ptrs.push_back(&b);
  return kway_merge<IT, VT>(ptrs);
}

}  // namespace mclx::merge
