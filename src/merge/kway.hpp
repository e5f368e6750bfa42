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
// Columns merge independently, so the pass chunks over columns on the
// shared pool with per-chunk output buffers stitched back in chunk
// order; every column folds in the same order either way, so the result
// is bit-identical to the sequential merge.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/mem.hpp"
#include "sparse/csc.hpp"
#include "util/parallel.hpp"

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

  const int chunks = par::plan_chunks(IT{0}, ncols);
  std::vector<std::vector<IT>> chunk_rows(
      static_cast<std::size_t>(std::max(chunks, 0)));
  std::vector<std::vector<VT>> chunk_vals(chunk_rows.size());

  auto merge_two_columns = [&](IT j0, IT j1, std::vector<IT>& out_rows,
                               std::vector<VT>& out_vals) {
    const auto& x = *blocks[0];
    const auto& y = *blocks[1];
    for (IT j = j0; j < j1; ++j) {
      const auto xr = x.col_rows(j);
      const auto xv = x.col_vals(j);
      const auto yr = y.col_rows(j);
      const auto yv = y.col_vals(j);
      const auto col_start = out_rows.size();
      std::size_t p = 0, q = 0;
      while (p < xr.size() && q < yr.size()) {
        if (xr[p] < yr[q]) {
          out_rows.push_back(xr[p]);
          out_vals.push_back(xv[p++]);
        } else if (yr[q] < xr[p]) {
          out_rows.push_back(yr[q]);
          out_vals.push_back(yv[q++]);
        } else {
          out_rows.push_back(xr[p]);
          out_vals.push_back(xv[p++] + yv[q++]);
        }
      }
      for (const auto rest : {xr.subspan(p), yr.subspan(q)}) {
        out_rows.insert(out_rows.end(), rest.begin(), rest.end());
      }
      for (const auto rest : {xv.subspan(p), yv.subspan(q)}) {
        out_vals.insert(out_vals.end(), rest.begin(), rest.end());
      }
      colptr[static_cast<std::size_t>(j) + 1] =
          static_cast<IT>(out_rows.size() - col_start);
    }
  };

  auto merge_columns = [&](IT j0, IT j1, std::vector<IT>& out_rows,
                           std::vector<VT>& out_vals) {
    if (blocks.size() == 2) {
      merge_two_columns(j0, j1, out_rows, out_vals);
      return;
    }
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
    for (IT j = j0; j < j1; ++j) {
      for (std::size_t w = 0; w < blocks.size(); ++w) {
        const auto rows = blocks[w]->col_rows(j);
        Cursor& c = cursors[w];
        c.row = rows.data();
        c.end = rows.data() + rows.size();
        c.val = blocks[w]->col_vals(j).data();
        c.head = rows.empty() ? kDone : rows.front();
      }
      const auto col_start = out_rows.size();
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
        out_rows.push_back(row);
        out_vals.push_back(sum);
      }
      colptr[static_cast<std::size_t>(j) + 1] =
          static_cast<IT>(out_rows.size() - col_start);
    }
  };

  par::parallel_chunks(IT{0}, ncols, [&](IT j0, IT j1, int c) {
    auto& rows = chunk_rows[static_cast<std::size_t>(c)];
    auto& vals = chunk_vals[static_cast<std::size_t>(c)];
    rows.reserve(total / static_cast<std::size_t>(std::max(chunks, 1)));
    vals.reserve(total / static_cast<std::size_t>(std::max(chunks, 1)));
    // Charge the reservation up front, grow the charge if the chunk's
    // actual output outran it; scoped so concurrent chunks stack under
    // one "merge.scratch" label (separate from the per-rank resident
    // tracks, which the legacy peak accounting must keep matching).
    obs::MemScope scratch_mem(
        "merge.scratch",
        static_cast<std::uint64_t>(rows.capacity()) * sizeof(IT) +
            static_cast<std::uint64_t>(vals.capacity()) * sizeof(VT));
    const std::size_t reserved_rows = rows.capacity();
    const std::size_t reserved_vals = vals.capacity();
    merge_columns(j0, j1, rows, vals);
    if (rows.capacity() > reserved_rows) {
      scratch_mem.add(static_cast<std::uint64_t>(rows.capacity() -
                                                 reserved_rows) *
                      sizeof(IT));
    }
    if (vals.capacity() > reserved_vals) {
      scratch_mem.add(static_cast<std::uint64_t>(vals.capacity() -
                                                 reserved_vals) *
                      sizeof(VT));
    }
  });

  for (IT j = 0; j < ncols; ++j) {
    colptr[static_cast<std::size_t>(j) + 1] +=
        colptr[static_cast<std::size_t>(j)];
  }
  std::vector<IT> rowids(
      static_cast<std::size_t>(colptr[static_cast<std::size_t>(ncols)]));
  std::vector<VT> vals(rowids.size());
  std::size_t dst = 0;
  for (std::size_t c = 0; c < chunk_rows.size(); ++c) {
    std::copy(chunk_rows[c].begin(), chunk_rows[c].end(),
              rowids.begin() + static_cast<std::ptrdiff_t>(dst));
    std::copy(chunk_vals[c].begin(), chunk_vals[c].end(),
              vals.begin() + static_cast<std::ptrdiff_t>(dst));
    dst += chunk_rows[c].size();
  }
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
