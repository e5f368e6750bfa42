// k-way heap merge of equally-shaped CSC blocks: the summation step of
// Sparse SUMMA (Cij = Σ_k Aik·Bkj) expressed as a merge of the k partial
// products. Column-by-column: a min-heap over the k lists' current row
// ids pops the smallest, folding equal (col,row) coordinates by addition.
//
// Two blocks take a two-pointer merge instead. A tie there sums exactly
// two values, and x + y == y + x bitwise for every non-NaN value (inputs
// are checked finite at the run_hipmcl boundary), so the heap's pop order
// never mattered for them. From three blocks up the pop order fixes the
// fold order, which the bitwise contract pins, so they keep the heap.
//
// Columns merge independently, so the heap pass chunks over columns on
// the shared pool with per-chunk output buffers stitched back in chunk
// order. Per-column fold order is the heap's deterministic pop order
// either way, so the result is bit-identical to the sequential merge.
#pragma once

#include <algorithm>
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

  struct Entry {
    IT row;
    IT pos;        // position within the block's arrays
    std::size_t which;
  };
  auto entry_greater = [](const Entry& x, const Entry& y) {
    return x.row > y.row;
  };

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
    std::vector<Entry> heap;
    for (IT j = j0; j < j1; ++j) {
      heap.clear();
      for (std::size_t w = 0; w < blocks.size(); ++w) {
        const auto* b = blocks[w];
        if (b->col_nnz(j) > 0) {
          heap.push_back({b->col_rows(j)[0], b->colptr()[j], w});
        }
      }
      std::make_heap(heap.begin(), heap.end(), entry_greater);

      const auto col_start = out_rows.size();
      IT current_row = IT{-1};
      VT current_val{};
      bool has_current = false;
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), entry_greater);
        Entry top = heap.back();
        heap.pop_back();
        const auto* b = blocks[top.which];
        const VT v = b->vals()[top.pos];
        if (has_current && top.row == current_row) {
          current_val += v;
        } else {
          if (has_current) {
            out_rows.push_back(current_row);
            out_vals.push_back(current_val);
          }
          current_row = top.row;
          current_val = v;
          has_current = true;
        }
        const IT next = top.pos + 1;
        if (next < b->colptr()[j + 1]) {
          heap.push_back({b->rowids()[next], next, top.which});
          std::push_heap(heap.begin(), heap.end(), entry_greater);
        }
      }
      if (has_current) {
        out_rows.push_back(current_row);
        out_vals.push_back(current_val);
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
