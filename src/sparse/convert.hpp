// Conversions among Triples / CSC / DCSC, plus transpose, and the
// windows and stacks that cut blocks out of a matrix and join them back.
//
// The DCSC→CSC "decompression" is the §III-B preprocessing step that
// feeds the local multiply.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/dcsc.hpp"
#include "sparse/triples.hpp"

namespace mclx::sparse {

/// Triples (any order, duplicates summed) → CSC with sorted columns.
template <typename IT, typename VT>
Csc<IT, VT> csc_from_triples(Triples<IT, VT> t) {
  t.sort_and_combine();
  const IT nrows = t.nrows();
  const IT ncols = t.ncols();
  std::vector<IT> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  std::vector<IT> rowids(t.nnz());
  std::vector<VT> vals(t.nnz());
  for (const auto& e : t) ++colptr[static_cast<std::size_t>(e.col) + 1];
  for (std::size_t j = 1; j < colptr.size(); ++j) colptr[j] += colptr[j - 1];
  std::size_t p = 0;
  for (const auto& e : t) {
    rowids[p] = e.row;
    vals[p] = e.val;
    ++p;
  }
  return Csc<IT, VT>(nrows, ncols, std::move(colptr), std::move(rowids),
                     std::move(vals));
}

template <typename IT, typename VT>
Triples<IT, VT> triples_from_csc(const Csc<IT, VT>& a) {
  Triples<IT, VT> t(a.nrows(), a.ncols());
  t.reserve(a.nnz());
  for (IT j = 0; j < a.ncols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_vals(j);
    for (std::size_t p = 0; p < rows.size(); ++p)
      t.push_unchecked(rows[p], j, vals[p]);
  }
  return t;
}

/// Explicit transpose in CSC: one counting scatter of A's entries by
/// row. Columns of the result come out sorted because A's columns are
/// visited in order.
template <typename IT, typename VT>
Csc<IT, VT> transpose(const Csc<IT, VT>& a) {
  std::vector<IT> colptr(static_cast<std::size_t>(a.nrows()) + 1, 0);
  std::vector<IT> rowids(a.nnz());
  std::vector<VT> vals(a.nnz());
  for (IT r : a.rowids()) ++colptr[static_cast<std::size_t>(r) + 1];
  for (std::size_t i = 1; i < colptr.size(); ++i) colptr[i] += colptr[i - 1];
  std::vector<IT> cursor(colptr.begin(), colptr.end() - 1);
  for (IT j = 0; j < a.ncols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto v = a.col_vals(j);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const IT dst = cursor[static_cast<std::size_t>(rows[p])]++;
      rowids[static_cast<std::size_t>(dst)] = j;
      vals[static_cast<std::size_t>(dst)] = v[p];
    }
  }
  return Csc<IT, VT>(a.ncols(), a.nrows(), std::move(colptr),
                     std::move(rowids), std::move(vals));
}

/// CSC → DCSC: compress away empty columns.
template <typename IT, typename VT>
Dcsc<IT, VT> dcsc_from_csc(const Csc<IT, VT>& a) {
  std::vector<IT> jc;
  std::vector<IT> cp(1, 0);
  std::vector<IT> ir;
  std::vector<VT> num;
  ir.reserve(a.nnz());
  num.reserve(a.nnz());
  for (IT j = 0; j < a.ncols(); ++j) {
    const auto rows = a.col_rows(j);
    if (rows.empty()) continue;
    jc.push_back(j);
    const auto vals = a.col_vals(j);
    ir.insert(ir.end(), rows.begin(), rows.end());
    num.insert(num.end(), vals.begin(), vals.end());
    cp.push_back(static_cast<IT>(ir.size()));
  }
  return Dcsc<IT, VT>(a.nrows(), a.ncols(), std::move(jc), std::move(cp),
                      std::move(ir), std::move(num));
}

/// DCSC → CSC: decompress the column pointers (the §III-B preprocessing
/// step); ir/num arrays carry over unchanged.
template <typename IT, typename VT>
Csc<IT, VT> csc_from_dcsc(const Dcsc<IT, VT>& a) {
  std::vector<IT> colptr(static_cast<std::size_t>(a.ncols()) + 1, 0);
  for (IT k = 0; k < a.nzc(); ++k) {
    colptr[static_cast<std::size_t>(a.nz_col_id(k)) + 1] =
        a.cp()[k + 1] - a.cp()[k];
  }
  for (std::size_t j = 1; j < colptr.size(); ++j) colptr[j] += colptr[j - 1];
  return Csc<IT, VT>(a.nrows(), a.ncols(), std::move(colptr), a.ir(),
                     a.num());
}

/// Column slice [j0, j1) of a CSC matrix (multi-GPU column splitting and
/// the phased expansion both batch over B's columns).
template <typename IT, typename VT>
Csc<IT, VT> csc_col_slice(const Csc<IT, VT>& a, IT j0, IT j1) {
  if (j0 < 0 || j1 < j0 || j1 > a.ncols())
    throw std::invalid_argument("csc_col_slice: bad range");
  const IT base = a.colptr()[j0];
  std::vector<IT> colptr(static_cast<std::size_t>(j1 - j0) + 1);
  for (IT j = j0; j <= j1; ++j)
    colptr[static_cast<std::size_t>(j - j0)] = a.colptr()[j] - base;
  std::vector<IT> rowids(a.rowids().begin() + base,
                         a.rowids().begin() + a.colptr()[j1]);
  std::vector<VT> vals(a.vals().begin() + base,
                       a.vals().begin() + a.colptr()[j1]);
  return Csc<IT, VT>(a.nrows(), j1 - j0, std::move(colptr), std::move(rowids),
                     std::move(vals));
}

/// Horizontal (column-wise) concatenation; all pieces share nrows. Each
/// piece is freed once it is copied.
template <typename IT, typename VT>
Csc<IT, VT> csc_hcat(std::vector<Csc<IT, VT>> pieces) {
  if (pieces.empty()) return {};
  if (pieces.size() == 1) return std::move(pieces.front());
  const IT nrows = pieces.front().nrows();
  IT ncols = 0;
  std::size_t nnz = 0;
  for (const auto& p : pieces) {
    if (p.nrows() != nrows)
      throw std::invalid_argument("csc_hcat: row count mismatch");
    ncols += p.ncols();
    nnz += p.nnz();
  }
  std::vector<IT> colptr;
  colptr.reserve(static_cast<std::size_t>(ncols) + 1);
  colptr.push_back(0);
  std::vector<IT> rowids;
  std::vector<VT> vals;
  rowids.reserve(nnz);
  vals.reserve(nnz);
  for (auto& p : pieces) {
    const IT base = colptr.back();
    for (IT j = 1; j <= p.ncols(); ++j) colptr.push_back(base + p.colptr()[j]);
    rowids.insert(rowids.end(), p.rowids().begin(), p.rowids().end());
    vals.insert(vals.end(), p.vals().begin(), p.vals().end());
    p = Csc<IT, VT>();
  }
  return Csc<IT, VT>(nrows, ncols, std::move(colptr), std::move(rowids),
                     std::move(vals));
}

/// Rows [r0, r1) of columns [c0, c1) of a matrix with sorted columns,
/// given by its arrays, as an (r1 - r0) × (c1 - c0) CSC.
template <typename IT, typename VT>
Csc<IT, VT> csc_window(std::span<const IT> colptr, std::span<const IT> rows,
                       std::span<const VT> vals, IT r0, IT r1, IT c0, IT c1) {
  std::vector<IT> cp(1, 0);
  std::vector<IT> ir;
  std::vector<VT> num;
  for (IT c = c0; c < c1; ++c) {
    const IT* end = rows.data() + colptr[static_cast<std::size_t>(c) + 1];
    const IT* lo = std::lower_bound(
        rows.data() + colptr[static_cast<std::size_t>(c)], end, r0);
    const IT* hi = std::lower_bound(lo, end, r1);
    for (const IT* p = lo; p < hi; ++p) ir.push_back(*p - r0);
    num.insert(num.end(), vals.data() + (lo - rows.data()),
               vals.data() + (hi - rows.data()));
    cp.push_back(static_cast<IT>(ir.size()));
  }
  return Csc<IT, VT>(r1 - r0, c1 - c0, std::move(cp), std::move(ir),
                     std::move(num));
}

/// Appends `ncols` columns to the arrays of a CSC under construction:
/// column c is column c of every block laid end to end, block k's rows
/// shifted by offsets[k].
template <typename IT, typename VT>
void csc_append_stacked(std::span<const Csc<IT, VT>* const> blocks,
                        std::span<const IT> offsets, IT ncols,
                        std::vector<IT>& colptr, std::vector<IT>& rows,
                        std::vector<VT>& vals) {
  for (IT c = 0; c < ncols; ++c) {
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      for (const IT r : blocks[k]->col_rows(c)) rows.push_back(offsets[k] + r);
      const auto v = blocks[k]->col_vals(c);
      vals.insert(vals.end(), v.begin(), v.end());
    }
    colptr.push_back(static_cast<IT>(rows.size()));
  }
}

}  // namespace mclx::sparse
