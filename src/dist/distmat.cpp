#include "dist/distmat.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/mem.hpp"
#include "sparse/convert.hpp"

namespace mclx::dist {

DistMat::DistMat(vidx_t nrows, vidx_t ncols, ProcGrid grid)
    : DistMat(CscD(nrows, ncols), grid) {}

DistMat::DistMat(CscD m, ProcGrid grid) : csc_(std::move(m)), grid_(grid) {
  // Degenerate shapes still need nonzero nominal block extents so that
  // offsets are well-defined.
  const auto dim = static_cast<vidx_t>(grid_.dim());
  row_block_ = std::max<vidx_t>((nrows() + dim - 1) / dim, 1);
  col_block_ = std::max<vidx_t>((ncols() + dim - 1) / dim, 1);
  count_blocks();
}

void DistMat::count_blocks() {
  // Each column's rows are sorted, so a block row's share of it is one
  // run.
  const auto nranks = static_cast<std::size_t>(grid_.nranks());
  block_nnz_.assign(nranks, 0);
  block_nzc_.assign(nranks, 0);
  const vidx_t* colptr = csc_.colptr().data();
  const vidx_t* rows = csc_.rowids().data();
  for (int j = 0; j < dim(); ++j) {
    for (vidx_t c = col_offset(j); c < col_offset(j + 1); ++c) {
      vidx_t p = colptr[c];
      const vidx_t e = colptr[c + 1];
      for (int i = 0; i < dim() && p < e; ++i) {
        const vidx_t q = static_cast<vidx_t>(
            std::lower_bound(rows + p, rows + e, row_offset(i + 1)) - rows);
        if (q > p) {
          const auto r = static_cast<std::size_t>(grid_.rank_of(i, j));
          block_nnz_[r] += static_cast<std::uint64_t>(q - p);
          ++block_nzc_[r];
        }
        p = q;
      }
    }
  }
}

DcscD DistMat::block(int i, int j) const {
  return sparse::dcsc_from_csc(sparse::csc_window<vidx_t, val_t>(
      csc_.colptr(), csc_.rowids(), csc_.vals(), row_offset(i),
      row_offset(i + 1), col_offset(j), col_offset(j + 1)));
}

DistMat DistMat::from_triples(const TriplesD& t, ProcGrid grid,
                              bool unit_diagonal) {
  const auto ncols = static_cast<std::size_t>(t.ncols());
  const std::size_t diagonal =
      unit_diagonal ? static_cast<std::size_t>(std::min(t.nrows(), t.ncols()))
                    : 0;

  // Stage the input column-major in one stable scatter: count each
  // global column, then place rows and values so every column keeps
  // input order, the unit diagonal last. After the scatter colptr[c] is
  // column c's end, so shifting it by one slot makes it the start again.
  std::vector<vidx_t> colptr(ncols + 1, 0);
  for (const auto& e : t) ++colptr[static_cast<std::size_t>(e.col) + 1];
  for (std::size_t c = 0; c < diagonal; ++c) ++colptr[c + 1];
  for (std::size_t c = 1; c <= ncols; ++c) colptr[c] += colptr[c - 1];
  std::vector<vidx_t> rows(t.nnz() + diagonal);
  std::vector<val_t> vals(rows.size());
  for (const auto& e : t) {
    const auto p = static_cast<std::size_t>(
        colptr[static_cast<std::size_t>(e.col)]++);
    rows[p] = e.row;
    vals[p] = e.val;
  }
  for (std::size_t c = 0; c < diagonal; ++c) {
    const auto p = static_cast<std::size_t>(colptr[c]++);
    rows[p] = static_cast<vidx_t>(c);
    vals[p] = 1.0;
  }
  std::copy_backward(colptr.begin(), colptr.end() - 1, colptr.end());
  colptr[0] = 0;

  // A column is sorted in place by stable insertion when short — a self
  // loop appended after a sorted column moves one entry. A long column,
  // where insertion could go quadratic, takes such a last entry by one
  // binary search and rotate; any other disorder goes through a scratch
  // buffer of (row, value) pairs.
  constexpr vidx_t kInsertionMax = 64;
  const auto sorted_until = [&](std::size_t c) {
    return static_cast<std::size_t>(
        std::is_sorted_until(rows.begin() + colptr[c],
                             rows.begin() + colptr[c + 1]) -
        rows.begin());
  };
  std::size_t scratch_len = 0;
  for (std::size_t c = 0; c < ncols; ++c) {
    const vidx_t len = colptr[c + 1] - colptr[c];
    if (len > kInsertionMax &&
        sorted_until(c) + 1 < static_cast<std::size_t>(colptr[c + 1])) {
      scratch_len = std::max(scratch_len, static_cast<std::size_t>(len));
    }
  }
  std::vector<std::pair<vidx_t, val_t>> scratch;
  scratch.reserve(scratch_len);
  // The staging and the scratch buffer coexist with the input until the
  // staging, canonical in place, becomes the matrix.
  const obs::MemScope staging_mem(
      "dist.staging",
      colptr.size() * sizeof(vidx_t) +
          rows.size() * (sizeof(vidx_t) + sizeof(val_t)) +
          scratch.capacity() * sizeof(decltype(scratch)::value_type));

  // Canonicalize each column in place: order it by row, then sum equal
  // rows left to right in input order — sort_and_combine's order, so the
  // sums are bitwise its sums.
  std::size_t out = 0;
  for (std::size_t c = 0; c < ncols; ++c) {
    const auto b = static_cast<std::size_t>(colptr[c]);
    const auto e = static_cast<std::size_t>(colptr[c + 1]);
    if (e - b <= static_cast<std::size_t>(kInsertionMax)) {
      for (std::size_t p = b + 1; p < e; ++p) {
        const vidx_t r = rows[p];
        const val_t v = vals[p];
        std::size_t q = p;
        for (; q > b && rows[q - 1] > r; --q) {
          rows[q] = rows[q - 1];
          vals[q] = vals[q - 1];
        }
        rows[q] = r;
        vals[q] = v;
      }
    } else if (const std::size_t until = sorted_until(c); until + 1 == e) {
      // Upper bound: the last entry goes after the rows equal to it,
      // which all came before it in input order.
      vidx_t* const r = rows.data();
      val_t* const v = vals.data();
      vidx_t* const at = std::upper_bound(r + b, r + until, r[until]);
      std::rotate(v + (at - r), v + until, v + e);
      std::rotate(at, r + until, r + e);
    } else if (until < e) {
      scratch.clear();
      for (std::size_t p = b; p < e; ++p) {
        scratch.emplace_back(rows[p], vals[p]);
      }
      std::stable_sort(
          scratch.begin(), scratch.end(),
          [](const auto& x, const auto& y) { return x.first < y.first; });
      for (std::size_t p = b; p < e; ++p) {
        rows[p] = scratch[p - b].first;
        vals[p] = scratch[p - b].second;
      }
    }
    colptr[c] = static_cast<vidx_t>(out);
    for (std::size_t p = b; p < e;) {
      const vidx_t r = rows[p];
      val_t v = vals[p++];
      while (p < e && rows[p] == r) v += vals[p++];
      rows[out] = r;
      vals[out++] = v;
    }
  }
  colptr[ncols] = static_cast<vidx_t>(out);
  rows.resize(out);
  vals.resize(out);
  return DistMat(CscD(t.nrows(), t.ncols(), std::move(colptr), std::move(rows),
                      std::move(vals)),
                 grid);
}

DistMat DistMat::from_blocks(vidx_t nrows, vidx_t ncols, ProcGrid grid,
                             const std::vector<CscD>& blocks) {
  const DistMat shape(nrows, ncols, grid);
  if (blocks.size() != static_cast<std::size_t>(grid.nranks()))
    throw std::invalid_argument("DistMat::from_blocks: block count mismatch");
  std::vector<vidx_t> offsets;
  for (int i = 0; i < grid.dim(); ++i) offsets.push_back(shape.row_offset(i));
  // A global column is its block column's pieces laid end to end in
  // block-row order.
  std::vector<vidx_t> colptr(1, 0), rows;
  std::vector<val_t> vals;
  for (int j = 0; j < grid.dim(); ++j) {
    std::vector<const CscD*> stack;
    for (int i = 0; i < grid.dim(); ++i) {
      const CscD& b = blocks[static_cast<std::size_t>(grid.rank_of(i, j))];
      if (b.nrows() != shape.block_rows(i) || b.ncols() != shape.block_cols(j))
        throw std::invalid_argument("DistMat::from_blocks: shape mismatch");
      stack.push_back(&b);
    }
    sparse::csc_append_stacked<vidx_t, val_t>(stack, offsets,
                                              shape.block_cols(j), colptr,
                                              rows, vals);
  }
  return DistMat(CscD(nrows, ncols, std::move(colptr), std::move(rows),
                      std::move(vals)),
                 grid);
}

TriplesD DistMat::to_triples() const {
  const obs::MemScope staging_mem(
      "dist.staging", nnz() * sizeof(sparse::Triple<vidx_t, val_t>));
  return sparse::triples_from_csc(csc_);  // column by column: canonical
}

bytes_t DistMat::block_bytes(int i, int j) const {
  // Dcsc::bytes: jc and cp (nzc and nzc + 1 ids), then ir and num.
  const auto r = static_cast<std::size_t>(grid_.rank_of(i, j));
  return (2 * block_nzc_[r] + 1 + block_nnz_[r]) * sizeof(vidx_t) +
         block_nnz_[r] * sizeof(val_t);
}

bool operator==(const DistMat& a, const DistMat& b) {
  return a.grid_.dim() == b.grid_.dim() && a.csc_ == b.csc_;
}

}  // namespace mclx::dist
