#include "dist/distmat.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/mem.hpp"
#include "sparse/convert.hpp"

namespace mclx::dist {

DistMat::DistMat(vidx_t nrows, vidx_t ncols, ProcGrid grid)
    : nrows_(nrows), ncols_(ncols), grid_(grid) {
  if (nrows < 0 || ncols < 0)
    throw std::invalid_argument("DistMat: negative dimension");
  const auto dim = static_cast<vidx_t>(grid_.dim());
  row_block_ = (nrows + dim - 1) / dim;
  col_block_ = (ncols + dim - 1) / dim;
  // Degenerate shapes still need nonzero nominal block extents so that
  // offsets are well-defined.
  row_block_ = std::max<vidx_t>(row_block_, 1);
  col_block_ = std::max<vidx_t>(col_block_, 1);
  blocks_.reserve(static_cast<std::size_t>(grid_.nranks()));
  for (int i = 0; i < grid_.dim(); ++i) {
    for (int j = 0; j < grid_.dim(); ++j) {
      blocks_.emplace_back(block_rows(i), block_cols(j));
    }
  }
}

vidx_t DistMat::row_offset(int i) const {
  return std::min(nrows_, static_cast<vidx_t>(i) * row_block_);
}

vidx_t DistMat::col_offset(int j) const {
  return std::min(ncols_, static_cast<vidx_t>(j) * col_block_);
}

const DcscD& DistMat::block(int i, int j) const {
  return blocks_[static_cast<std::size_t>(grid_.rank_of(i, j))];
}

DcscD& DistMat::mutable_block(int i, int j) {
  return blocks_[static_cast<std::size_t>(grid_.rank_of(i, j))];
}

void DistMat::set_block(int i, int j, DcscD b) {
  if (b.nrows() != block_rows(i) || b.ncols() != block_cols(j))
    throw std::invalid_argument("DistMat::set_block: shape mismatch");
  blocks_[static_cast<std::size_t>(grid_.rank_of(i, j))] = std::move(b);
}

void DistMat::set_block(int i, int j, const CscD& b) {
  set_block(i, j, sparse::dcsc_from_csc(b));
}

DistMat DistMat::from_triples(const TriplesD& t, ProcGrid grid,
                              bool unit_diagonal) {
  DistMat m(t.nrows(), t.ncols(), grid);
  const int dim = grid.dim();
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
  // blocks are built.
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

  // Each column's rows are sorted, so a block row's share of it is one
  // run. Count every block's entries and nonempty columns, size its
  // arrays exactly, then fill them in a second walk.
  const auto nranks = static_cast<std::size_t>(grid.nranks());
  const auto for_each_run = [&](auto&& fn) {
    for (int j = 0; j < dim; ++j) {
      const vidx_t co = m.col_offset(j);
      for (vidx_t c = co; c < m.col_offset(j + 1); ++c) {
        const auto e = static_cast<std::size_t>(colptr[c + 1]);
        auto p = static_cast<std::size_t>(colptr[c]);
        for (int i = 0; i < dim && p < e; ++i) {
          const vidx_t row_end = m.row_offset(i + 1);
          std::size_t q = p;
          while (q < e && rows[q] < row_end) ++q;
          if (q > p) fn(static_cast<std::size_t>(i * dim + j), i, c - co, p, q);
          p = q;
        }
      }
    }
  };
  std::vector<std::size_t> bnnz(nranks, 0);
  std::vector<std::size_t> bnzc(nranks, 0);
  for_each_run([&](std::size_t r, int, vidx_t, std::size_t p, std::size_t q) {
    bnnz[r] += q - p;
    ++bnzc[r];
  });

  std::vector<std::vector<vidx_t>> jc(nranks), cp(nranks), ir(nranks);
  std::vector<std::vector<val_t>> num(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    jc[r].reserve(bnzc[r]);
    cp[r].reserve(bnzc[r] + 1);
    cp[r].push_back(0);
    ir[r].reserve(bnnz[r]);
    num[r].reserve(bnnz[r]);
  }
  for_each_run([&](std::size_t r, int i, vidx_t local_col, std::size_t p,
                   std::size_t q) {
    const vidx_t ro = m.row_offset(i);
    jc[r].push_back(local_col);
    for (std::size_t k = p; k < q; ++k) ir[r].push_back(rows[k] - ro);
    num[r].insert(num[r].end(),
                  vals.begin() + static_cast<std::ptrdiff_t>(p),
                  vals.begin() + static_cast<std::ptrdiff_t>(q));
    cp[r].push_back(static_cast<vidx_t>(ir[r].size()));
  });
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      const auto r = static_cast<std::size_t>(grid.rank_of(i, j));
      m.set_block(i, j,
                  DcscD(m.block_rows(i), m.block_cols(j), std::move(jc[r]),
                        std::move(cp[r]), std::move(ir[r]),
                        std::move(num[r])));
    }
  }
  return m;
}

TriplesD DistMat::to_triples() const {
  TriplesD out(nrows_, ncols_);
  out.reserve(nnz());
  const obs::MemScope staging_mem(
      "dist.staging", nnz() * static_cast<std::uint64_t>(
                                  sizeof(decltype(*out.begin()))));
  for (int i = 0; i < dim(); ++i) {
    for (int j = 0; j < dim(); ++j) {
      const DcscD& b = block(i, j);
      const vidx_t ro = row_offset(i);
      const vidx_t co = col_offset(j);
      for (vidx_t k = 0; k < b.nzc(); ++k) {
        const vidx_t col = co + b.nz_col_id(k);
        const auto rows = b.nz_col_rows(k);
        const auto vals = b.nz_col_vals(k);
        for (std::size_t p = 0; p < rows.size(); ++p) {
          out.push_unchecked(ro + rows[p], col, vals[p]);
        }
      }
    }
  }
  out.sort_and_combine();
  return out;
}

CscD DistMat::to_csc() const {
  // Tiles never overlap and each keeps its column's rows sorted, so a
  // global column is its block column's tiles laid end to end in
  // block-row order: count, then copy. No triples, no sort.
  std::vector<vidx_t> colptr(static_cast<std::size_t>(ncols_) + 1, 0);
  for (int i = 0; i < dim(); ++i) {
    for (int j = 0; j < dim(); ++j) {
      const DcscD& b = block(i, j);
      const auto co = static_cast<std::size_t>(col_offset(j));
      for (vidx_t k = 0; k < b.nzc(); ++k) {
        colptr[co + static_cast<std::size_t>(b.nz_col_id(k)) + 1] +=
            b.cp()[static_cast<std::size_t>(k) + 1] -
            b.cp()[static_cast<std::size_t>(k)];
      }
    }
  }
  for (std::size_t c = 1; c < colptr.size(); ++c) colptr[c] += colptr[c - 1];

  std::vector<vidx_t> rowids(static_cast<std::size_t>(colptr.back()));
  std::vector<val_t> vals(rowids.size());
  std::vector<vidx_t> next(colptr.begin(), colptr.end() - 1);
  for (int j = 0; j < dim(); ++j) {
    const auto co = static_cast<std::size_t>(col_offset(j));
    for (int i = 0; i < dim(); ++i) {
      const DcscD& b = block(i, j);
      const vidx_t ro = row_offset(i);
      for (vidx_t k = 0; k < b.nzc(); ++k) {
        const auto rows = b.nz_col_rows(k);
        const auto vs = b.nz_col_vals(k);
        auto& dst = next[co + static_cast<std::size_t>(b.nz_col_id(k))];
        for (std::size_t p = 0; p < rows.size(); ++p) {
          rowids[static_cast<std::size_t>(dst) + p] = ro + rows[p];
        }
        std::copy(vs.begin(), vs.end(),
                  vals.begin() + static_cast<std::ptrdiff_t>(dst));
        dst += static_cast<vidx_t>(rows.size());
      }
    }
  }
  return CscD(nrows_, ncols_, std::move(colptr), std::move(rowids),
              std::move(vals));
}

std::uint64_t DistMat::nnz() const {
  std::uint64_t total = 0;
  for (const auto& b : blocks_) total += b.nnz();
  return total;
}

std::uint64_t DistMat::block_nnz(int i, int j) const {
  return block(i, j).nnz();
}

bytes_t DistMat::max_block_bytes() const {
  bytes_t mx = 0;
  for (const auto& b : blocks_) mx = std::max(mx, b.bytes());
  return mx;
}

bool operator==(const DistMat& a, const DistMat& b) {
  return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
         a.grid_.dim() == b.grid_.dim() && a.blocks_ == b.blocks_;
}

}  // namespace mclx::dist
