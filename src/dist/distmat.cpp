#include "dist/distmat.hpp"

#include <algorithm>
#include <stdexcept>

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

DistMat DistMat::from_triples(const TriplesD& t, ProcGrid grid) {
  DistMat m(t.nrows(), t.ncols(), grid);
  const int dim = grid.dim();

  // Bucket triples per block, then build each block's DCSC.
  std::vector<TriplesD> buckets;
  buckets.reserve(static_cast<std::size_t>(grid.nranks()));
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      buckets.emplace_back(m.block_rows(i), m.block_cols(j));
    }
  }
  for (const auto& e : t) {
    const int bi = static_cast<int>(e.row / m.row_block_);
    const int bj = static_cast<int>(e.col / m.col_block_);
    buckets[static_cast<std::size_t>(grid.rank_of(bi, bj))].push_unchecked(
        e.row - m.row_offset(bi), e.col - m.col_offset(bj), e.val);
  }
  // The filled buckets coexist with the input until the blocks are
  // built; charge them as distribution staging.
  obs::MemScope staging_mem(
      "dist.staging", t.nnz() * static_cast<std::uint64_t>(
                                    sizeof(decltype(*t.begin()))));
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      m.set_block(i, j,
                  sparse::dcsc_from_triples(std::move(
                      buckets[static_cast<std::size_t>(grid.rank_of(i, j))])));
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
