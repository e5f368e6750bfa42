// 2D block-distributed sparse matrix.
//
// The matrix is split into √P × √P blocks; rank (i,j) owns block (i,j).
// HipMCL stores each block in DCSC because per-rank blocks are
// hypersparse at scale (the CombBLAS argument, §III-B). Here every block
// lives in one address space, so the host keeps one global CSC and the
// blocks are an ownership map: per block, the nnz and nonempty-column
// counts from which the simulator charges communication and memory at
// DCSC sizes. block() cuts a block out as DCSC when one is needed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/grid.hpp"
#include "sparse/csc.hpp"
#include "sparse/dcsc.hpp"
#include "sparse/triples.hpp"
#include "util/types.hpp"

namespace mclx::dist {

using TriplesD = sparse::Triples<vidx_t, val_t>;
using CscD = sparse::Csc<vidx_t, val_t>;
using DcscD = sparse::Dcsc<vidx_t, val_t>;

class DistMat {
 public:
  /// Empty matrix of the given global shape on the grid.
  DistMat(vidx_t nrows, vidx_t ncols, ProcGrid grid);

  /// The global matrix `m`, whose columns hold unique rows in order, on
  /// the grid.
  DistMat(CscD m, ProcGrid grid);

  /// Canonicalizes global triples, in any order: duplicates are summed in
  /// input order, so the matrix is bitwise that of sort_and_combine. With
  /// `unit_diagonal`, every column c < min(nrows, ncols) also gets a
  /// (c, c, 1.0) after its input entries: the matrix of `t` with those
  /// triples appended, without copying `t`.
  static DistMat from_triples(const TriplesD& t, ProcGrid grid,
                              bool unit_diagonal = false);

  /// Joins rank-indexed blocks, each with block-local rows and columns,
  /// into one matrix. Throws std::invalid_argument on a block whose shape
  /// is not its place's.
  static DistMat from_blocks(vidx_t nrows, vidx_t ncols, ProcGrid grid,
                             const std::vector<CscD>& blocks);

  /// The matrix as global triples (canonical).
  TriplesD to_triples() const;

  /// The global matrix.
  const CscD& to_csc() const { return csc_; }

  /// The global matrix's values, for element-wise operations in place;
  /// the structure, and so every block count, stays fixed.
  std::span<val_t> mutable_vals() { return csc_.vals(); }

  vidx_t nrows() const { return csc_.nrows(); }
  vidx_t ncols() const { return csc_.ncols(); }
  const ProcGrid& grid() const { return grid_; }
  int dim() const { return grid_.dim(); }

  /// Block-row i covers global rows [row_offset(i), row_offset(i+1)).
  vidx_t row_offset(int i) const {
    return std::min(nrows(), static_cast<vidx_t>(i) * row_block_);
  }
  vidx_t col_offset(int j) const {
    return std::min(ncols(), static_cast<vidx_t>(j) * col_block_);
  }
  vidx_t block_rows(int i) const { return row_offset(i + 1) - row_offset(i); }
  vidx_t block_cols(int j) const { return col_offset(j + 1) - col_offset(j); }

  /// Block (i, j) as DCSC with block-local ids, cut from the matrix.
  DcscD block(int i, int j) const;

  std::uint64_t nnz() const { return csc_.nnz(); }
  std::uint64_t block_nnz(int i, int j) const {
    return block_nnz_[static_cast<std::size_t>(grid_.rank_of(i, j))];
  }
  /// Bytes of block (i, j) as DCSC: block(i, j).bytes().
  bytes_t block_bytes(int i, int j) const;

  friend bool operator==(const DistMat& a, const DistMat& b);

 private:
  /// Counts every block's entries and nonempty columns.
  void count_blocks();

  CscD csc_;
  ProcGrid grid_;
  vidx_t row_block_ = 0;  ///< nominal block height (last row block may be short)
  vidx_t col_block_ = 0;
  std::vector<std::uint64_t> block_nnz_;  ///< by rank
  std::vector<std::uint64_t> block_nzc_;  ///< by rank
};

}  // namespace mclx::dist
