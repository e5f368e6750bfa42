// 2D block-distributed sparse matrix.
//
// The matrix is split into √P × √P blocks; rank (i,j) owns block (i,j),
// stored in DCSC because per-rank blocks are hypersparse at scale (the
// CombBLAS argument, §III-B). The whole structure lives in one address
// space — "distribution" is an ownership map the simulator charges
// communication against, while computation on the blocks is real.
#pragma once

#include <cstdint>
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

  /// Scatter global triples, in any order, into blocks. Duplicates are
  /// summed in input order, so the blocks are bitwise those of
  /// sort_and_combine followed by a per-block dcsc_from_triples. With
  /// `unit_diagonal`, every column c < min(nrows, ncols) also gets a
  /// (c, c, 1.0) after its input entries: the blocks of `t` with those
  /// triples appended, without copying `t`.
  static DistMat from_triples(const TriplesD& t, ProcGrid grid,
                              bool unit_diagonal = false);

  /// Gather to global triples (canonicalized).
  TriplesD to_triples() const;

  /// Gather to a single global CSC matrix in O(nnz): each column is its
  /// tiles' rows copied in block-row order, already sorted.
  CscD to_csc() const;

  vidx_t nrows() const { return nrows_; }
  vidx_t ncols() const { return ncols_; }
  const ProcGrid& grid() const { return grid_; }
  int dim() const { return grid_.dim(); }

  /// Block-row i covers global rows [row_offset(i), row_offset(i+1)).
  vidx_t row_offset(int i) const;
  vidx_t col_offset(int j) const;
  vidx_t block_rows(int i) const { return row_offset(i + 1) - row_offset(i); }
  vidx_t block_cols(int j) const { return col_offset(j + 1) - col_offset(j); }

  const DcscD& block(int i, int j) const;
  /// Mutable block access for in-place element-wise operations.
  DcscD& mutable_block(int i, int j);
  void set_block(int i, int j, DcscD b);
  /// Convenience: assign from CSC (converted to DCSC internally).
  void set_block(int i, int j, const CscD& b);

  std::uint64_t nnz() const;
  std::uint64_t block_nnz(int i, int j) const;
  /// Bytes of the heaviest rank's block (per-rank memory accounting).
  bytes_t max_block_bytes() const;

  friend bool operator==(const DistMat& a, const DistMat& b);

 private:
  vidx_t nrows_ = 0;
  vidx_t ncols_ = 0;
  ProcGrid grid_;
  vidx_t row_block_ = 0;  ///< nominal block height (last row block may be short)
  vidx_t col_block_ = 0;
  std::vector<DcscD> blocks_;  ///< row-major [i*dim + j]
};

}  // namespace mclx::dist
