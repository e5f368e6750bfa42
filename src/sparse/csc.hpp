// Compressed Sparse Column format.
//
// The workhorse local format: both column-by-column SpGEMM kernels
// (the hash accumulator behind every kind, and the SPA reference)
// consume and produce CSC. Rows within each column are kept sorted by
// row index — the hash kernel's output sort and the merge routines rely
// on it.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace mclx::sparse {

template <typename IT, typename VT>
class Csc {
 public:
  using index_type = IT;
  using value_type = VT;

  Csc() : colptr_(1, 0) {}

  Csc(IT nrows, IT ncols)
      : nrows_(nrows), ncols_(ncols),
        colptr_(static_cast<std::size_t>(ncols) + 1, 0) {
    if (nrows < 0 || ncols < 0)
      throw std::invalid_argument("Csc: negative dimension");
  }

  /// Takes ownership of prebuilt arrays; validates basic invariants.
  Csc(IT nrows, IT ncols, std::vector<IT> colptr, std::vector<IT> rowids,
      std::vector<VT> vals)
      : nrows_(nrows), ncols_(ncols), colptr_(std::move(colptr)),
        rowids_(std::move(rowids)), vals_(std::move(vals)) {
    validate();
  }

  IT nrows() const { return nrows_; }
  IT ncols() const { return ncols_; }
  std::size_t nnz() const { return rowids_.size(); }
  bool empty() const { return rowids_.empty(); }

  const std::vector<IT>& colptr() const { return colptr_; }
  const std::vector<IT>& rowids() const { return rowids_; }
  const std::vector<VT>& vals() const { return vals_; }
  std::vector<IT>& colptr() { return colptr_; }
  std::vector<IT>& rowids() { return rowids_; }
  std::vector<VT>& vals() { return vals_; }

  IT col_nnz(IT j) const { return colptr_[j + 1] - colptr_[j]; }

  /// Read-only views of one column's rows/values.
  std::span<const IT> col_rows(IT j) const {
    return {rowids_.data() + colptr_[j],
            static_cast<std::size_t>(col_nnz(j))};
  }
  std::span<const VT> col_vals(IT j) const {
    return {vals_.data() + colptr_[j], static_cast<std::size_t>(col_nnz(j))};
  }

  /// Memory footprint in bytes (arrays only), as used for phase planning.
  std::uint64_t bytes() const { return bytes_for(ncols_, nnz()); }

  /// bytes() of a matrix with `ncols` columns and `nnz` entries.
  static std::uint64_t bytes_for(IT ncols, std::uint64_t nnz) {
    return (static_cast<std::uint64_t>(ncols) + 1) * sizeof(IT) +
           nnz * (sizeof(IT) + sizeof(VT));
  }

  /// True when every column's row indices are strictly increasing.
  bool cols_sorted() const {
    for (IT j = 0; j < ncols_; ++j) {
      for (IT p = colptr_[j] + 1; p < colptr_[j + 1]; ++p) {
        if (rowids_[p - 1] >= rowids_[p]) return false;
      }
    }
    return true;
  }

  friend bool operator==(const Csc& a, const Csc& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.colptr_ == b.colptr_ && a.rowids_ == b.rowids_ &&
           a.vals_ == b.vals_;
  }

  void validate() const {
    if (nrows_ < 0 || ncols_ < 0)
      throw std::invalid_argument("Csc: negative dimension");
    if (colptr_.size() != static_cast<std::size_t>(ncols_) + 1)
      throw std::invalid_argument("Csc: colptr size mismatch");
    if (colptr_.front() != 0)
      throw std::invalid_argument("Csc: colptr[0] != 0");
    if (static_cast<std::size_t>(colptr_.back()) != rowids_.size())
      throw std::invalid_argument("Csc: colptr back != nnz");
    if (rowids_.size() != vals_.size())
      throw std::invalid_argument("Csc: rowids/vals size mismatch");
    for (std::size_t j = 1; j < colptr_.size(); ++j) {
      if (colptr_[j] < colptr_[j - 1])
        throw std::invalid_argument("Csc: colptr not monotone");
    }
    for (IT r : rowids_) {
      if (r < 0 || r >= nrows_)
        throw std::invalid_argument("Csc: row index out of range");
    }
  }

 private:
  IT nrows_ = 0;
  IT ncols_ = 0;
  std::vector<IT> colptr_;
  std::vector<IT> rowids_;
  std::vector<VT> vals_;
};

}  // namespace mclx::sparse
