// Coordinate (COO) sparse format: the interchange representation.
//
// Triples are what generators emit, what Matrix Market IO reads/writes,
// what SUMMA's intermediate block products are exchanged as, and the
// format every other representation converts through. Invariant-free by
// design; call sort_and_combine() to canonicalize (column-major order,
// unique coordinates, duplicate values summed).
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace mclx::sparse {

template <typename IT, typename VT>
struct Triple {
  IT row{};
  IT col{};
  VT val{};

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// Column-major ordering (col, then row) — matches CSC construction order.
template <typename IT, typename VT>
inline bool col_major_less(const Triple<IT, VT>& a, const Triple<IT, VT>& b) {
  return a.col != b.col ? a.col < b.col : a.row < b.row;
}

template <typename IT, typename VT>
class Triples {
 public:
  using index_type = IT;
  using value_type = VT;
  using triple_type = Triple<IT, VT>;

  Triples() = default;
  Triples(IT nrows, IT ncols) : nrows_(nrows), ncols_(ncols) {
    if (nrows < 0 || ncols < 0)
      throw std::invalid_argument("Triples: negative dimension");
  }
  Triples(IT nrows, IT ncols, std::vector<triple_type> data)
      : nrows_(nrows), ncols_(ncols), data_(std::move(data)) {
    if (nrows < 0 || ncols < 0)
      throw std::invalid_argument("Triples: negative dimension");
  }

  IT nrows() const { return nrows_; }
  IT ncols() const { return ncols_; }
  std::size_t nnz() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  void reserve(std::size_t n) { data_.reserve(n); }

  void push(IT row, IT col, VT val) {
    if (row < 0 || row >= nrows_ || col < 0 || col >= ncols_)
      throw std::out_of_range("Triples::push: coordinate out of range");
    data_.push_back({row, col, val});
  }

  /// Unchecked append — callers that generate in-range coordinates in bulk.
  void push_unchecked(IT row, IT col, VT val) {
    data_.push_back({row, col, val});
  }

  const std::vector<triple_type>& data() const { return data_; }
  std::vector<triple_type>& data() { return data_; }

  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  /// Canonicalize: sort column-major, sum duplicates, drop explicit zeros
  /// when `drop_zeros` is set. Stable sort keeps duplicates in insertion
  /// order so floating-point summation is deterministic — symmetric
  /// generators rely on (i,j) and (j,i) accumulating in the same order.
  /// Sorted data skips the sort: a stable sort of it is the identity.
  void sort_and_combine(bool drop_zeros = false) {
    if (!is_sorted()) {
      std::stable_sort(data_.begin(), data_.end(), col_major_less<IT, VT>);
    }
    std::size_t out = 0;
    for (std::size_t i = 0; i < data_.size();) {
      triple_type acc = data_[i++];
      while (i < data_.size() && data_[i].row == acc.row &&
             data_[i].col == acc.col) {
        acc.val += data_[i++].val;
      }
      if (!drop_zeros || acc.val != VT{}) data_[out++] = acc;
    }
    data_.resize(out);
  }

  bool is_sorted() const {
    return std::is_sorted(data_.begin(), data_.end(), col_major_less<IT, VT>);
  }

  /// Structural + numerical equality after canonicalization of both sides.
  friend bool operator==(const Triples& a, const Triples& b) {
    if (a.nrows_ != b.nrows_ || a.ncols_ != b.ncols_) return false;
    return a.data_ == b.data_;
  }

 private:
  IT nrows_ = 0;
  IT ncols_ = 0;
  std::vector<triple_type> data_;
};

}  // namespace mclx::sparse
