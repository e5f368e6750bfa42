// Doubly Compressed Sparse Column format (Buluç & Gilbert, IPDPS'08).
//
// HipMCL / CombBLAS store the 2D-distributed blocks in DCSC because at
// p ranks each block holds ~nnz/p nonzeros spread over n/√p columns — the
// blocks are hypersparse (most columns empty) and CSC's O(ncols) column
// pointer array dominates memory. DCSC additionally compresses the column
// pointers: only the `nzc` nonempty columns get an entry.
//
// Arrays:
//   jc  [nzc]     ids of nonempty columns, strictly increasing
//   cp  [nzc+1]   prefix offsets into ir/num per nonempty column
//   ir  [nnz]     row ids, sorted within each column
//   num [nnz]     values
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace mclx::sparse {

template <typename IT, typename VT>
class Dcsc {
 public:
  using index_type = IT;
  using value_type = VT;

  Dcsc() : cp_(1, 0) {}

  Dcsc(IT nrows, IT ncols) : nrows_(nrows), ncols_(ncols), cp_(1, 0) {
    if (nrows < 0 || ncols < 0)
      throw std::invalid_argument("Dcsc: negative dimension");
  }

  Dcsc(IT nrows, IT ncols, std::vector<IT> jc, std::vector<IT> cp,
       std::vector<IT> ir, std::vector<VT> num)
      : nrows_(nrows), ncols_(ncols), jc_(std::move(jc)), cp_(std::move(cp)),
        ir_(std::move(ir)), num_(std::move(num)) {
    validate();
  }

  IT nrows() const { return nrows_; }
  IT ncols() const { return ncols_; }
  std::size_t nnz() const { return ir_.size(); }
  bool empty() const { return ir_.empty(); }

  /// Number of nonempty columns.
  IT nzc() const { return static_cast<IT>(jc_.size()); }

  const std::vector<IT>& jc() const { return jc_; }
  const std::vector<IT>& cp() const { return cp_; }
  const std::vector<IT>& ir() const { return ir_; }
  const std::vector<VT>& num() const { return num_; }

  /// Rows/values of the k-th *nonempty* column (0 <= k < nzc()).
  std::span<const IT> nz_col_rows(IT k) const {
    return {ir_.data() + cp_[k],
            static_cast<std::size_t>(cp_[k + 1] - cp_[k])};
  }
  std::span<const VT> nz_col_vals(IT k) const {
    return {num_.data() + cp_[k],
            static_cast<std::size_t>(cp_[k + 1] - cp_[k])};
  }
  /// Global column id of the k-th nonempty column.
  IT nz_col_id(IT k) const { return jc_[k]; }

  /// Position of global column j among the nonempty columns, or -1.
  IT find_col(IT j) const {
    const auto it = std::lower_bound(jc_.begin(), jc_.end(), j);
    if (it == jc_.end() || *it != j) return IT{-1};
    return static_cast<IT>(it - jc_.begin());
  }

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(jc_.size() + cp_.size() + ir_.size()) *
               sizeof(IT) +
           static_cast<std::uint64_t>(num_.size()) * sizeof(VT);
  }

  friend bool operator==(const Dcsc& a, const Dcsc& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ && a.jc_ == b.jc_ &&
           a.cp_ == b.cp_ && a.ir_ == b.ir_ && a.num_ == b.num_;
  }

  void validate() const {
    if (nrows_ < 0 || ncols_ < 0)
      throw std::invalid_argument("Dcsc: negative dimension");
    if (cp_.size() != jc_.size() + 1)
      throw std::invalid_argument("Dcsc: cp size != nzc + 1");
    if (cp_.front() != 0) throw std::invalid_argument("Dcsc: cp[0] != 0");
    if (static_cast<std::size_t>(cp_.back()) != ir_.size())
      throw std::invalid_argument("Dcsc: cp back != nnz");
    if (ir_.size() != num_.size())
      throw std::invalid_argument("Dcsc: ir/num size mismatch");
    for (std::size_t k = 1; k < jc_.size(); ++k) {
      if (jc_[k - 1] >= jc_[k])
        throw std::invalid_argument("Dcsc: jc not strictly increasing");
    }
    for (std::size_t k = 0; k < jc_.size(); ++k) {
      if (jc_[k] < 0 || jc_[k] >= ncols_)
        throw std::invalid_argument("Dcsc: column id out of range");
      if (cp_[k] >= cp_[k + 1])
        throw std::invalid_argument("Dcsc: empty column listed in jc");
    }
    for (IT r : ir_) {
      if (r < 0 || r >= nrows_)
        throw std::invalid_argument("Dcsc: row index out of range");
    }
  }

 private:
  IT nrows_ = 0;
  IT ncols_ = 0;
  std::vector<IT> jc_;
  std::vector<IT> cp_;
  std::vector<IT> ir_;
  std::vector<VT> num_;
};

}  // namespace mclx::sparse
