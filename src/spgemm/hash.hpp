// Hash SpGEMM on CPU, after Nagasaka, Matsuoka, Azad & Buluç
// (ICPP-W 2018) — the kernel §VI integrates into HipMCL. It is also the
// real product behind every other kind: cpu-heap and the three simulated
// device libraries differ in selection, virtual cost and device memory,
// not in the bits they produce (docs/KERNELS.md, "Fold order").
//
// Per output column, intermediate products accumulate in a row-indexed
// table: one value slot and one uint32 stamp per row of A, i.e. a hash
// table whose hash is the row id itself, so it never probes or collides.
// A row whose stamp is not the current column's takes its first product
// by assignment and records itself as touched; later products add. The
// column is then emitted in row order (RowAccumulator::extract_sorted)
// and a new column starts by bumping the stamp, in O(1). O(flops) per
// multiply plus O(nrows) memory per lane, allocated once per call and
// reused across its columns.
//
// Lanes: the output columns can be split into flops-balanced contiguous
// ranges that run as lanes of the shared pool (util/parallel.hpp), each
// with its own accumulator and its own output arrays, stitched together
// in lane order afterwards. Every column runs the same loop body with the
// same accumulate() order and is emitted sorted by row id, so the result
// is bitwise the one-lane result at any lane count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/mem.hpp"
#include "sparse/csc.hpp"
#include "util/parallel.hpp"

namespace mclx::spgemm {

namespace detail {

/// One uint32 stamp per row: a row is marked in the current column when
/// its stamp equals the column's epoch, so next_column() is O(1) and
/// nothing is cleared between columns.
class RowMarks {
 public:
  explicit RowMarks(std::size_t nrows) : stamps_(nrows, 0) {}

  /// Marks `row`; true when it was not yet marked in this column.
  bool mark(std::size_t row) {
    if (stamps_[row] == epoch_) return false;
    stamps_[row] = epoch_;
    return true;
  }

  void next_column() {
    if (++epoch_ == 0) {  // wrapped: stale stamps could alias the epoch
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(stamps_.size()) * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 1;
};

/// visit_sorted() walks the occupancy bitmap while the lowest and
/// highest touched 64-row words lie fewer than this many words apart per
/// touched row, and sorts the touched rows beyond that. Sorting starts
/// to win at 3 to 30 words per row depending on the row count; whole
/// runs do not move across that range (docs/KERNELS.md, "The extraction
/// crossover").
inline constexpr std::size_t kWalkWordsPerRow = 8;

/// Calls visit(row) for the `size` distinct rows in `touched`, in
/// increasing order: through the occupancy bitmap `bits` (all zero
/// before and after) when the rows are dense enough, else by sorting
/// `touched` in place.
template <typename IT, typename Visit>
void visit_sorted(IT* touched, std::size_t size, std::uint64_t* bits,
                  Visit&& visit) {
  if (size == 0) return;
  IT lo = touched[0];
  IT hi = lo;
  for (std::size_t p = 1; p < size; ++p) {
    lo = std::min(lo, touched[p]);
    hi = std::max(hi, touched[p]);
  }
  const auto w0 = static_cast<std::size_t>(lo) / 64;
  const auto w1 = static_cast<std::size_t>(hi) / 64;
  if (w1 - w0 < kWalkWordsPerRow * size) {
    for (std::size_t p = 0; p < size; ++p) {
      const auto r = static_cast<std::size_t>(touched[p]);
      bits[r / 64] |= std::uint64_t{1} << (r % 64);
    }
    for (std::size_t w = w0; w <= w1; ++w) {
      std::uint64_t word = bits[w];
      if (word == 0) continue;
      bits[w] = 0;
      for (; word != 0; word &= word - 1) {
        visit(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
      }
    }
  } else {
    std::sort(touched, touched + size);
    for (std::size_t p = 0; p < size; ++p) {
      visit(static_cast<std::size_t>(touched[p]));
    }
  }
}

/// Row-indexed accumulator for C(:, j), one column at a time: a value
/// slot per row of A, the RowMarks stamps, the list of touched rows and
/// an occupancy bitmap that is set and cleared only during extraction.
template <typename IT, typename VT>
class RowAccumulator {
 public:
  explicit RowAccumulator(IT nrows)
      : n_(static_cast<std::size_t>(nrows)),
        vals_(std::make_unique_for_overwrite<VT[]>(n_)),
        touched_(std::make_unique_for_overwrite<IT[]>(n_)),
        marks_(n_),
        bits_((n_ + 63) / 64, 0) {}

  void accumulate(IT row, VT val) {
    const auto r = static_cast<std::size_t>(row);
    if (marks_.mark(r)) {
      vals_[r] = val;
      touched_[size_++] = row;
    } else {
      vals_[r] += val;
    }
  }

  /// Bytes held for the whole kernel call (what the memory ledger
  /// charges under "spgemm.hash_table").
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(n_) * (sizeof(VT) + sizeof(IT)) +
           marks_.bytes() +
           static_cast<std::uint64_t>(bits_.size()) * sizeof(std::uint64_t);
  }

  /// Append the column's entries sorted by row, then start a new column.
  void extract_sorted(std::vector<IT>& rowids, std::vector<VT>& vals) {
    const std::size_t base = rowids.size();
    rowids.resize(base + size_);
    vals.resize(base + size_);
    IT* out_rows = rowids.data() + base;
    VT* out_vals = vals.data() + base;
    visit_sorted(touched_.get(), size_, bits_.data(), [&](std::size_t r) {
      *out_rows++ = static_cast<IT>(r);
      *out_vals++ = vals_[r];
    });
    size_ = 0;
    marks_.next_column();
  }

 private:
  std::size_t n_;
  std::unique_ptr<VT[]> vals_;
  std::unique_ptr<IT[]> touched_;
  std::size_t size_ = 0;
  RowMarks marks_;
  std::vector<std::uint64_t> bits_;
};

/// Greedy contiguous partition of columns into `parts` ranges with
/// roughly equal flops. Returns parts+1 boundaries. Boundary i is placed
/// at the first prefix reaching target_i = total*i/parts — computed per
/// boundary without the truncation drift of (total/parts)*i, which loses
/// up to parts-1 flops per boundary and systematically overloads the
/// last lane on skewed MCL columns.
template <typename IT, typename VT>
std::vector<IT> partition_columns_by_flops(const sparse::Csc<IT, VT>& a,
                                           const sparse::Csc<IT, VT>& b,
                                           int parts) {
  const IT ncols = b.ncols();
  std::vector<std::uint64_t> col_flops(static_cast<std::size_t>(ncols), 0);
  std::uint64_t total = 0;
  for (IT j = 0; j < ncols; ++j) {
    std::uint64_t f = 0;
    for (IT k : b.col_rows(j)) f += static_cast<std::uint64_t>(a.col_nnz(k));
    col_flops[static_cast<std::size_t>(j)] = f;
    total += f;
  }
  std::vector<IT> bounds;
  bounds.push_back(0);
  std::uint64_t running = 0;
  for (IT j = 0; j < ncols && static_cast<int>(bounds.size()) < parts; ++j) {
    running += col_flops[static_cast<std::size_t>(j)];
    const auto target = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(total) *
        static_cast<std::uint64_t>(bounds.size()) /
        static_cast<std::uint64_t>(parts));
    if (running >= target && j + 1 < ncols) bounds.push_back(j + 1);
  }
  while (static_cast<int>(bounds.size()) < parts) bounds.push_back(ncols);
  bounds.push_back(ncols);
  return bounds;
}

/// Output columns [j0, j1) of C = A * B. `colptr` receives j1 - j0 + 1
/// offsets starting at 0 into `rowids`/`vals`. One accumulator, charged
/// to the ledger once, serves every column of the range.
template <typename IT, typename VT>
void hash_columns(const sparse::Csc<IT, VT>& a, const sparse::Csc<IT, VT>& b,
                  IT j0, IT j1, std::vector<IT>& colptr,
                  std::vector<IT>& rowids, std::vector<VT>& vals) {
  RowAccumulator<IT, VT> acc(a.nrows());
  obs::MemScope acc_mem("spgemm.hash_table", acc.bytes());

  colptr.assign(static_cast<std::size_t>(j1 - j0) + 1, 0);
  for (IT j = j0; j < j1; ++j) {
    const auto bk = b.col_rows(j);
    const auto bv = b.col_vals(j);
    for (std::size_t p = 0; p < bk.size(); ++p) {
      const IT k = bk[p];
      const VT scale = bv[p];
      const auto ar = a.col_rows(k);
      const auto av = a.col_vals(k);
      for (std::size_t q = 0; q < ar.size(); ++q) {
        acc.accumulate(ar[q], av[q] * scale);
      }
    }
    acc.extract_sorted(rowids, vals);
    colptr[static_cast<std::size_t>(j - j0) + 1] =
        static_cast<IT>(rowids.size());
  }
}

}  // namespace detail

/// C = A * B with per-column row-indexed accumulation over `lanes` flops-
/// balanced column ranges on the shared pool (capped at the column
/// count). lanes <= 1 runs the whole product sequentially on the caller.
/// Either way the lanes' outputs are copied into arrays sized to nnz(C),
/// so a product held for a later merge carries no growth slack.
template <typename IT, typename VT>
sparse::Csc<IT, VT> hash_spgemm(const sparse::Csc<IT, VT>& a,
                                const sparse::Csc<IT, VT>& b, int lanes = 1) {
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("hash_spgemm: inner dimension mismatch");
  const IT ncols = b.ncols();
  if (static_cast<IT>(lanes) > ncols) lanes = static_cast<int>(ncols);

  struct Part {
    std::vector<IT> colptr;
    std::vector<IT> rowids;
    std::vector<VT> vals;
  };
  const auto bounds = lanes <= 1
                          ? std::vector<IT>{IT{0}, ncols}
                          : detail::partition_columns_by_flops(a, b, lanes);
  std::vector<Part> parts(bounds.size() - 1);
  const auto run_part = [&](int t) {
    Part& part = parts[static_cast<std::size_t>(t)];
    detail::hash_columns(a, b, bounds[static_cast<std::size_t>(t)],
                         bounds[static_cast<std::size_t>(t) + 1], part.colptr,
                         part.rowids, part.vals);
  };
  if (parts.size() == 1) {
    run_part(0);
  } else {
    par::pool().run(static_cast<int>(parts.size()), run_part);
  }

  // Stitch the lanes together in lane order.
  std::size_t nnz = 0;
  for (const Part& part : parts) nnz += part.rowids.size();
  std::vector<IT> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  std::vector<IT> rowids;
  std::vector<VT> vals;
  rowids.reserve(nnz);
  vals.reserve(nnz);
  for (std::size_t t = 0; t < parts.size(); ++t) {
    const Part& part = parts[t];
    const auto j0 = static_cast<std::size_t>(bounds[t]);
    const auto offset = static_cast<IT>(rowids.size());
    for (std::size_t k = 1; k < part.colptr.size(); ++k) {
      colptr[j0 + k] = part.colptr[k] + offset;
    }
    rowids.insert(rowids.end(), part.rowids.begin(), part.rowids.end());
    vals.insert(vals.end(), part.vals.begin(), part.vals.end());
  }
  return sparse::Csc<IT, VT>(a.nrows(), ncols, std::move(colptr),
                             std::move(rowids), std::move(vals));
}

}  // namespace mclx::spgemm
