// Hash-table SpGEMM on CPU, after Nagasaka, Matsuoka, Azad & Buluç
// (ICPP-W 2018) — the kernel §VI integrates into HipMCL.
//
// Per output column, intermediate products accumulate in an open-
// addressing table sized to the next power of two above that column's
// flops upper bound (so load factor stays below 1/2); results are then
// extracted and sorted by row id. O(flops) expected: no lg factor, which
// is why it wins over the heap kernel once cf (and column density) grows.
// The table is allocated once at the max per-column bound and reused
// across columns, matching the per-thread reuse in the original code.
//
// Lanes: the output columns can be split into flops-balanced contiguous
// ranges that run as lanes of the shared pool (util/parallel.hpp), each
// with its own table and its own output arrays, stitched together in
// lane order afterwards. Every column runs the same loop body with the
// same accumulate() order and is extracted sorted by row id, so the
// result is bitwise the one-lane result at any lane count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/mem.hpp"
#include "sparse/csc.hpp"
#include "util/parallel.hpp"

namespace mclx::spgemm {

namespace detail {

/// Open-addressing (linear probing) row→value accumulator with tombstone-
/// free inserts; EMPTY slots are marked by row == -1.
template <typename IT, typename VT>
class HashAccumulator {
 public:
  void resize_for(std::size_t max_entries) {
    std::size_t want = std::bit_ceil(std::max<std::size_t>(
        2 * max_entries, 16));
    if (want > slots_.size()) {
      slots_.assign(want, Slot{});
      mask_ = want - 1;
    }
  }

  void clear_touched() {
    for (const std::size_t s : touched_) slots_[s] = Slot{};
    touched_.clear();
  }

  void accumulate(IT row, VT val) {
    std::size_t h = hash(row) & mask_;
    for (;;) {
      Slot& slot = slots_[h];
      if (slot.row == row) {
        slot.val += val;
        return;
      }
      if (slot.row == kEmpty) {
        slot.row = row;
        slot.val = val;
        touched_.push_back(h);
        return;
      }
      h = (h + 1) & mask_;
    }
  }

  std::size_t size() const { return touched_.size(); }

  /// Bytes held by the probe table itself (the dominant allocation;
  /// what the memory ledger charges under "spgemm.hash_table").
  std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(slots_.size()) * sizeof(Slot);
  }

  /// Append (sorted by row) entries into the output arrays.
  void extract_sorted(std::vector<IT>& rowids, std::vector<VT>& vals) {
    scratch_.clear();
    scratch_.reserve(touched_.size());
    for (const std::size_t s : touched_) {
      scratch_.push_back({slots_[s].row, slots_[s].val});
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [row, val] : scratch_) {
      rowids.push_back(row);
      vals.push_back(val);
    }
  }

 private:
  static constexpr IT kEmpty = IT{-1};
  struct Slot {
    IT row = kEmpty;
    VT val{};
  };
  static std::size_t hash(IT row) {
    auto x = static_cast<std::uint64_t>(row);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }

  std::vector<Slot> slots_;
  std::vector<std::pair<IT, VT>> scratch_;
  std::vector<std::size_t> touched_;
  std::size_t mask_ = 0;
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
/// offsets starting at 0 into `rowids`/`vals`. One table, sized for the
/// range's worst column and charged to the ledger once, serves every
/// column of the range.
template <typename IT, typename VT>
void hash_columns(const sparse::Csc<IT, VT>& a, const sparse::Csc<IT, VT>& b,
                  IT j0, IT j1, std::vector<IT>& colptr,
                  std::vector<IT>& rowids, std::vector<VT>& vals) {
  // Upper bound on any column's intermediate-product count.
  std::uint64_t max_col_flops = 0;
  for (IT j = j0; j < j1; ++j) {
    std::uint64_t f = 0;
    for (IT k : b.col_rows(j)) f += static_cast<std::uint64_t>(a.col_nnz(k));
    max_col_flops = std::max(max_col_flops, f);
  }

  HashAccumulator<IT, VT> table;
  table.resize_for(static_cast<std::size_t>(
      std::min<std::uint64_t>(max_col_flops,
                              static_cast<std::uint64_t>(a.nrows()))));
  obs::MemScope table_mem("spgemm.hash_table", table.capacity_bytes());

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
        table.accumulate(ar[q], av[q] * scale);
      }
    }
    table.extract_sorted(rowids, vals);
    table.clear_touched();
    colptr[static_cast<std::size_t>(j - j0) + 1] =
        static_cast<IT>(rowids.size());
  }
}

}  // namespace detail

/// C = A * B with per-column hash accumulation over `lanes` flops-
/// balanced column ranges on the shared pool (capped at the column
/// count). lanes <= 1 runs the whole product sequentially on the caller.
template <typename IT, typename VT>
sparse::Csc<IT, VT> hash_spgemm(const sparse::Csc<IT, VT>& a,
                                const sparse::Csc<IT, VT>& b, int lanes = 1) {
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("hash_spgemm: inner dimension mismatch");
  const IT ncols = b.ncols();
  if (static_cast<IT>(lanes) > ncols) lanes = static_cast<int>(ncols);

  std::vector<IT> colptr;
  std::vector<IT> rowids;
  std::vector<VT> vals;
  if (lanes <= 1) {
    detail::hash_columns(a, b, IT{0}, ncols, colptr, rowids, vals);
    return sparse::Csc<IT, VT>(a.nrows(), ncols, std::move(colptr),
                               std::move(rowids), std::move(vals));
  }

  struct Part {
    std::vector<IT> colptr;
    std::vector<IT> rowids;
    std::vector<VT> vals;
  };
  const auto bounds = detail::partition_columns_by_flops(a, b, lanes);
  std::vector<Part> parts(static_cast<std::size_t>(lanes));
  par::pool().run(lanes, [&](int t) {
    Part& part = parts[static_cast<std::size_t>(t)];
    detail::hash_columns(a, b, bounds[static_cast<std::size_t>(t)],
                         bounds[static_cast<std::size_t>(t) + 1], part.colptr,
                         part.rowids, part.vals);
  });

  // Stitch the lanes together in lane order.
  std::size_t nnz = 0;
  for (const Part& part : parts) nnz += part.rowids.size();
  colptr.assign(static_cast<std::size_t>(ncols) + 1, 0);
  rowids.reserve(nnz);
  vals.reserve(nnz);
  for (int t = 0; t < lanes; ++t) {
    const Part& part = parts[static_cast<std::size_t>(t)];
    const auto j0 = static_cast<std::size_t>(bounds[static_cast<std::size_t>(t)]);
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
