// SPA (sparse accumulator) SpGEMM: the Gilbert–Moler–Schreiber dense-
// accumulator formulation. O(nrows) scratch per call but branch-light and
// obviously correct — it is the reference every other kind is tested
// against bitwise: it assigns each row's first product and adds the rest
// in list order, the one fold order (docs/KERNELS.md), and shares no
// code with hash_spgemm.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sparse/csc.hpp"

namespace mclx::spgemm {

/// C = A * B, column by column with a dense accumulator.
template <typename IT, typename VT>
sparse::Csc<IT, VT> spa_spgemm(const sparse::Csc<IT, VT>& a,
                               const sparse::Csc<IT, VT>& b) {
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("spa_spgemm: inner dimension mismatch");
  const IT nrows = a.nrows();
  const IT ncols = b.ncols();

  std::vector<VT> accum(static_cast<std::size_t>(nrows), VT{});
  std::vector<bool> occupied(static_cast<std::size_t>(nrows), false);
  std::vector<IT> touched;

  std::vector<IT> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  std::vector<IT> rowids;
  std::vector<VT> vals;

  for (IT j = 0; j < ncols; ++j) {
    touched.clear();
    const auto bk = b.col_rows(j);
    const auto bv = b.col_vals(j);
    for (std::size_t p = 0; p < bk.size(); ++p) {
      const IT k = bk[p];
      const VT scale = bv[p];
      const auto ar = a.col_rows(k);
      const auto av = a.col_vals(k);
      for (std::size_t q = 0; q < ar.size(); ++q) {
        const auto r = static_cast<std::size_t>(ar[q]);
        if (!occupied[r]) {
          occupied[r] = true;
          accum[r] = av[q] * scale;
          touched.push_back(ar[q]);
        } else {
          accum[r] += av[q] * scale;
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (IT r : touched) {
      rowids.push_back(r);
      vals.push_back(accum[static_cast<std::size_t>(r)]);
      occupied[static_cast<std::size_t>(r)] = false;
      accum[static_cast<std::size_t>(r)] = VT{};
    }
    colptr[static_cast<std::size_t>(j) + 1] = static_cast<IT>(rowids.size());
  }
  return sparse::Csc<IT, VT>(nrows, ncols, std::move(colptr),
                             std::move(rowids), std::move(vals));
}

}  // namespace mclx::spgemm
