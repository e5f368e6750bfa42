// Generic element-wise and structural operations on CSC matrices:
// column sums / stochastic normalization, Hadamard power (inflation's
// arithmetic core), threshold pruning, flops / compression-factor
// analysis, and comparison helpers used throughout the tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sparse/csc.hpp"

namespace mclx::sparse {

template <typename IT, typename VT>
std::vector<VT> column_sums(const Csc<IT, VT>& a) {
  std::vector<VT> sums(static_cast<std::size_t>(a.ncols()), VT{});
  for (IT j = 0; j < a.ncols(); ++j) {
    for (VT v : a.col_vals(j)) sums[static_cast<std::size_t>(j)] += v;
  }
  return sums;
}

/// Divide each column by its sum, making the matrix column-stochastic.
/// Empty / zero-sum columns are left untouched (an isolated vertex keeps
/// an all-zero column; MCL's initializer adds self-loops beforehand).
template <typename IT, typename VT>
void normalize_columns(Csc<IT, VT>& a) {
  const auto sums = column_sums(a);
  auto& vals = a.vals();
  for (IT j = 0; j < a.ncols(); ++j) {
    const VT s = sums[static_cast<std::size_t>(j)];
    if (s == VT{}) continue;
    for (IT p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) vals[p] /= s;
  }
}

/// True when every nonempty column sums to 1 within `tol`.
template <typename IT, typename VT>
bool is_column_stochastic(const Csc<IT, VT>& a, VT tol = VT(1e-9)) {
  for (const VT s : column_sums(a)) {
    if (s != VT{} && std::abs(s - VT(1)) > tol) return false;
  }
  return true;
}

/// Element-wise power: a_ij ← a_ij^p (inflation before re-normalization).
template <typename IT, typename VT>
void hadamard_power(Csc<IT, VT>& a, VT power) {
  for (auto& v : a.vals()) v = std::pow(v, power);
}

/// Remove entries with |value| < threshold; keeps column order.
template <typename IT, typename VT>
Csc<IT, VT> prune_threshold(const Csc<IT, VT>& a, VT threshold) {
  std::vector<IT> colptr(static_cast<std::size_t>(a.ncols()) + 1, 0);
  std::vector<IT> rowids;
  std::vector<VT> vals;
  rowids.reserve(a.nnz());
  vals.reserve(a.nnz());
  for (IT j = 0; j < a.ncols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto v = a.col_vals(j);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      if (std::abs(v[p]) >= threshold) {
        rowids.push_back(rows[p]);
        vals.push_back(v[p]);
      }
    }
    colptr[static_cast<std::size_t>(j) + 1] = static_cast<IT>(rowids.size());
  }
  return Csc<IT, VT>(a.nrows(), a.ncols(), std::move(colptr),
                     std::move(rowids), std::move(vals));
}

/// Number of nontrivial multiply-adds in forming A*B (paper's flops(AB)):
/// sum over columns j of B, over nonzeros (k,j), of nnz(A(:,k)).
template <typename IT, typename VT>
std::uint64_t spgemm_flops(const Csc<IT, VT>& a, const Csc<IT, VT>& b) {
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("spgemm_flops: inner dimension mismatch");
  std::uint64_t total = 0;
  for (IT k : b.rowids()) {
    total += static_cast<std::uint64_t>(a.col_nnz(k));
  }
  return total;
}

/// Per-output-column flops.
template <typename IT, typename VT>
std::vector<std::uint64_t> spgemm_flops_per_col(const Csc<IT, VT>& a,
                                                const Csc<IT, VT>& b) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(b.ncols()), 0);
  for (IT j = 0; j < b.ncols(); ++j) {
    for (IT k : b.col_rows(j))
      out[static_cast<std::size_t>(j)] +=
          static_cast<std::uint64_t>(a.col_nnz(k));
  }
  return out;
}

/// Compression factor cf(AB) = flops(AB) / nnz(AB); needs the actual
/// output nnz, so callers pass it (from a symbolic pass or the product).
inline double compression_factor(std::uint64_t flops, std::uint64_t out_nnz) {
  if (out_nnz == 0) return flops == 0 ? 1.0 : 0.0;
  return static_cast<double>(flops) / static_cast<double>(out_nnz);
}

template <typename IT, typename VT>
IT max_col_nnz(const Csc<IT, VT>& a) {
  IT mx = 0;
  for (IT j = 0; j < a.ncols(); ++j) mx = std::max(mx, a.col_nnz(j));
  return mx;
}

/// Structural equality plus values within `rel_tol` relative tolerance
/// (absolute for magnitudes below `abs_floor`). The cross-kernel property
/// suites compare every kernel against the SPA reference with this.
template <typename IT, typename VT>
bool approx_equal(const Csc<IT, VT>& a, const Csc<IT, VT>& b,
                  VT rel_tol = VT(1e-9), VT abs_floor = VT(1e-12)) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols()) return false;
  if (a.colptr() != b.colptr() || a.rowids() != b.rowids()) return false;
  for (std::size_t p = 0; p < a.vals().size(); ++p) {
    const VT x = a.vals()[p];
    const VT y = b.vals()[p];
    const VT scale = std::max({std::abs(x), std::abs(y), abs_floor});
    if (std::abs(x - y) > rel_tol * scale) return false;
  }
  return true;
}

/// Max relative difference over matching coordinates; +inf on structural
/// mismatch. Handy in test failure messages.
template <typename IT, typename VT>
double max_rel_diff(const Csc<IT, VT>& a, const Csc<IT, VT>& b) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols() ||
      a.colptr() != b.colptr() || a.rowids() != b.rowids()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t p = 0; p < a.vals().size(); ++p) {
    const double x = a.vals()[p];
    const double y = b.vals()[p];
    const double scale = std::max({std::abs(x), std::abs(y), 1e-300});
    worst = std::max(worst, std::abs(x - y) / scale);
  }
  return worst;
}

/// A + B (same shape), summing coincident entries.
template <typename IT, typename VT>
Csc<IT, VT> add(const Csc<IT, VT>& a, const Csc<IT, VT>& b) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols())
    throw std::invalid_argument("add: shape mismatch");
  std::vector<IT> colptr(static_cast<std::size_t>(a.ncols()) + 1, 0);
  std::vector<IT> rowids;
  std::vector<VT> vals;
  rowids.reserve(a.nnz() + b.nnz());
  vals.reserve(a.nnz() + b.nnz());
  for (IT j = 0; j < a.ncols(); ++j) {
    const auto ar = a.col_rows(j);
    const auto av = a.col_vals(j);
    const auto br = b.col_rows(j);
    const auto bv = b.col_vals(j);
    std::size_t i = 0, k = 0;
    while (i < ar.size() || k < br.size()) {
      if (k >= br.size() || (i < ar.size() && ar[i] < br[k])) {
        rowids.push_back(ar[i]);
        vals.push_back(av[i]);
        ++i;
      } else if (i >= ar.size() || br[k] < ar[i]) {
        rowids.push_back(br[k]);
        vals.push_back(bv[k]);
        ++k;
      } else {
        rowids.push_back(ar[i]);
        vals.push_back(av[i] + bv[k]);
        ++i;
        ++k;
      }
    }
    colptr[static_cast<std::size_t>(j) + 1] = static_cast<IT>(rowids.size());
  }
  return Csc<IT, VT>(a.nrows(), a.ncols(), std::move(colptr),
                     std::move(rowids), std::move(vals));
}

/// Identity matrix (used to add self-loops before the first MCL iteration).
template <typename IT, typename VT>
Csc<IT, VT> identity(IT n, VT diag = VT(1)) {
  std::vector<IT> colptr(static_cast<std::size_t>(n) + 1);
  std::vector<IT> rowids(static_cast<std::size_t>(n));
  std::vector<VT> vals(static_cast<std::size_t>(n), diag);
  for (IT j = 0; j <= n; ++j) colptr[static_cast<std::size_t>(j)] = j;
  for (IT j = 0; j < n; ++j) rowids[static_cast<std::size_t>(j)] = j;
  return Csc<IT, VT>(n, n, std::move(colptr), std::move(rowids),
                     std::move(vals));
}

}  // namespace mclx::sparse
