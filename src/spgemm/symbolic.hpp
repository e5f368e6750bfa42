// Symbolic SpGEMM: nnz structure of A*B without materializing values.
//
// This is the "exact" memory-requirement estimator original HipMCL runs
// before every MCL iteration (a full extra pass, O(flops)), the cost the
// probabilistic estimator of §V removes. It counts each output column's
// distinct rows with the hash kernel's per-row marks (hash.hpp's
// RowMarks), so it needs no values, no touched list and no sort.
//
// Columns are independent, so the pass runs on the shared thread pool
// (util/parallel.hpp): each chunk of output columns gets its own marks.
// Per-column counts do not depend on the chunking, so results are
// bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/mem.hpp"
#include "sparse/csc.hpp"
#include "spgemm/hash.hpp"
#include "util/parallel.hpp"

namespace mclx::spgemm {

/// nnz per output column of A*B.
template <typename IT, typename VT>
std::vector<std::uint64_t> symbolic_nnz_per_col(const sparse::Csc<IT, VT>& a,
                                                const sparse::Csc<IT, VT>& b) {
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("symbolic: inner dimension mismatch");
  const IT ncols = b.ncols();

  std::vector<std::uint64_t> out(static_cast<std::size_t>(ncols), 0);
  // Every chunk holds its own marks. They are charged once, here on the
  // calling thread, as if all chunks ran at once, so the label's high
  // water does not depend on how the lanes interleave.
  const obs::MemScope marks_mem(
      "spgemm.symbolic",
      static_cast<std::uint64_t>(par::plan_chunks(IT{0}, ncols)) *
          static_cast<std::uint64_t>(a.nrows()) * sizeof(std::uint32_t));
  par::parallel_chunks(IT{0}, ncols, [&](IT j0, IT j1, int) {
    detail::RowMarks marks(static_cast<std::size_t>(a.nrows()));
    for (IT j = j0; j < j1; ++j) {
      std::uint64_t count = 0;
      for (IT k : b.col_rows(j)) {
        for (IT r : a.col_rows(k)) {
          count += marks.mark(static_cast<std::size_t>(r)) ? 1 : 0;
        }
      }
      out[static_cast<std::size_t>(j)] = count;
      marks.next_column();
    }
  });
  return out;
}

/// Total nnz(A*B).
template <typename IT, typename VT>
std::uint64_t symbolic_nnz(const sparse::Csc<IT, VT>& a,
                           const sparse::Csc<IT, VT>& b) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : symbolic_nnz_per_col(a, b)) total += c;
  return total;
}

}  // namespace mclx::spgemm
