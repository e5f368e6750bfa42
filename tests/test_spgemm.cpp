// Cross-kernel SpGEMM property suite: hash_spgemm and the cpu-heap kind
// (through LocalMultiplier, which runs it on the same accumulator) must
// match the dense-accumulator (SPA) reference across a parameter grid of
// shapes, densities and structures; plus symbolic-pass exactness and
// cpu-hash's row-indexed accumulator pinned bitwise to SPA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "spgemm/hash.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/spa.hpp"
#include "spgemm/symbolic.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace {

using namespace mclx;
using C = sparse::Csc<vidx_t, val_t>;
using T = sparse::Triples<vidx_t, val_t>;

C random_csc(vidx_t nrows, vidx_t ncols, double density, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(nrows, ncols);
  const auto entries = static_cast<std::uint64_t>(
      density * static_cast<double>(nrows) * static_cast<double>(ncols));
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(nrows)),
                     static_cast<vidx_t>(rng.bounded(ncols)),
                     rng.uniform() * 2 - 1);  // mixed signs
  }
  t.sort_and_combine();
  return sparse::csc_from_triples(std::move(t));
}

/// The cpu-heap kind's product, as the pipeline gets it.
C heap_kind(const C& a, const C& b) {
  const sim::CostModel model(sim::summit_like_cpu_only(1));
  spgemm::LocalMultiplier mult(
      model, spgemm::KernelPolicy::fixed_kernel(spgemm::KernelKind::kCpuHeap));
  return mult.multiply(a, b).c;
}

struct Case {
  std::string name;
  vidx_t m, k, n;       // A is m×k, B is k×n
  double density_a, density_b;
  std::uint64_t seed;
};

class SpgemmEquivalence : public testing::TestWithParam<Case> {};

TEST_P(SpgemmEquivalence, HeapMatchesSpa) {
  const Case& c = GetParam();
  const C a = random_csc(c.m, c.k, c.density_a, c.seed);
  const C b = random_csc(c.k, c.n, c.density_b, c.seed + 1);
  const C ref = spgemm::spa_spgemm(a, b);
  const C heap = heap_kind(a, b);
  EXPECT_EQ(heap, ref) << "max rel diff " << sparse::max_rel_diff(ref, heap);
}

TEST_P(SpgemmEquivalence, HashMatchesSpa) {
  const Case& c = GetParam();
  const C a = random_csc(c.m, c.k, c.density_a, c.seed);
  const C b = random_csc(c.k, c.n, c.density_b, c.seed + 1);
  const C ref = spgemm::spa_spgemm(a, b);
  const C hash = spgemm::hash_spgemm(a, b);
  EXPECT_TRUE(sparse::approx_equal(ref, hash))
      << "max rel diff " << sparse::max_rel_diff(ref, hash);
}

TEST_P(SpgemmEquivalence, SymbolicCountsExact) {
  const Case& c = GetParam();
  const C a = random_csc(c.m, c.k, c.density_a, c.seed);
  const C b = random_csc(c.k, c.n, c.density_b, c.seed + 1);
  const C ref = spgemm::spa_spgemm(a, b);
  const auto per_col = spgemm::symbolic_nnz_per_col(a, b);
  ASSERT_EQ(per_col.size(), static_cast<std::size_t>(ref.ncols()));
  for (vidx_t j = 0; j < ref.ncols(); ++j) {
    EXPECT_EQ(per_col[static_cast<std::size_t>(j)],
              static_cast<std::uint64_t>(ref.col_nnz(j)))
        << "column " << j;
  }
  EXPECT_EQ(spgemm::symbolic_nnz(a, b), ref.nnz());
}

TEST_P(SpgemmEquivalence, OutputColumnsSorted) {
  const Case& c = GetParam();
  const C a = random_csc(c.m, c.k, c.density_a, c.seed);
  const C b = random_csc(c.k, c.n, c.density_b, c.seed + 1);
  EXPECT_TRUE(heap_kind(a, b).cols_sorted());
  EXPECT_TRUE(spgemm::hash_spgemm(a, b).cols_sorted());
  EXPECT_TRUE(spgemm::spa_spgemm(a, b).cols_sorted());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpgemmEquivalence,
    testing::Values(
        Case{"tiny", 8, 8, 8, 0.3, 0.3, 1},
        Case{"square_sparse", 100, 100, 100, 0.02, 0.02, 2},
        Case{"square_dense", 60, 60, 60, 0.25, 0.25, 3},
        Case{"rect_wide", 40, 120, 30, 0.05, 0.08, 4},
        Case{"rect_tall", 150, 30, 80, 0.06, 0.10, 5},
        Case{"high_cf", 50, 50, 50, 0.5, 0.5, 6},   // many collisions
        Case{"low_cf", 400, 400, 400, 0.002, 0.002, 7},
        Case{"single_col_b", 80, 80, 1, 0.1, 0.5, 8},
        Case{"single_row_inner", 60, 1, 60, 0.4, 0.9, 9},
        Case{"empty_a", 30, 30, 30, 0.0, 0.2, 10},
        Case{"empty_b", 30, 30, 30, 0.2, 0.0, 11}),
    [](const testing::TestParamInfo<Case>& info) { return info.param.name; });

TEST(Spgemm, DimensionMismatchThrows) {
  const C a = random_csc(4, 5, 0.5, 1);
  const C b = random_csc(4, 4, 0.5, 2);
  EXPECT_THROW(spgemm::spa_spgemm(a, b), std::invalid_argument);
  EXPECT_THROW(heap_kind(a, b), std::invalid_argument);
  EXPECT_THROW(spgemm::hash_spgemm(a, b), std::invalid_argument);
  EXPECT_THROW(spgemm::symbolic_nnz(a, b), std::invalid_argument);
}

TEST(Spgemm, IdentityIsNeutral) {
  const C a = random_csc(30, 30, 0.1, 3);
  const auto eye = sparse::identity<vidx_t, val_t>(30);
  EXPECT_TRUE(sparse::approx_equal(spgemm::hash_spgemm(a, eye), a));
  EXPECT_TRUE(sparse::approx_equal(spgemm::hash_spgemm(eye, a), a));
  EXPECT_TRUE(sparse::approx_equal(heap_kind(a, eye), a));
}

TEST(Spgemm, MatrixSquareMatchesTransposeIdentity) {
  // (A·A)ᵀ = Aᵀ·Aᵀ — exercises kernels against the transpose machinery.
  const C a = random_csc(50, 50, 0.08, 4);
  const C at = sparse::transpose(a);
  const C lhs = sparse::transpose(spgemm::hash_spgemm(a, a));
  const C rhs = spgemm::hash_spgemm(at, at);
  EXPECT_TRUE(sparse::approx_equal(lhs, rhs, 1e-9))
      << sparse::max_rel_diff(lhs, rhs);
}

TEST(Spgemm, CscTransposeTrickComputesBA) {
  // §III-B: multiplying with both operands in CSC as if CSR computes the
  // transposed product. Verify hash(A,B) == transpose(hash(Bt_ascsc ...)).
  const C a = random_csc(35, 25, 0.15, 5);
  const C b = random_csc(25, 45, 0.12, 6);
  const C ab = spgemm::hash_spgemm(a, b);
  const C bt = sparse::transpose(b);
  const C at = sparse::transpose(a);
  const C btat = spgemm::hash_spgemm(bt, at);  // (AB)ᵀ
  EXPECT_TRUE(sparse::approx_equal(sparse::transpose(btat), ab, 1e-9));
}

TEST(Spgemm, CancellationProducesExplicitZero) {
  // Kernels keep structural nonzeros even when values cancel — SPA, the
  // accumulator and the cpu-heap kind must agree on that structure.
  T ta(2, 2);
  ta.push(0, 0, 1.0);
  ta.push(0, 1, -1.0);
  T tb(2, 1);
  tb.push(0, 0, 1.0);
  tb.push(1, 0, 1.0);
  const C a = sparse::csc_from_triples(ta);
  const C b = sparse::csc_from_triples(tb);
  const C ref = spgemm::spa_spgemm(a, b);
  EXPECT_EQ(ref.nnz(), 1u);
  EXPECT_DOUBLE_EQ(ref.vals()[0], 0.0);
  EXPECT_TRUE(sparse::approx_equal(ref, heap_kind(a, b)));
  EXPECT_TRUE(sparse::approx_equal(ref, spgemm::hash_spgemm(a, b)));
}

/// Operands shaped to drive every path of hash_spgemm's row-indexed
/// accumulator. A's columns come in kinds: far (a few rows spread over
/// the whole height), dense (a contiguous run), scattered, empty, a
/// v / -v pair that cancels to an explicit zero, and explicit zeros
/// whose products with a negative B value are -0.0. B's columns pick
/// them alone and in mixtures, with empty columns in between.
struct AccumOperands {
  C a, b;
};

AccumOperands accumulator_operands(vidx_t nrows, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  constexpr vidx_t kFar = 0, kDense = 8, kScattered = 16, kEmpty = 24,
                   kCancel = 26, kZero = 28, kInner = 29;
  T ta(nrows, kInner);
  for (vidx_t k = kFar; k < kDense; ++k) {
    const vidx_t r = static_cast<vidx_t>(rng.bounded(nrows));
    for (const vidx_t row : {r, (r + nrows / 2) % nrows, nrows - 1 - r}) {
      ta.push(row, k, rng.uniform() * 2 - 1);
    }
  }
  for (vidx_t k = kDense; k < kScattered; ++k) {
    const vidx_t run = std::min<vidx_t>(nrows, 200);
    const vidx_t start = static_cast<vidx_t>(rng.bounded(nrows - run + 1));
    for (vidx_t row = start; row < start + run; ++row) {
      if (rng.uniform() < 0.6) ta.push(row, k, rng.uniform() * 2 - 1);
    }
  }
  for (vidx_t k = kScattered; k < kEmpty; ++k) {
    for (int e = 0; e < 12; ++e) {
      ta.push(static_cast<vidx_t>(rng.bounded(nrows)), k,
              rng.uniform() * 2 - 1);
    }
  }
  for (vidx_t row = 0; row < nrows; row += std::max<vidx_t>(1, nrows / 7)) {
    const val_t v = rng.uniform() + 0.5;
    ta.push(row, kCancel, v);
    ta.push(row, kCancel + 1, -v);
    ta.push(row, kZero, 0.0);
  }
  ta.sort_and_combine();

  T tb(kInner, 40);
  for (vidx_t j = 0; j < 40; ++j) {
    switch (j % 5) {
      case 0:  // empty output column, or only -0.0 products
        if (j % 10 == 5) tb.push(kZero, j, -1.0);
        break;
      case 1:  // two far columns: a few rows over the whole height,
               // arriving out of row order
        tb.push(kFar + j % 8, j, rng.uniform() * 2 - 1);
        tb.push(kFar + (j + 1) % 8, j, rng.uniform() * 2 - 1);
        break;
      case 2:  // dense runs overlapping, plus a far column
        for (vidx_t k = kDense; k < kScattered; k += 2 + j % 2) {
          tb.push(k, j, rng.uniform() * 2 - 1);
        }
        tb.push(kFar + (j + 3) % 8, j, rng.uniform() * 2 - 1);
        break;
      case 3:  // scattered and empty A columns
        for (vidx_t k = kScattered; k < kCancel; ++k) {
          if (rng.uniform() < 0.5) tb.push(k, j, rng.uniform() * 2 - 1);
        }
        break;
      case 4:  // cancellation: v * 1 + (-v) * 1 == 0 exactly
        tb.push(kCancel, j, 1.0);
        tb.push(kCancel + 1, j, 1.0);
        break;
    }
  }
  tb.sort_and_combine();
  return {sparse::csc_from_triples(std::move(ta)),
          sparse::csc_from_triples(std::move(tb))};
}

class RowAccumulatorPin : public testing::TestWithParam<vidx_t> {};

TEST_P(RowAccumulatorPin, HashIsSpaBitwiseAtAnyLaneCount) {
  const vidx_t nrows = GetParam();
  const auto [a, b] = accumulator_operands(nrows, 40 + nrows);
  const C ref = spgemm::spa_spgemm(a, b);
  for (const int lanes : {1, 4}) {
    const C c = spgemm::hash_spgemm(a, b, lanes);
    EXPECT_EQ(c, ref) << "lanes " << lanes;
    // operator== holds -0.0 == +0.0; a first product taken by
    // assignment keeps the sign of zero, so compare the value bits too.
    ASSERT_EQ(c.vals().size(), ref.vals().size());
    EXPECT_EQ(std::memcmp(c.vals().data(), ref.vals().data(),
                          ref.vals().size() * sizeof(val_t)),
              0)
        << "lanes " << lanes;
  }
  const auto per_col = spgemm::symbolic_nnz_per_col(a, b);
  ASSERT_EQ(per_col.size(), static_cast<std::size_t>(ref.ncols()));
  for (vidx_t j = 0; j < ref.ncols(); ++j) {
    EXPECT_EQ(per_col[static_cast<std::size_t>(j)],
              static_cast<std::uint64_t>(ref.col_nnz(j)))
        << "column " << j;
  }

  // The operands really exercise what they claim: empty columns, an
  // explicit zero, a -0.0, and — once the height allows it — both
  // extraction paths (bitmap walk, and sort when rows span too many
  // words).
  std::size_t empty = 0, walked = 0, sorted = 0;
  for (vidx_t j = 0; j < ref.ncols(); ++j) {
    const auto rows = ref.col_rows(j);
    if (rows.empty()) {
      ++empty;
      continue;
    }
    const auto span_words = static_cast<std::size_t>(rows.back() / 64 -
                                                     rows.front() / 64);
    (span_words < spgemm::detail::kWalkWordsPerRow * rows.size() ? walked
                                                                 : sorted)++;
  }
  EXPECT_GT(empty, 0u);
  EXPECT_GT(walked, 0u);
  if (nrows >= 4096) {
    EXPECT_GT(sorted, 0u);
  }
  EXPECT_NE(std::find(ref.vals().begin(), ref.vals().end(), 0.0),
            ref.vals().end());
  EXPECT_TRUE(std::any_of(ref.vals().begin(), ref.vals().end(),
                          [](val_t v) { return v == 0 && std::signbit(v); }));
}

INSTANTIATE_TEST_SUITE_P(Heights, RowAccumulatorPin,
                         testing::Values(1, 63, 64, 65, 1000, 5000),
                         [](const testing::TestParamInfo<vidx_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(Spgemm, FlopsConsistentWithKernelWork) {
  const C a = random_csc(64, 64, 0.1, 7);
  const C b = random_csc(64, 64, 0.1, 8);
  const std::uint64_t f = sparse::spgemm_flops(a, b);
  const C c = spgemm::hash_spgemm(a, b);
  // flops >= nnz(C) always; cf = flops/nnz(C) >= 1.
  EXPECT_GE(f, c.nnz());
  EXPECT_GE(sparse::compression_factor(f, c.nnz()), 1.0);
}

}  // namespace
