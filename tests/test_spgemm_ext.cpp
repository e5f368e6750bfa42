// The hash kernel's lane path: bit-identical to the one-lane run at
// every lane count, with flops-balanced column partitions.
#include <gtest/gtest.h>

#include <algorithm>

#include "sparse/convert.hpp"
#include "spgemm/hash.hpp"
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
                     rng.uniform() * 2 - 1);
  }
  t.sort_and_combine();
  return sparse::csc_from_triples(std::move(t));
}

class ParallelHash : public testing::TestWithParam<int> {};

TEST_P(ParallelHash, BitIdenticalToSequential) {
  const int lanes = GetParam();
  const C a = random_csc(120, 90, 0.08, 1);
  const C b = random_csc(90, 150, 0.06, 2);
  const C seq = spgemm::hash_spgemm(a, b);
  const C par = spgemm::hash_spgemm(a, b, lanes);
  EXPECT_EQ(seq, par);  // exact, not approx: same per-column arithmetic
}

TEST_P(ParallelHash, SkewedColumnsStayCorrect) {
  // One giant column among many tiny ones: the flops partitioner must
  // not split a column and must still cover everything.
  const int lanes = GetParam();
  T t(200, 50);
  util::Xoshiro256 rng(3);
  for (int e = 0; e < 180; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(200)), 7,
                     rng.uniform_pos());  // hot column
  }
  for (int e = 0; e < 60; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(200)),
                     static_cast<vidx_t>(rng.bounded(50)), rng.uniform_pos());
  }
  t.sort_and_combine();
  const C b = sparse::csc_from_triples(std::move(t));
  const C a = random_csc(300, 200, 0.05, 4);
  EXPECT_EQ(spgemm::hash_spgemm(a, b), spgemm::hash_spgemm(a, b, lanes));
}

TEST_P(ParallelHash, DegenerateShapes) {
  // 0x0 operands and a product with no output columns: nothing to
  // split, and the lane path must still return a well-formed matrix.
  const int lanes = GetParam();
  const C empty(0, 0, {0}, {}, {});
  EXPECT_EQ(spgemm::hash_spgemm(empty, empty),
            spgemm::hash_spgemm(empty, empty, lanes));
  const C a = random_csc(20, 10, 0.3, 10);
  const C no_cols(10, 0, {0}, {}, {});
  const C c = spgemm::hash_spgemm(a, no_cols, lanes);
  EXPECT_EQ(c.nrows(), 20);
  EXPECT_EQ(c.ncols(), 0);
  EXPECT_EQ(spgemm::hash_spgemm(a, no_cols), c);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelHash,
                         testing::Values(1, 2, 3, 4, 8, 17),
                         [](const testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(ParallelHash, MoreThreadsThanColumns) {
  const C a = random_csc(30, 3, 0.5, 5);
  const C b = random_csc(3, 2, 0.9, 6);
  EXPECT_EQ(spgemm::hash_spgemm(a, b), spgemm::hash_spgemm(a, b, 16));
}

TEST(ParallelHash, NonPositiveLanesRunSequentially) {
  const C a = random_csc(40, 40, 0.1, 7);
  EXPECT_EQ(spgemm::hash_spgemm(a, a), spgemm::hash_spgemm(a, a, 0));
  EXPECT_EQ(spgemm::hash_spgemm(a, a), spgemm::hash_spgemm(a, a, -3));
}

TEST(ParallelHash, DimensionMismatchThrows) {
  const C a = random_csc(5, 6, 0.5, 8);
  const C b = random_csc(5, 5, 0.5, 9);
  EXPECT_THROW(spgemm::hash_spgemm(a, b, 2), std::invalid_argument);
}

TEST(ParallelHash, PartitionBoundariesDoNotDrift) {
  // 87 columns of exactly one flop each split 8 ways. The cumulative
  // target for boundary i must be (total*i)/parts; the old per-part
  // floor (total/parts * i) accumulated its rounding error and dumped
  // up to parts-1 extra columns on the last lane (17 here vs a fair 11).
  const vidx_t n = 87;
  T ta(n, n), tb(n, n);
  for (vidx_t j = 0; j < n; ++j) {
    ta.push_unchecked(j, j, 1.0);                // identity: col_nnz = 1
    tb.push_unchecked((j * 7) % n, j, 1.0);      // one entry per column
  }
  ta.sort_and_combine();
  tb.sort_and_combine();
  const C a = sparse::csc_from_triples(std::move(ta));
  const C b = sparse::csc_from_triples(std::move(tb));

  const int parts = 8;
  const auto bounds = spgemm::detail::partition_columns_by_flops(a, b, parts);
  ASSERT_EQ(bounds.size(), static_cast<std::size_t>(parts) + 1);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), n);
  vidx_t widest = 0;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    ASSERT_LE(bounds[i], bounds[i + 1]);
    widest = std::max(widest, bounds[i + 1] - bounds[i]);
  }
  // ceil(87/8) = 11; allow one column of slack, far below the drifting 17.
  EXPECT_LE(widest, 12);
}

}  // namespace
