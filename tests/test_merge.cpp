// Merge-scheme tests: k-way correctness, Algorithm 2's stack mechanics,
// equivalence of all three schemes' outputs, the §IV operation-count
// ordering (multiway <= binary << immediate), and the Table III memory
// property (binary peak < multiway peak when lists overlap).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "merge/binary.hpp"
#include "merge/immediate.hpp"
#include "merge/kway.hpp"
#include "merge/multiway.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace {

using namespace mclx;
using C = sparse::Csc<vidx_t, val_t>;
using T = sparse::Triples<vidx_t, val_t>;

C random_block(vidx_t nrows, vidx_t ncols, int entries, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(nrows, ncols);
  for (int e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(nrows)),
                     static_cast<vidx_t>(rng.bounded(ncols)),
                     rng.uniform() * 2 - 1);
  }
  t.sort_and_combine();
  return sparse::csc_from_triples(std::move(t));
}

std::vector<C> random_lists(int k, vidx_t nrows, vidx_t ncols, int entries,
                            std::uint64_t seed) {
  std::vector<C> lists;
  for (int i = 0; i < k; ++i) {
    lists.push_back(random_block(nrows, ncols, entries, seed + i));
  }
  return lists;
}

/// Reference sum of equally-shaped blocks.
C reference_sum(const std::vector<C>& lists) {
  C acc(lists.front().nrows(), lists.front().ncols());
  for (const auto& l : lists) acc = sparse::add(acc, l);
  return acc;
}

TEST(KwayMerge, MatchesPairwiseAddition) {
  const auto lists = random_lists(5, 30, 30, 80, 1);
  const C merged = merge::kway_merge(lists);
  EXPECT_TRUE(sparse::approx_equal(reference_sum(lists), merged));
}

TEST(KwayMerge, SingleListIsIdentity) {
  const auto lists = random_lists(1, 10, 10, 20, 2);
  EXPECT_EQ(merge::kway_merge(lists), lists.front());
}

TEST(KwayMerge, ShapeMismatchThrows) {
  std::vector<C> lists = {random_block(5, 5, 5, 3), random_block(6, 5, 5, 4)};
  EXPECT_THROW(merge::kway_merge(lists), std::invalid_argument);
}

TEST(KwayMerge, EmptyInputThrows) {
  std::vector<const C*> none;
  EXPECT_THROW((merge::kway_merge<vidx_t, val_t>(none)),
               std::invalid_argument);
}

TEST(KwayMerge, DisjointListsConcatenate) {
  // Pairwise-disjoint row sets (the paper's worst-case assumption):
  // output nnz = sum of inputs.
  T t1(10, 1), t2(10, 1);
  t1.push(0, 0, 1.0);
  t1.push(2, 0, 1.0);
  t2.push(1, 0, 2.0);
  t2.push(5, 0, 2.0);
  const std::vector<C> lists = {sparse::csc_from_triples(t1),
                                sparse::csc_from_triples(t2)};
  const C merged = merge::kway_merge(lists);
  EXPECT_EQ(merged.nnz(), 4u);
  EXPECT_TRUE(merged.cols_sorted());
}

TEST(KwayMerge, TwoBlocksCommuteBitwise) {
  // Two blocks take the two-pointer merge: every tie sums two values,
  // and x + y == y + x, so swapping the blocks changes no bit. The
  // blocks overlap heavily so ties are common.
  const C x = random_block(40, 25, 500, 21);
  const C y = random_block(40, 25, 500, 22);
  const C xy = merge::kway_merge(std::vector<C>{x, y});
  EXPECT_EQ(xy, merge::kway_merge(std::vector<C>{y, x}));
  EXPECT_TRUE(sparse::approx_equal(sparse::add(x, y), xy));
  EXPECT_TRUE(xy.cols_sorted());
}

/// Same structure and the same value bits (operator== holds -0.0 ==
/// +0.0, memcmp does not).
void expect_bitwise(const C& got, const C& want) {
  EXPECT_EQ(got, want);
  ASSERT_EQ(got.vals().size(), want.vals().size());
  EXPECT_EQ(std::memcmp(got.vals().data(), want.vals().data(),
                        want.vals().size() * sizeof(val_t)),
            0);
}

TEST(KwayMerge, FoldsLeftToRightInBlockOrder) {
  // The fold order (docs/KERNELS.md): an entry is the first block's value
  // at that coordinate, plus each later block's in block order. Dense
  // overlapping blocks with magnitudes spread over 2^-60 … 1 make any
  // other order show in the bits.
  const vidx_t nrows = 30, ncols = 20;
  for (int k = 3; k <= 6; ++k) {
    std::vector<C> blocks;
    util::Xoshiro256 rng(500 + static_cast<std::uint64_t>(k));
    for (int w = 0; w < k; ++w) {
      T t(nrows, ncols);
      for (int e = 0; e < 1200; ++e) {
        t.push_unchecked(static_cast<vidx_t>(rng.bounded(nrows)),
                         static_cast<vidx_t>(rng.bounded(ncols)),
                         std::exp2(-60.0 * rng.uniform()));
      }
      t.sort_and_combine();
      blocks.push_back(sparse::csc_from_triples(std::move(t)));
    }

    // Dense left fold, column by column, in block order.
    const auto cells = static_cast<std::size_t>(nrows);
    std::vector<val_t> want_vals;
    std::vector<vidx_t> want_rows, want_colptr{0};
    std::size_t overlaps = 0;
    for (vidx_t j = 0; j < ncols; ++j) {
      std::vector<val_t> sum(cells);
      std::vector<int> seen(cells, 0);
      for (const C& b : blocks) {
        const auto rows = b.col_rows(j);
        const auto vals = b.col_vals(j);
        for (std::size_t p = 0; p < rows.size(); ++p) {
          const auto r = static_cast<std::size_t>(rows[p]);
          sum[r] = seen[r]++ == 0 ? vals[p] : sum[r] + vals[p];
        }
      }
      for (std::size_t r = 0; r < cells; ++r) {
        if (seen[r] == 0) continue;
        overlaps += seen[r] >= 3 ? 1 : 0;
        want_rows.push_back(static_cast<vidx_t>(r));
        want_vals.push_back(sum[r]);
      }
      want_colptr.push_back(static_cast<vidx_t>(want_rows.size()));
    }
    const C want(nrows, ncols, std::move(want_colptr), std::move(want_rows),
                 std::move(want_vals));
    SCOPED_TRACE("k = " + std::to_string(k));
    EXPECT_GT(overlaps, want.nnz() / 2);  // most entries fold 3+ values
    expect_bitwise(merge::kway_merge(blocks), want);
  }
}

class MergeSchemeEquivalence : public testing::TestWithParam<int> {};

TEST_P(MergeSchemeEquivalence, AllSchemesAgree) {
  const int k = GetParam();  // number of SUMMA stages
  const auto lists = random_lists(k, 40, 40, 120, 10);
  const C ref = reference_sum(lists);

  merge::MultiwayMerger<vidx_t, val_t> mw;
  merge::BinaryMerger<vidx_t, val_t> bin;
  merge::ImmediateMerger<vidx_t, val_t> imm;
  for (const auto& l : lists) {
    mw.push(l);
    bin.push(l);
    imm.push(l);
  }
  const C mw_result = mw.finalize();
  const auto [bin_result, outcome] = bin.finalize();
  const C imm_result = imm.finalize();

  EXPECT_TRUE(sparse::approx_equal(ref, mw_result));
  EXPECT_TRUE(sparse::approx_equal(ref, bin_result));
  EXPECT_TRUE(sparse::approx_equal(ref, imm_result));
  // Up to five stages every scheme is the left fold S1 + S2 + … From six,
  // Algorithm 2 adds S5 + S6 before joining them to the rest, so the
  // schemes agree only to rounding (docs/KERNELS.md, "Fold order").
  if (k <= 5) {
    expect_bitwise(bin_result, mw_result);
    expect_bitwise(imm_result, mw_result);
  }
}

TEST_P(MergeSchemeEquivalence, OperationCountOrdering) {
  // §IV: multiway = kn lg k ops (one event); binary pays at most a
  // lg lg k factor more; immediate pays ~k/lg k more. In element counts:
  // multiway elements_processed <= binary <= immediate (strict for k >= 4
  // with overlapping lists... allow equality at tiny k).
  const int k = GetParam();
  const auto lists = random_lists(k, 40, 40, 120, 20);

  merge::MultiwayMerger<vidx_t, val_t> mw;
  merge::BinaryMerger<vidx_t, val_t> bin;
  merge::ImmediateMerger<vidx_t, val_t> imm;
  for (const auto& l : lists) {
    mw.push(l);
    bin.push(l);
    imm.push(l);
  }
  mw.finalize();
  bin.finalize();
  imm.finalize();

  EXPECT_LE(mw.stats().elements_processed, bin.stats().elements_processed);
  if (k >= 4) {
    EXPECT_LT(bin.stats().elements_processed,
              imm.stats().elements_processed);
  }
}

TEST_P(MergeSchemeEquivalence, BinaryPeakBelowMultiwayPeak) {
  // Table III: overlapping lists compress along the way, so the binary
  // merge's peak working set is below multiway's total-resident peak.
  const int k = GetParam();
  if (k < 4) GTEST_SKIP() << "compression needs enough stages";
  // Dense-ish overlapping lists: high duplicate-coordinate rate.
  const auto lists = random_lists(k, 20, 20, 250, 30);

  merge::MultiwayMerger<vidx_t, val_t> mw;
  merge::BinaryMerger<vidx_t, val_t> bin;
  for (const auto& l : lists) {
    mw.push(l);
    bin.push(l);
  }
  mw.finalize();
  bin.finalize();
  EXPECT_LT(bin.stats().peak_elements, mw.stats().peak_elements);
}

INSTANTIATE_TEST_SUITE_P(StageCounts, MergeSchemeEquivalence,
                         testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16),
                         [](const testing::TestParamInfo<int>& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(BinaryMerge, Algorithm2StackDepths) {
  // After pushing i lists the stack depth equals popcount(i): stage
  // results pair up exactly like binary counter carries.
  merge::BinaryMerger<vidx_t, val_t> bin;
  for (int i = 1; i <= 16; ++i) {
    bin.push(random_block(8, 8, 10, 100 + static_cast<std::uint64_t>(i)));
    EXPECT_EQ(bin.stack_depth(),
              static_cast<std::size_t>(__builtin_popcount(i)))
        << "after stage " << i;
  }
}

TEST(BinaryMerge, MergeEventsOnlyAtEvenStages) {
  merge::BinaryMerger<vidx_t, val_t> bin;
  for (int i = 1; i <= 8; ++i) {
    const auto outcome =
        bin.push(random_block(8, 8, 10, 200 + static_cast<std::uint64_t>(i)));
    EXPECT_EQ(outcome.merged, i % 2 == 0) << "stage " << i;
  }
}

TEST(BinaryMerge, PowerOfTwoNeedsNoFinalMerge) {
  merge::BinaryMerger<vidx_t, val_t> bin;
  for (int i = 0; i < 8; ++i) {
    bin.push(random_block(8, 8, 10, 300 + static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(bin.stack_depth(), 1u);
  const auto [result, outcome] = bin.finalize();
  EXPECT_FALSE(outcome.merged);  // stack already a single list
  EXPECT_GT(result.nnz(), 0u);
}

TEST(BinaryMerge, ReusableAfterFinalize) {
  merge::BinaryMerger<vidx_t, val_t> bin;
  bin.push(random_block(8, 8, 10, 400));
  bin.push(random_block(8, 8, 10, 401));
  bin.finalize();
  EXPECT_EQ(bin.stack_depth(), 0u);
  // A second round starts clean.
  bin.push(random_block(8, 8, 10, 402));
  const auto [r, o] = bin.finalize();
  EXPECT_FALSE(o.merged);
  EXPECT_GT(r.nnz(), 0u);
}

TEST(MergeStats, WeightedOpsMatchesEvents) {
  merge::MergeStats s;
  s.record({/*elements=*/8, /*output=*/6, /*ways=*/3}, 8);
  s.record({/*elements=*/4, /*output=*/4, /*ways=*/1}, 12);
  EXPECT_EQ(s.elements_processed, 12u);
  EXPECT_EQ(s.peak_elements, 12u);
  EXPECT_EQ(s.merge_events, 2);
  EXPECT_NEAR(s.weighted_ops(), 8 * 2.0 + 4 * 1.0, 1e-12);
  EXPECT_EQ(merge::peak_bytes(s, 16), 12u * 16u);
}

TEST(ImmediateMerge, QuadraticPassesOverEarlyLists) {
  // With k equal-size disjoint lists of n elements, immediate merging
  // processes n(k(k+1)/2 - 1) elements — the §IV count.
  const int k = 6;
  const vidx_t n = 10;
  std::vector<C> lists;
  for (int i = 0; i < k; ++i) {
    T t(static_cast<vidx_t>(k) * n, 1);
    for (vidx_t r = 0; r < n; ++r) t.push(static_cast<vidx_t>(i) * n + r, 0, 1.0);
    lists.push_back(sparse::csc_from_triples(t));
  }
  merge::ImmediateMerger<vidx_t, val_t> imm;
  for (const auto& l : lists) imm.push(l);
  imm.finalize();
  EXPECT_EQ(imm.stats().elements_processed,
            static_cast<std::uint64_t>(n) * (k * (k + 1) / 2 - 1));
}

}  // namespace
