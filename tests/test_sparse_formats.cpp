// Format tests: triples canonicalization, CSC/DCSC invariants and
// validation, round-trip conversions among all formats, and transpose.
#include <gtest/gtest.h>

#include <tuple>

#include "sparse/convert.hpp"
#include "sparse/csc.hpp"
#include "sparse/dcsc.hpp"
#include "sparse/triples.hpp"
#include "util/rng.hpp"

namespace {

using namespace mclx::sparse;

using T32 = Triples<int, double>;
using C32 = Csc<int, double>;

T32 sample_triples() {
  // 4x5 matrix with a duplicate coordinate and an empty column (col 3).
  T32 t(4, 5);
  t.push(0, 0, 1.0);
  t.push(2, 0, 2.0);
  t.push(1, 1, 3.0);
  t.push(1, 1, 4.0);  // duplicate: sums to 7
  t.push(3, 2, 5.0);
  t.push(0, 4, 6.0);
  return t;
}

/// Random matrix for round-trip property tests.
T32 random_triples(int nrows, int ncols, int entries, std::uint64_t seed) {
  mclx::util::Xoshiro256 rng(seed);
  T32 t(nrows, ncols);
  for (int e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<int>(rng.bounded(nrows)),
                     static_cast<int>(rng.bounded(ncols)),
                     rng.uniform_pos());
  }
  t.sort_and_combine();
  return t;
}

TEST(Triples, SortAndCombineSumsDuplicates) {
  T32 t = sample_triples();
  t.sort_and_combine();
  EXPECT_EQ(t.nnz(), 5u);
  EXPECT_TRUE(t.is_sorted());
  // The duplicate (1,1) entries collapsed into 7.
  bool found = false;
  for (const auto& e : t) {
    if (e.row == 1 && e.col == 1) {
      EXPECT_DOUBLE_EQ(e.val, 7.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Triples, DropZeros) {
  T32 t(2, 2);
  t.push(0, 0, 1.0);
  t.push(0, 0, -1.0);  // cancels
  t.push(1, 1, 2.0);
  t.sort_and_combine(/*drop_zeros=*/true);
  EXPECT_EQ(t.nnz(), 1u);
}

TEST(Triples, PushValidatesRange) {
  T32 t(2, 2);
  EXPECT_THROW(t.push(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(t.push(0, -1, 1.0), std::out_of_range);
}

TEST(Triples, NegativeDimensionThrows) {
  EXPECT_THROW(T32(-1, 2), std::invalid_argument);
}

TEST(Csc, FromTriplesStructure) {
  const C32 a = csc_from_triples(sample_triples());
  EXPECT_EQ(a.nrows(), 4);
  EXPECT_EQ(a.ncols(), 5);
  EXPECT_EQ(a.nnz(), 5u);
  EXPECT_EQ(a.col_nnz(0), 2);
  EXPECT_EQ(a.col_nnz(1), 1);
  EXPECT_EQ(a.col_nnz(3), 0);  // empty column preserved
  EXPECT_TRUE(a.cols_sorted());
  EXPECT_DOUBLE_EQ(a.col_vals(1)[0], 7.0);
}

TEST(Csc, ValidateCatchesCorruption) {
  // colptr not starting at zero.
  EXPECT_THROW(C32(2, 1, {1, 1}, {}, {}), std::invalid_argument);
  // colptr back != nnz.
  EXPECT_THROW(C32(2, 1, {0, 2}, {0}, {1.0}), std::invalid_argument);
  // row out of range.
  EXPECT_THROW(C32(2, 1, {0, 1}, {5}, {1.0}), std::invalid_argument);
  // non-monotone colptr.
  EXPECT_THROW(C32(2, 2, {0, 1, 0}, {0}, {1.0}), std::invalid_argument);
  // rowids/vals length mismatch.
  EXPECT_THROW(C32(2, 1, {0, 1}, {0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Csc, RejectsNegativeAndMismatchedShapes) {
  EXPECT_THROW(C32(-1, 2), std::invalid_argument);
  EXPECT_THROW(C32(2, -1), std::invalid_argument);
  EXPECT_THROW(C32(-1, 0, {0}, {}, {}), std::invalid_argument);
  // colptr must have ncols + 1 entries.
  EXPECT_THROW(C32(2, 2, {0, 0}, {}, {}), std::invalid_argument);
  EXPECT_THROW(C32(2, 1, {0, 0, 0}, {}, {}), std::invalid_argument);
  // Negative row ids are out of range too.
  EXPECT_THROW(C32(2, 1, {0, 1}, {-1}, {1.0}), std::invalid_argument);
  // The boundary cases are fine.
  EXPECT_NO_THROW(C32(0, 0, {0}, {}, {}));
  EXPECT_NO_THROW(C32(2, 1, {0, 1}, {1}, {1.0}));
}

TEST(Csc, BytesAccountsArrays) {
  const C32 a = csc_from_triples(sample_triples());
  EXPECT_EQ(a.bytes(), 6 * sizeof(int) + 5 * sizeof(int) + 5 * sizeof(double));
}

TEST(Convert, TransposeInvolution) {
  const C32 a = csc_from_triples(random_triples(40, 40, 300, 3));
  EXPECT_EQ(transpose(transpose(a)), a);
}

TEST(Convert, TransposeMatchesSwappedTriples) {
  // An involution check alone passes an identity function, so compare
  // against the CSC of the swapped triples on rectangular shapes whose
  // last rows and columns stay empty.
  for (const auto& [nrows, ncols, entries] :
       {std::tuple{9, 4, 20}, std::tuple{3, 17, 25}, std::tuple{1, 6, 4},
        std::tuple{8, 1, 5}, std::tuple{5, 7, 0}}) {
    const T32 t = random_triples(nrows, ncols, entries, 7);
    T32 tail(nrows + 2, ncols + 3);  // two empty rows, three empty columns
    T32 swapped(ncols + 3, nrows + 2);
    for (const auto& e : t) {
      tail.push(e.row, e.col, e.val);
      swapped.push(e.col, e.row, e.val);
    }
    const C32 at = transpose(csc_from_triples(tail));
    EXPECT_EQ(at, csc_from_triples(swapped)) << nrows << "x" << ncols;
    EXPECT_EQ(at.nrows(), ncols + 3);
    EXPECT_EQ(at.ncols(), nrows + 2);
  }
}

TEST(Convert, TriplesCscRoundTrip) {
  T32 t = random_triples(25, 35, 200, 4);
  const C32 a = csc_from_triples(t);
  T32 back = triples_from_csc(a);
  back.sort_and_combine();
  EXPECT_EQ(back, t);
}

TEST(Dcsc, CompressesEmptyColumns) {
  const C32 a = csc_from_triples(sample_triples());
  const auto d = dcsc_from_csc(a);
  EXPECT_EQ(d.nzc(), 4);  // col 3 empty
  EXPECT_EQ(d.nnz(), a.nnz());
  EXPECT_EQ(d.nz_col_id(0), 0);
  EXPECT_EQ(d.nz_col_id(3), 4);
  EXPECT_EQ(d.find_col(3), -1);
  EXPECT_EQ(d.find_col(4), 3);
}

TEST(Dcsc, RoundTripThroughCsc) {
  const C32 a = csc_from_triples(random_triples(50, 60, 100, 5));  // hypersparse
  EXPECT_EQ(csc_from_dcsc(dcsc_from_csc(a)), a);
}

TEST(Dcsc, BytesSmallerThanCscWhenHypersparse) {
  // 3 nonzeros spread over a 1000-column matrix: DCSC's win condition.
  T32 t(1000, 1000);
  t.push(1, 10, 1.0);
  t.push(2, 500, 2.0);
  t.push(3, 900, 3.0);
  const C32 c = csc_from_triples(t);
  const auto d = dcsc_from_csc(c);
  EXPECT_LT(d.bytes(), c.bytes() / 10);
}

TEST(Dcsc, ValidateCatchesCorruption) {
  using D32 = Dcsc<int, double>;
  // jc not strictly increasing.
  EXPECT_THROW(D32(2, 3, {1, 1}, {0, 1, 2}, {0, 0}, {1.0, 1.0}),
               std::invalid_argument);
  // empty column listed.
  EXPECT_THROW(D32(2, 3, {0, 1}, {0, 0, 1}, {0}, {1.0}),
               std::invalid_argument);
  // column id out of range.
  EXPECT_THROW(D32(2, 3, {5}, {0, 1}, {0}, {1.0}), std::invalid_argument);
}

TEST(Dcsc, RejectsInconsistentArrays) {
  using D32 = Dcsc<int, double>;
  EXPECT_THROW(D32(-1, 3), std::invalid_argument);
  EXPECT_THROW(D32(2, -3, {}, {0}, {}, {}), std::invalid_argument);
  // cp must have nzc + 1 entries, start at 0 and end at nnz.
  EXPECT_THROW(D32(2, 3, {0}, {0}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(D32(2, 3, {0}, {1, 1}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(D32(2, 3, {0}, {0, 2}, {0}, {1.0}), std::invalid_argument);
  // ir and num must pair up.
  EXPECT_THROW(D32(2, 3, {0}, {0, 1}, {0}, {1.0, 2.0}),
               std::invalid_argument);
  // Row ids and column ids must lie inside the block.
  EXPECT_THROW(D32(2, 3, {0}, {0, 1}, {2}, {1.0}), std::invalid_argument);
  EXPECT_THROW(D32(2, 3, {-1}, {0, 1}, {0}, {1.0}), std::invalid_argument);
  // An empty block and the last column are fine.
  EXPECT_NO_THROW(D32(2, 3, {}, {0}, {}, {}));
  EXPECT_NO_THROW(D32(2, 3, {2}, {0, 1}, {1}, {1.0}));
}

TEST(Convert, EmptyMatrixRoundTrips) {
  const C32 a = csc_from_triples(T32(7, 9));
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_EQ(csc_from_dcsc(dcsc_from_csc(a)), a);
}

TEST(Convert, ColSliceAndHcat) {
  const C32 a = csc_from_triples(random_triples(20, 30, 200, 7));
  const C32 left = csc_col_slice(a, 0, 12);
  const C32 right = csc_col_slice(a, 12, 30);
  EXPECT_EQ(left.ncols(), 12);
  EXPECT_EQ(right.ncols(), 18);
  const C32 glued = csc_hcat<int, double>({left, right});
  EXPECT_EQ(glued, a);
}

TEST(Convert, ColSliceEmptyRange) {
  const C32 a = csc_from_triples(random_triples(5, 8, 10, 8));
  const C32 none = csc_col_slice(a, 3, 3);
  EXPECT_EQ(none.ncols(), 0);
  EXPECT_EQ(none.nnz(), 0u);
}

TEST(Convert, ColSliceBadRangeThrows) {
  const C32 a = csc_from_triples(random_triples(5, 8, 10, 9));
  EXPECT_THROW(csc_col_slice(a, -1, 3), std::invalid_argument);
  EXPECT_THROW(csc_col_slice(a, 4, 2), std::invalid_argument);
  EXPECT_THROW(csc_col_slice(a, 0, 9), std::invalid_argument);
}

TEST(Convert, HcatRowMismatchThrows) {
  const C32 a = csc_from_triples(random_triples(5, 3, 5, 10));
  const C32 b = csc_from_triples(random_triples(6, 3, 5, 11));
  EXPECT_THROW((csc_hcat<int, double>({a, b})), std::invalid_argument);
}

}  // namespace
