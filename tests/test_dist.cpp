// Distributed layer: grid geometry, DistMat round trips, from_triples
// pinned bitwise against the sort-then-bucket path, the block counts the
// charges read against the blocks cut from the matrix, the SUMMA
// property suite (every variant × grid size × phasing equals the local
// reference product), SUMMA's phase sink, distributed top-k, and
// connected components.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/inflate.hpp"
#include "core/prune.hpp"
#include "dist/cc.hpp"
#include "dist/distmat.hpp"
#include "dist/grid.hpp"
#include "dist/summa.hpp"
#include "merge/binary.hpp"
#include "merge/multiway.hpp"
#include "obs/context.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"
#include "sim/eventlog.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/spa.hpp"
#include "util/rng.hpp"

#include "prune_blocks.hpp"

namespace {

using namespace mclx;
using dist::CscD;
using dist::DistMat;
using dist::ProcGrid;
using T = sparse::Triples<vidx_t, val_t>;

T random_triples(vidx_t nrows, vidx_t ncols, std::uint64_t entries,
                 std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(nrows, ncols);
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(nrows)),
                     static_cast<vidx_t>(rng.bounded(ncols)),
                     rng.uniform_pos());
  }
  t.sort_and_combine();
  return t;
}

TEST(Grid, GeometryRoundTrip) {
  const ProcGrid g(9);
  EXPECT_EQ(g.dim(), 3);
  for (int r = 0; r < 9; ++r) {
    const auto [i, j] = g.coords(r);
    EXPECT_EQ(g.rank_of(i, j), r);
  }
}

TEST(Grid, RowAndColGroups) {
  const ProcGrid g(4);
  EXPECT_EQ(g.row_ranks(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(g.col_ranks(1), (std::vector<int>{1, 3}));
}

TEST(Grid, RejectsNonSquare) {
  EXPECT_THROW(ProcGrid(6), std::invalid_argument);
  EXPECT_THROW(ProcGrid(0), std::invalid_argument);
}

TEST(Grid, BoundsChecked) {
  const ProcGrid g(4);
  EXPECT_THROW(g.rank_of(2, 0), std::out_of_range);
  EXPECT_THROW(g.coords(4), std::out_of_range);
}

TEST(DistMat, TriplesRoundTrip) {
  T t = random_triples(37, 41, 300, 1);  // deliberately non-divisible dims
  const DistMat m = DistMat::from_triples(t, ProcGrid(9));
  EXPECT_EQ(m.nnz(), t.nnz());
  T back = m.to_triples();
  EXPECT_EQ(back, t);
}

TEST(DistMat, BlockOffsetsCoverMatrix) {
  const DistMat m(10, 7, ProcGrid(9));
  EXPECT_EQ(m.row_offset(0), 0);
  EXPECT_EQ(m.row_offset(3), 10);
  vidx_t rows = 0, cols = 0;
  for (int i = 0; i < 3; ++i) rows += m.block_rows(i);
  for (int j = 0; j < 3; ++j) cols += m.block_cols(j);
  EXPECT_EQ(rows, 10);
  EXPECT_EQ(cols, 7);
}

TEST(DistMat, ToCscMatchesDirectBuild) {
  T t = random_triples(20, 20, 150, 2);
  const DistMat m = DistMat::from_triples(t, ProcGrid(4));
  EXPECT_EQ(m.to_csc(), sparse::csc_from_triples(t));
}

class GatherPin : public testing::TestWithParam<int> {};

TEST_P(GatherPin, ToCscEqualsTriplesPathBitwise) {
  // The O(nnz) gather copies tiles in block-row order with no sort; it
  // must equal the canonicalizing triples path bit for bit. Shapes are
  // ragged (not divisible by the grid), smaller than the grid (blocks
  // with no rows or columns), empty, and confined to a corner (whole
  // block rows and columns empty).
  const int dim = GetParam();
  const ProcGrid grid(dim * dim);
  struct Shape {
    vidx_t nrows, ncols;
    std::uint64_t entries;
    vidx_t row_limit, col_limit;
  };
  const Shape shapes[] = {{37, 41, 300, 37, 41}, {3, 2, 5, 3, 2},
                          {50, 50, 0, 50, 50},   {23, 61, 40, 23, 61},
                          {60, 45, 200, 13, 9},  {1, 1, 1, 1, 1}};
  std::uint64_t seed = 100;
  for (const Shape& sh : shapes) {
    T t(sh.nrows, sh.ncols);
    for (const auto& e :
         random_triples(sh.row_limit, sh.col_limit, sh.entries, ++seed)) {
      t.push(e.row, e.col, e.val);
    }
    const DistMat m = DistMat::from_triples(t, grid);
    EXPECT_EQ(m.to_csc(), sparse::csc_from_triples(m.to_triples()))
        << sh.nrows << "x" << sh.ncols << " on dim " << dim;
  }
}

TEST_P(GatherPin, SummaPlusPruneOutputGathersBitwise) {
  // Blocks written by the pipelined SUMMA's binary merge over two
  // phases and by the fused prune sink.
  const int dim = GetParam();
  T t = random_triples(47, 47, 500, 7);
  sim::SimState sim(sim::summit_like(dim * dim));
  const DistMat a = DistMat::from_triples(t, ProcGrid(dim * dim));
  dist::SummaOptions opt;
  opt.pipelined = true;
  opt.binary_merge = true;
  opt.phases = 2;
  const auto r = dist::summa_multiply(
      a, a, sim, opt, [](int, std::vector<CscD>& chunks) {
        for (auto& c : chunks) c = sparse::prune_threshold(c, 0.2);
      });
  ASSERT_GT(r.c.nnz(), 0u);
  EXPECT_EQ(r.c.to_csc(), sparse::csc_from_triples(r.c.to_triples()));
}

INSTANTIATE_TEST_SUITE_P(GridDims, GatherPin, testing::Values(1, 2, 3, 4),
                         [](const testing::TestParamInfo<int>& info) {
                           return "dim" + std::to_string(info.param);
                         });

// from_triples canonicalizes in one column-major scatter. The reference
// is the path it replaced: sort_and_combine over the whole input, then
// one csc_from_triples per block, joined. Equal means operator== and the same
// value bits, so -0.0 does not pass for 0.0.

DistMat sort_then_bucket(T t, const ProcGrid& grid) {
  t.sort_and_combine();
  DistMat m(t.nrows(), t.ncols(), grid);
  const int dim = grid.dim();
  std::vector<T> buckets;
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      buckets.emplace_back(m.block_rows(i), m.block_cols(j));
    }
  }
  for (const auto& e : t) {
    int i = 0, j = 0;
    while (e.row >= m.row_offset(i + 1)) ++i;
    while (e.col >= m.col_offset(j + 1)) ++j;
    buckets[static_cast<std::size_t>(grid.rank_of(i, j))].push(
        e.row - m.row_offset(i), e.col - m.col_offset(j), e.val);
  }
  std::vector<CscD> blocks;
  for (T& bucket : buckets) {
    blocks.push_back(sparse::csc_from_triples(std::move(bucket)));
  }
  return DistMat::from_blocks(t.nrows(), t.ncols(), grid, blocks);
}

bool same_value_bits(const DistMat& a, const DistMat& b) {
  for (int i = 0; i < a.dim(); ++i) {
    for (int j = 0; j < a.dim(); ++j) {
      const dist::DcscD xb = a.block(i, j);
      const dist::DcscD yb = b.block(i, j);
      const auto& x = xb.num();
      const auto& y = yb.num();
      if (x.size() != y.size()) return false;
      if (!x.empty() &&
          std::memcmp(x.data(), y.data(), x.size() * sizeof(val_t)) != 0) {
        return false;
      }
    }
  }
  return true;
}

class FromTriplesPin : public testing::TestWithParam<int> {};

TEST_P(FromTriplesPin, EqualsSortThenBucketPathBitwise) {
  const ProcGrid grid(GetParam());
  std::vector<std::pair<std::string, T>> cases;
  {
    // Unsorted, with many duplicates over magnitudes 2^-30..2^30 and
    // both signs, so most multi-way sums round differently in another
    // order.
    util::Xoshiro256 rng(11);
    T t(45, 45);
    for (int e = 0; e < 900; ++e) {
      const double mag =
          std::ldexp(1.0, static_cast<int>(rng.bounded(61)) - 30);
      t.push(static_cast<vidx_t>(rng.bounded(45)),
             static_cast<vidx_t>(rng.bounded(45)),
             (rng.uniform_pos() - 0.5) * mag);
    }
    cases.emplace_back("unsorted 45x45", std::move(t));
  }
  {
    T t(7, 5);
    // Three-way: (1e16 + 1) + 1 is 1e16, (1 + 1) + 1e16 is 1e16 + 2.
    t.push(3, 2, 1e16);
    t.push(0, 2, 0.5);
    t.push(3, 2, 1.0);
    t.push(3, 2, 1.0);
    // Two-way, out of row order within the column.
    t.push(6, 4, 0.1);
    t.push(1, 4, 2.0);
    t.push(6, 4, 0.2);
    // Signed zeros: -0.0 + -0.0 stays -0.0 (a sum started from +0.0
    // would not), lone explicit zeros stay, and 1 + -1 is an explicit 0.
    t.push(2, 0, -0.0);
    t.push(2, 0, -0.0);
    t.push(5, 0, 0.0);
    t.push(4, 0, -0.0);
    t.push(0, 0, 1.0);
    t.push(0, 0, -1.0);
    // Column 1 and column 3 stay empty.
    cases.emplace_back("duplicates 7x5", std::move(t));
  }
  // Sorted and combined, as the Matrix Market reader emits it.
  cases.emplace_back("canonical 45x45", random_triples(45, 45, 300, 12));
  {
    // Self loops appended to a canonical graph, as run_hipmcl builds
    // its input: every column ends out of row order.
    T t = random_triples(45, 45, 300, 13);
    for (vidx_t v = 0; v < 45; ++v) t.push(v, v, 1.0);
    cases.emplace_back("self loops 45x45", std::move(t));
  }
  {
    // Whole block columns empty: entries only in columns 3 and 40.
    util::Xoshiro256 rng(14);
    T t(45, 45);
    for (int e = 0; e < 60; ++e) {
      t.push(static_cast<vidx_t>(rng.bounded(45)), e % 2 ? 3 : 40,
             rng.uniform_pos());
    }
    cases.emplace_back("two columns 45x45", std::move(t));
  }
  cases.emplace_back("no entries 45x45", T(45, 45));
  cases.emplace_back("0x0", T(0, 0));

  for (const auto& [name, t] : cases) {
    const DistMat got = DistMat::from_triples(t, grid);
    const DistMat want = sort_then_bucket(t, grid);
    EXPECT_TRUE(got == want) << name << " on " << GetParam() << " nodes";
    EXPECT_TRUE(same_value_bits(got, want))
        << name << " on " << GetParam() << " nodes";
  }
}

TEST_P(FromTriplesPin, LongColumnsEqualSortThenBucketPathBitwise) {
  // A column longer than the 64-entry insertion limit is left alone when
  // already sorted, takes a last entry out of order by binary search and
  // rotate, and is otherwise ordered through the scratch buffer's stable
  // sort; the cases above never get that long.
  const ProcGrid grid(GetParam());
  std::vector<std::pair<std::string, T>> cases;
  {
    // 150 unsorted entries per column over 40 rows: each row repeats
    // about four times, with magnitudes 2^-30..2^30 and both signs.
    util::Xoshiro256 rng(21);
    T t(40, 30);
    for (int e = 0; e < 30 * 150; ++e) {
      const double mag =
          std::ldexp(1.0, static_cast<int>(rng.bounded(61)) - 30);
      t.push(static_cast<vidx_t>(rng.bounded(40)), e % 30,
             (rng.uniform_pos() - 0.5) * mag);
    }
    cases.emplace_back("unsorted long 40x30", std::move(t));
  }
  {
    // Around the limit: 64 unsorted entries (insertion), 65 unsorted
    // (scratch) and 65 sorted with runs of duplicates (no sort). Row
    // 7k mod 22 repeats three times per column, and every third value
    // is 1e16, so a sum in another order rounds differently.
    T t(22, 3);
    for (int k = 0; k < 64; ++k) {
      t.push((7 * k) % 22, 0, k % 3 == 0 ? 1e16 : 1.0);
    }
    for (int k = 0; k < 65; ++k) {
      t.push((7 * k) % 22, 1, k % 3 == 0 ? 1e16 : 1.0);
    }
    for (int k = 0; k < 65; ++k) {
      t.push(k / 3, 2, k % 3 == 1 ? 1e16 : 1.0);
    }
    cases.emplace_back("limit 22x3", std::move(t));
  }
  // Sorted long columns, as the Matrix Market reader emits them ...
  cases.emplace_back("canonical long 200x5", random_triples(200, 5, 800, 22));
  {
    // ... and with a self loop appended to each, as run_hipmcl builds
    // its input from them.
    T t = random_triples(200, 5, 800, 23);
    for (vidx_t v = 0; v < 5; ++v) t.push(v, v, 1.0);
    cases.emplace_back("self loops long 200x5", std::move(t));
  }
  {
    // A loop appended after a long sorted column that already holds its
    // row twice, with 1.0 each: in input order the sum is (1 + 1) + 1e16
    // = 1e16 + 2, while the loop placed first would give (1e16 + 1) + 1
    // = 1e16. Column 0's loop lands at its start, column 3's in its
    // middle, and column 4, which never holds row 4, takes its loop as a
    // new row.
    T t(80, 5);
    for (vidx_t c = 0; c < 5; ++c) {
      for (vidx_t r = 0; r < 80; ++r) {
        if (r == 4 && c == 4) continue;
        t.push(r, c, 1.0);
        if (r == c) t.push(r, c, 1.0);
      }
    }
    for (vidx_t v = 0; v < 5; ++v) t.push(v, v, 1e16);
    cases.emplace_back("loops on held rows 80x5", std::move(t));
  }

  for (const auto& [name, t] : cases) {
    const DistMat got = DistMat::from_triples(t, grid);
    const DistMat want = sort_then_bucket(t, grid);
    EXPECT_TRUE(got == want) << name << " on " << GetParam() << " nodes";
    EXPECT_TRUE(same_value_bits(got, want))
        << name << " on " << GetParam() << " nodes";
  }
}

TEST_P(FromTriplesPin, UnitDiagonalEqualsCopyThenScatterBitwise) {
  // run_hipmcl's self loops: from_triples appends (c, c, 1.0) after
  // column c's entries in its own scatter. The reference is the copy it
  // replaced: the input with the loops pushed at its end, scattered.
  const ProcGrid grid(GetParam());
  std::vector<std::pair<std::string, T>> cases;
  {
    // Unsorted, with duplicates on the diagonal whose sums depend on the
    // order: (1e16 + 1) + 1 is 1e16, the loop first would give 1e16 + 2.
    util::Xoshiro256 rng(31);
    T t(45, 45);
    for (int e = 0; e < 600; ++e) {
      t.push(static_cast<vidx_t>(rng.bounded(45)),
             static_cast<vidx_t>(rng.bounded(45)), rng.uniform_pos());
    }
    for (vidx_t v = 0; v < 45; v += 2) {
      t.push(v, v, 1.0);
      t.push(v, v, v % 4 == 0 ? 1e16 : -0.0);
    }
    cases.emplace_back("diagonal duplicates 45x45", std::move(t));
  }
  // Canonical input, as the Matrix Market reader emits it.
  cases.emplace_back("canonical 45x45", random_triples(45, 45, 300, 32));
  {
    // Long columns (past the insertion limit) holding their diagonal
    // twice, and one column that never holds it.
    T t(80, 80);
    for (vidx_t c = 0; c < 80; c += 9) {
      for (vidx_t r = 0; r < 80; ++r) {
        if (r == c && c == 72) continue;
        t.push(r, c, r == c ? 1e16 : 1.0);
        if (r == c) t.push(r, c, 1.0);
      }
    }
    cases.emplace_back("long columns 80x80", std::move(t));
  }
  // Non-square: the diagonal stops at the shorter side.
  cases.emplace_back("wide 20x33", random_triples(20, 33, 150, 33));
  cases.emplace_back("tall 33x20", random_triples(33, 20, 150, 34));
  cases.emplace_back("no entries 45x45", T(45, 45));
  cases.emplace_back("0x0", T(0, 0));

  for (const auto& [name, t] : cases) {
    T copy = t;
    for (vidx_t v = 0; v < std::min(t.nrows(), t.ncols()); ++v) {
      copy.push(v, v, 1.0);
    }
    const DistMat got = DistMat::from_triples(t, grid, true);
    const DistMat want = DistMat::from_triples(copy, grid);
    EXPECT_TRUE(got == want) << name << " on " << GetParam() << " nodes";
    EXPECT_TRUE(same_value_bits(got, want))
        << name << " on " << GetParam() << " nodes";
    EXPECT_TRUE(same_value_bits(got, sort_then_bucket(copy, grid)))
        << name << " on " << GetParam() << " nodes";
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, FromTriplesPin, testing::Values(1, 4, 9, 16),
                         [](const testing::TestParamInfo<int>& info) {
                           return "nodes" + std::to_string(info.param);
                         });

TEST(DistMat, FromBlocksValidatesShape) {
  const ProcGrid grid(4);
  std::vector<CscD> blocks = {CscD(5, 5), CscD(5, 5), CscD(5, 5), CscD(5, 5)};
  EXPECT_NO_THROW(DistMat::from_blocks(10, 10, grid, blocks));
  blocks[1] = CscD(3, 3);
  EXPECT_THROW(DistMat::from_blocks(10, 10, grid, blocks),
               std::invalid_argument);
  blocks.pop_back();
  EXPECT_THROW(DistMat::from_blocks(10, 10, grid, blocks),
               std::invalid_argument);
}

TEST(DistMat, HypersparseBlocksStayCompact) {
  // 1000x1000 with 20 nonzeros on a 5x5 grid: blocks must be DCSC-small.
  T t = random_triples(1000, 1000, 20, 3);
  const DistMat m = DistMat::from_triples(t, ProcGrid(25));
  bytes_t max_block_bytes = 0;
  for (int i = 0; i < m.dim(); ++i) {
    for (int j = 0; j < m.dim(); ++j) {
      max_block_bytes = std::max(max_block_bytes, m.block_bytes(i, j));
    }
  }
  EXPECT_LE(max_block_bytes,
            static_cast<bytes_t>(20 * (2 * sizeof(vidx_t) + sizeof(val_t)) +
                                 64));
}

// The virtual charges read each block's nnz and DCSC bytes from counts
// the matrix derives when it is built. They must be those of the block
// that block() cuts out, on every grid and for every way a matrix is
// made: from triples, by SUMMA (one and many phases, with and without a
// sink, pruned or not) and after an in-place inflation.

void expect_counts_match_blocks(const DistMat& m, const std::string& what) {
  std::uint64_t total = 0;
  for (int i = 0; i < m.dim(); ++i) {
    for (int j = 0; j < m.dim(); ++j) {
      const dist::DcscD b = m.block(i, j);
      EXPECT_EQ(m.block_nnz(i, j), b.nnz()) << what << " block " << i << ", " << j;
      EXPECT_EQ(m.block_bytes(i, j), b.bytes())
          << what << " block " << i << ", " << j;
      total += b.nnz();
    }
  }
  EXPECT_EQ(total, m.nnz()) << what;
}

class BlockCounts : public testing::TestWithParam<int> {};

TEST_P(BlockCounts, MatchTheBlocksCutFromTheMatrix) {
  const int nodes = GetParam();
  const ProcGrid grid(nodes);
  expect_counts_match_blocks(
      DistMat::from_triples(random_triples(97, 89, 3000, 51), grid), "random");
  expect_counts_match_blocks(
      DistMat::from_triples(random_triples(1000, 1000, 20, 52), grid),
      "hypersparse");
  // Entries only in the top-left corner: most blocks are empty.
  T corner(100, 100);
  for (vidx_t v = 0; v < 9; ++v) corner.push(v, (v * 7) % 9, 1.0 + v);
  corner.sort_and_combine();
  expect_counts_match_blocks(DistMat::from_triples(corner, grid),
                             "empty blocks");
  expect_counts_match_blocks(DistMat(50, 50, grid), "empty matrix");

  const DistMat a =
      DistMat::from_triples(random_triples(90, 90, 900, 53), grid);
  for (const int phases : {1, 3}) {
    for (const bool with_sink : {false, true}) {
      for (const bool prune : {false, true}) {
        const std::string what = std::to_string(phases) + " phases" +
                                 (with_sink ? ", sink" : "") +
                                 (prune ? ", pruned" : "");
        sim::SimState sim(sim::summit_like(nodes));
        dist::SummaOptions opt;
        opt.phases = phases;
        if (prune) opt.prune = dist::PruneParams{.cutoff = 0.05, .select_k = 5};
        const dist::PhaseSink sink = [](int, std::vector<CscD>&) {};
        dist::SummaResult r = dist::summa_multiply(
            a, a, sim, opt, with_sink ? sink : dist::PhaseSink{});
        expect_counts_match_blocks(r.c, what);
        core::distributed_inflate(r.c, 2.0, sim);
        expect_counts_match_blocks(r.c, what + ", inflated");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, BlockCounts,
                         testing::Values(1, 4, 9, 16, 25, 36, 49),
                         [](const testing::TestParamInfo<int>& info) {
                           return "nodes" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// SUMMA property suite.

struct SummaCase {
  std::string name;
  int nodes;        // thread-based -> ranks == nodes
  vidx_t n;
  std::uint64_t entries;
  bool pipelined;
  bool binary_merge;
  int phases;
  bool gpu;         // hybrid GPU kernels vs fixed cpu-hash
};

class SummaEquivalence : public testing::TestWithParam<SummaCase> {};

TEST_P(SummaEquivalence, MatchesLocalReference) {
  const auto& c = GetParam();
  T ta = random_triples(c.n, c.n, c.entries, 11);
  T tb = random_triples(c.n, c.n, c.entries, 12);

  auto machine = c.gpu ? sim::summit_like(c.nodes)
                       : sim::summit_like_cpu_only(c.nodes);
  sim::SimState sim(machine);
  const ProcGrid grid(sim.nranks());
  const DistMat a = DistMat::from_triples(ta, grid);
  const DistMat b = DistMat::from_triples(tb, grid);

  dist::SummaOptions opt;
  opt.pipelined = c.pipelined;
  opt.binary_merge = c.binary_merge;
  opt.phases = c.phases;
  opt.kernel = c.gpu ? spgemm::KernelPolicy::hybrid_policy()
                     : spgemm::KernelPolicy::fixed_kernel(
                           spgemm::KernelKind::kCpuHash);

  const auto result = dist::summa_multiply(a, b, sim, opt);
  const CscD expected = spgemm::spa_spgemm(sparse::csc_from_triples(ta),
                                           sparse::csc_from_triples(tb));
  const CscD actual = result.c.to_csc();
  EXPECT_TRUE(sparse::approx_equal(expected, actual, 1e-9))
      << "max rel diff " << sparse::max_rel_diff(expected, actual);

  EXPECT_EQ(result.stats.total_flops,
            sparse::spgemm_flops(sparse::csc_from_triples(ta),
                                 sparse::csc_from_triples(tb)));
  EXPECT_GT(result.stats.elapsed, 0.0);
  if (c.nodes > 1) {
    EXPECT_GT(result.stats.bcast_time, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SummaEquivalence,
    testing::Values(
        SummaCase{"blocking_1rank", 1, 50, 400, false, false, 1, false},
        SummaCase{"blocking_4", 4, 60, 600, false, false, 1, false},
        SummaCase{"blocking_9", 9, 61, 600, false, false, 1, false},
        SummaCase{"blocking_16", 16, 64, 800, false, false, 1, false},
        SummaCase{"pipelined_gpu_4", 4, 60, 600, true, true, 1, true},
        SummaCase{"pipelined_gpu_9", 9, 63, 700, true, true, 1, true},
        SummaCase{"pipelined_cpu", 4, 60, 600, true, true, 1, false},
        SummaCase{"blocking_binary", 4, 60, 600, false, true, 1, false},
        SummaCase{"pipelined_multiway", 4, 60, 600, true, false, 1, true},
        SummaCase{"phased_2", 4, 60, 600, false, false, 2, false},
        SummaCase{"phased_3_gpu", 9, 63, 700, true, true, 3, true},
        SummaCase{"phased_more_than_cols", 4, 6, 20, false, false, 5, false},
        SummaCase{"gpu_blocking", 4, 60, 600, false, false, 1, true}),
    [](const testing::TestParamInfo<SummaCase>& info) {
      return info.param.name;
    });

TEST(Summa, DimensionMismatchThrows) {
  sim::SimState sim(sim::summit_like(4));
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(random_triples(10, 12, 30, 4), grid);
  const DistMat b = DistMat::from_triples(random_triples(10, 10, 30, 5), grid);
  EXPECT_THROW(dist::summa_multiply(a, b, sim, {}), std::invalid_argument);
}

TEST(Summa, SimRankMismatchThrows) {
  sim::SimState sim(sim::summit_like(9));
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(random_triples(10, 10, 30, 6), grid);
  EXPECT_THROW(dist::summa_multiply(a, a, sim, {}), std::invalid_argument);
}

TEST(Summa, PipelinedBeatsBlockingOnWallTime) {
  // The whole point of Fig 2: same work, same results, less virtual time.
  T t = random_triples(80, 80, 2500, 7);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(t, grid);

  sim::SimState sim_block(sim::summit_like(4));
  dist::SummaOptions blocking;
  blocking.pipelined = false;
  blocking.binary_merge = false;
  const auto rb = dist::summa_multiply(a, a, sim_block, blocking);

  sim::SimState sim_pipe(sim::summit_like(4));
  dist::SummaOptions pipelined;
  pipelined.pipelined = true;
  pipelined.binary_merge = true;
  const auto rp = dist::summa_multiply(a, a, sim_pipe, pipelined);

  EXPECT_TRUE(sparse::approx_equal(rb.c.to_csc(), rp.c.to_csc(), 1e-9));
  EXPECT_LT(rp.stats.elapsed, rb.stats.elapsed);
}

TEST(Summa, PhaseSinkSeesEveryPhase) {
  T t = random_triples(40, 40, 500, 8);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(t, grid);
  sim::SimState sim(sim::summit_like_cpu_only(4));
  dist::SummaOptions opt;
  opt.phases = 3;
  opt.kernel =
      spgemm::KernelPolicy::fixed_kernel(spgemm::KernelKind::kCpuHash);
  int calls = 0;
  dist::summa_multiply(a, a, sim, opt,
                       [&](int phase, std::vector<CscD>& chunks) {
                         EXPECT_EQ(phase, calls++);
                         EXPECT_EQ(chunks.size(), 4u);
                       });
  EXPECT_EQ(calls, 3);
}

TEST(Summa, SinkCanPruneChunks) {
  // Zeroing every chunk through the sink must yield an empty product —
  // proving the fused prune path actually feeds the output.
  T t = random_triples(30, 30, 400, 9);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(t, grid);
  sim::SimState sim(sim::summit_like_cpu_only(4));
  dist::SummaOptions opt;
  opt.kernel =
      spgemm::KernelPolicy::fixed_kernel(spgemm::KernelKind::kCpuHash);
  const auto r = dist::summa_multiply(
      a, a, sim, opt, [](int, std::vector<CscD>& chunks) {
        for (auto& c : chunks) c = sparse::prune_threshold(c, 1e30);
      });
  EXPECT_EQ(r.c.nnz(), 0u);
}

TEST(Summa, PhaseColRangePartitions) {
  vidx_t covered = 0;
  for (int p = 0; p < 4; ++p) {
    const auto [c0, c1] = dist::phase_col_range(10, p, 4);
    EXPECT_LE(c0, c1);
    covered += c1 - c0;
  }
  EXPECT_EQ(covered, 10);
  EXPECT_THROW(dist::phase_col_range(10, 0, 0), std::invalid_argument);
}

TEST(Summa, MergePeakTrackedForBothSchemes) {
  T t = random_triples(60, 60, 1500, 10);
  const ProcGrid grid(9);
  const DistMat a = DistMat::from_triples(t, grid);

  sim::SimState s1(sim::summit_like(9));
  dist::SummaOptions mw;
  mw.binary_merge = false;
  const auto rm = dist::summa_multiply(a, a, s1, mw);

  sim::SimState s2(sim::summit_like(9));
  dist::SummaOptions bin;
  bin.binary_merge = true;
  bin.pipelined = true;
  const auto rbn = dist::summa_multiply(a, a, s2, bin);

  EXPECT_GT(rm.stats.merge_peak_elements_sum, 0u);
  EXPECT_GT(rbn.stats.merge_peak_elements_sum, 0u);
  // Table III's direction: binary merge needs less peak memory.
  EXPECT_LT(rbn.stats.merge_peak_elements_sum,
            rm.stats.merge_peak_elements_sum);
}

// ---------------------------------------------------------------------------
// SUMMA's phase pass against the per-block pipeline it replaced: the same
// stage loop, with every block pair decompressed, sliced and multiplied by
// LocalMultiplier::multiply, and the stage products folded by the real
// mergers. The pass counts what that pipeline builds, so everything it
// reports must match; the chunks match bitwise wherever the merge is the
// left fold of the stages (every multiway merge, and the binary merge up
// to five stages).

dist::SummaResult per_block_summa(const DistMat& a, const DistMat& b,
                                  sim::SimState& sim,
                                  const dist::SummaOptions& opt,
                                  const dist::PhaseSink& sink) {
  using sim::Stage;
  const int dim = a.dim();
  const int nranks = sim.nranks();
  const sim::CostModel model(sim.machine());
  std::vector<spgemm::LocalMultiplier> mults;
  for (int r = 0; r < nranks; ++r) mults.emplace_back(model, opt.kernel);
  std::vector<sim::StageTimes> before;
  std::vector<vtime_t> cpu_idle_before, gpu_idle_before;
  for (int r = 0; r < nranks; ++r) {
    before.push_back(sim.rank(r).stage_times());
    cpu_idle_before.push_back(sim.rank(r).cpu_idle());
    gpu_idle_before.push_back(sim.rank(r).gpu_idle());
  }
  const vtime_t elapsed_before = sim.elapsed();
  sim.barrier();
  for (int r = 0; r < nranks; ++r) sim.rank(r).gpu_skew_to(sim.rank(r).cpu_now());

  dist::SummaResult result{DistMat(a.nrows(), b.ncols(), a.grid()), {}};
  dist::SummaStats& stats = result.stats;
  std::vector<std::vector<CscD>> rank_chunks(static_cast<std::size_t>(nranks));
  std::vector<std::uint64_t> rank_peak(static_cast<std::size_t>(nranks), 0);
  for (int phase = 0; phase < opt.phases; ++phase) {
    if (phase > 0) {
      sim.barrier();
      for (int r = 0; r < nranks; ++r) {
        sim.rank(r).gpu_skew_to(sim.rank(r).cpu_now());
      }
    }
    std::vector<merge::BinaryMerger<vidx_t, val_t>> bin(
        static_cast<std::size_t>(nranks));
    std::vector<merge::MultiwayMerger<vidx_t, val_t>> mw(
        static_cast<std::size_t>(nranks));
    if (obs::MemLedger* ml = obs::context().ledger) {
      for (int r = 0; r < nranks; ++r) {
        obs::MemTracker t(ml, "merge.resident.r" + std::to_string(r), 16);
        if (opt.binary_merge) {
          bin[static_cast<std::size_t>(r)].set_mem_tracker(t);
        } else {
          mw[static_cast<std::size_t>(r)].set_mem_tracker(t);
        }
      }
    }
    std::vector<vtime_t> ready(static_cast<std::size_t>(nranks), 0);
    struct Pending {
      bool armed = false;
      std::uint64_t elements = 0;
      int ways = 0;
      vtime_t ready = 0;
    };
    std::vector<Pending> pending(static_cast<std::size_t>(nranks));
    const auto flush = [&](int r) {
      Pending& p = pending[static_cast<std::size_t>(r)];
      if (!p.armed) return;
      sim.rank(r).cpu_wait_until(p.ready);
      sim.rank(r).cpu_run(Stage::kMerge, model.merge(p.elements, p.ways));
      p.armed = false;
    };
    for (int k = 0; k < dim; ++k) {
      std::vector<CscD> a_csc, b_chunk;
      for (int i = 0; i < dim; ++i) {
        a_csc.push_back(sparse::csc_from_dcsc(a.block(i, k)));
      }
      for (int j = 0; j < dim; ++j) {
        const CscD full = sparse::csc_from_dcsc(b.block(k, j));
        const auto [c0, c1] =
            dist::phase_col_range(full.ncols(), phase, opt.phases);
        b_chunk.push_back(sparse::csc_col_slice(full, c0, c1));
      }
      std::uint64_t staging = 0;
      for (const CscD& m : a_csc) staging += m.bytes();
      for (const CscD& m : b_chunk) staging += m.bytes();
      obs::MemScope staging_mem("summa.staging", staging);
      for (int i = 0; i < dim; ++i) {
        const bytes_t bytes = a.block(i, k).bytes();
        obs::record("summa.bcast_bytes", static_cast<double>(bytes));
        obs::MemScope payload("summa.bcast_payload", bytes);
        sim::sim_bcast(sim, a.grid().row_ranks(i), bytes, Stage::kSummaBcast);
      }
      for (int j = 0; j < dim; ++j) {
        const bytes_t bytes = b_chunk[static_cast<std::size_t>(j)].bytes();
        obs::record("summa.bcast_bytes", static_cast<double>(bytes));
        obs::MemScope payload("summa.bcast_payload", bytes);
        sim::sim_bcast(sim, a.grid().col_ranks(j), bytes, Stage::kSummaBcast);
      }
      for (int i = 0; i < dim; ++i) {
        for (int j = 0; j < dim; ++j) {
          const int r = a.grid().rank_of(i, j);
          const auto ri = static_cast<std::size_t>(r);
          auto& tl = sim.rank(r);
          const CscD& ablk = a_csc[static_cast<std::size_t>(i)];
          const CscD& bblk = b_chunk[static_cast<std::size_t>(j)];
          tl.cpu_run(Stage::kOther, model.other(static_cast<std::uint64_t>(
                                        ablk.ncols() + bblk.ncols())));
          spgemm::LocalSpgemmResult lr =
              mults[ri].multiply(ablk, bblk, opt.cf_estimate);
          stats.total_flops += lr.flops;
          if (lr.gpu_fallback) ++stats.gpu_fallbacks;
          if (lr.device_cost.kernel > 0) {
            tl.cpu_run(Stage::kLocalSpGEMM, lr.device_cost.h2d);
            const vtime_t done = tl.gpu_run(Stage::kLocalSpGEMM,
                                            lr.device_cost.kernel, tl.cpu_now());
            ready[ri] = tl.gpu_run(Stage::kLocalSpGEMM, lr.device_cost.d2h, done);
            if (!opt.pipelined) tl.cpu_wait_until(ready[ri]);
          } else {
            tl.cpu_run(Stage::kLocalSpGEMM, lr.cpu_time);
            ready[ri] = tl.cpu_now();
          }
          flush(r);
          if (opt.binary_merge) {
            const auto outcome = bin[ri].push(std::move(lr.c));
            if (outcome.merged) {
              pending[ri] = {true, outcome.elements, outcome.ways, ready[ri]};
            }
          } else {
            mw[ri].push(std::move(lr.c));
          }
        }
      }
    }
    std::vector<CscD> chunks(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      auto& tl = sim.rank(r);
      if (opt.binary_merge) {
        flush(r);
        auto [chunk, outcome] = bin[ri].finalize();
        tl.cpu_wait_until(ready[ri]);
        if (outcome.merged) {
          tl.cpu_run(Stage::kMerge, model.merge(outcome.elements, outcome.ways));
        }
        rank_peak[ri] = std::max(rank_peak[ri], bin[ri].stats().peak_elements);
        chunks[ri] = std::move(chunk);
      } else {
        tl.cpu_wait_until(ready[ri]);
        chunks[ri] = mw[ri].finalize();
        const auto& ev = mw[ri].stats().events;
        if (!ev.empty()) {
          tl.cpu_run(Stage::kMerge,
                     model.merge(ev.back().elements, ev.back().ways));
        }
        rank_peak[ri] = std::max(rank_peak[ri], mw[ri].stats().peak_elements);
      }
      tl.join();
    }
    for (const CscD& chunk : chunks) stats.unpruned_nnz += chunk.nnz();
    const vtime_t sink_start = sim.elapsed();
    sink(phase, chunks);
    stats.sink_time += sim.elapsed() - sink_start;
    for (int r = 0; r < nranks; ++r) {
      rank_chunks[static_cast<std::size_t>(r)].push_back(
          std::move(chunks[static_cast<std::size_t>(r)]));
    }
  }
  std::vector<CscD> blocks(static_cast<std::size_t>(nranks));
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      const int r = a.grid().rank_of(i, j);
      CscD& block = blocks[static_cast<std::size_t>(r)];
      block = sparse::csc_hcat(rank_chunks[static_cast<std::size_t>(r)]);
      sim.rank(r).cpu_run(Stage::kOther, model.other(block.nnz()));
    }
  }
  result.c = DistMat::from_blocks(a.nrows(), b.ncols(), a.grid(), blocks);
  for (int r = 0; r < nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const auto& now = sim.rank(r).stage_times();
    const auto delta = [&](Stage s) {
      return now[static_cast<std::size_t>(s)] - before[ri][static_cast<std::size_t>(s)];
    };
    stats.spgemm_time = std::max(stats.spgemm_time, delta(Stage::kLocalSpGEMM));
    stats.bcast_time = std::max(stats.bcast_time, delta(Stage::kSummaBcast));
    stats.merge_time = std::max(stats.merge_time, delta(Stage::kMerge));
    stats.other_time = std::max(stats.other_time, delta(Stage::kOther));
    stats.cpu_idle += sim.rank(r).cpu_idle() - cpu_idle_before[ri];
    stats.gpu_idle += sim.rank(r).gpu_idle() - gpu_idle_before[ri];
    stats.merge_peak_elements_sum += rank_peak[ri];
    stats.merge_peak_elements_max =
        std::max(stats.merge_peak_elements_max, rank_peak[ri]);
  }
  stats.cpu_idle /= static_cast<double>(nranks);
  stats.gpu_idle /= static_cast<double>(nranks);
  stats.elapsed = sim.elapsed() - elapsed_before - stats.sink_time;
  return result;
}

/// What one SUMMA call leaves behind: its result, the chunks its sink
/// saw, its metrics, timeline and ledger.
struct SummaTrace {
  dist::SummaResult result{DistMat(0, 0, ProcGrid(1)), {}};
  std::vector<std::vector<CscD>> chunks;
  obs::MetricsRegistry metrics;
  sim::EventLog events;
  obs::MemLedger ledger;
};

template <typename Run>
void trace_summa(SummaTrace& out, Run&& run) {
  const obs::ScopedContext sinks({.metrics = &out.metrics,
                                  .ledger = &out.ledger,
                                  .events = &out.events,
                                  .recorder = nullptr});
  out.result = run([&out](int, std::vector<CscD>& chunks) {
    out.chunks.push_back(chunks);
  });
}

bool same_bits(const CscD& x, const CscD& y) {
  return x == y && (x.vals().empty() ||
                    std::memcmp(x.vals().data(), y.vals().data(),
                                x.vals().size() * sizeof(val_t)) == 0);
}

void expect_same_stats(const dist::SummaStats& x, const dist::SummaStats& y) {
  EXPECT_EQ(x.total_flops, y.total_flops);
  EXPECT_EQ(x.merge_peak_elements_sum, y.merge_peak_elements_sum);
  EXPECT_EQ(x.merge_peak_elements_max, y.merge_peak_elements_max);
  EXPECT_EQ(x.unpruned_nnz, y.unpruned_nnz);
  EXPECT_EQ(x.gpu_fallbacks, y.gpu_fallbacks);
  EXPECT_EQ(x.spgemm_time, y.spgemm_time);
  EXPECT_EQ(x.bcast_time, y.bcast_time);
  EXPECT_EQ(x.merge_time, y.merge_time);
  EXPECT_EQ(x.other_time, y.other_time);
  EXPECT_EQ(x.elapsed, y.elapsed);
  EXPECT_EQ(x.sink_time, y.sink_time);
  EXPECT_EQ(x.cpu_idle, y.cpu_idle);
  EXPECT_EQ(x.gpu_idle, y.gpu_idle);
}

/// Every virtual interval of every rank.
void expect_same_events(const sim::EventLog& got, const sim::EventLog& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < want.size(); ++e) {
    const sim::Event& p = got.events()[e];
    const sim::Event& q = want.events()[e];
    ASSERT_TRUE(p.rank == q.rank && p.resource == q.resource &&
                p.stage == q.stage && p.start == q.start && p.end == q.end)
        << "event " << e;
  }
}

class SummaPerBlock : public testing::TestWithParam<int> {};

TEST_P(SummaPerBlock, PassMatchesPerBlockProductsAndMerges) {
  const int nodes = GetParam();
  const int dim = ProcGrid(nodes).dim();
  const ProcGrid grid(nodes);
  const DistMat a = DistMat::from_triples(random_triples(90, 80, 6000, 41), grid);
  const DistMat b = DistMat::from_triples(random_triples(80, 85, 6000, 42), grid);
  sim::MachineConfig starved = sim::summit_like(nodes);
  starved.gpu_mem = 256;
  const std::pair<const char*, sim::MachineConfig> machines[] = {
      {"gpu", sim::summit_like(nodes)},
      {"cpu-only", sim::summit_like_cpu_only(nodes)},
      {"starved-gpu", starved}};
  struct Scheme {
    const char* name;
    bool pipelined, binary_merge;
    spgemm::KernelPolicy kernel;
    double cf_estimate;
  };
  const Scheme schemes[] = {
      {"original", false, false,
       spgemm::KernelPolicy::fixed_kernel(spgemm::KernelKind::kCpuHeap), -1},
      {"no-overlap", false, false, spgemm::KernelPolicy::hybrid_policy(), 3.0},
      {"optimized", true, true, spgemm::KernelPolicy::hybrid_policy(), -1},
  };
  std::map<std::string, std::uint64_t> seen;
  for (const auto& [machine_name, machine] : machines) {
    for (const Scheme& scheme : schemes) {
      for (const int phases : {1, 3}) {
        SCOPED_TRACE(std::string(machine_name) + ", " + scheme.name + ", " +
                     std::to_string(phases) + " phases on " +
                     std::to_string(nodes) + " nodes");
        dist::SummaOptions opt;
        opt.pipelined = scheme.pipelined;
        opt.binary_merge = scheme.binary_merge;
        opt.kernel = scheme.kernel;
        opt.phases = phases;
        opt.cf_estimate = scheme.cf_estimate;
        SummaTrace got, want;
        trace_summa(got, [&](const dist::PhaseSink& sink) {
          sim::SimState sim(machine);
          return dist::summa_multiply(a, b, sim, opt, sink);
        });
        trace_summa(want, [&](const dist::PhaseSink& sink) {
          sim::SimState sim(machine);
          return per_block_summa(a, b, sim, opt, sink);
        });

        expect_same_stats(got.result.stats, want.result.stats);

        // Kernel kinds, fallbacks, merge events and their peaks, and the
        // broadcast payloads.
        const auto compared = [](const std::string& name) {
          return name.rfind("spgemm.", 0) == 0 ||
                 name.rfind("merge.", 0) == 0 || name == "summa.bcast_bytes";
        };
        for (const auto& [name, value] : got.metrics.counters()) {
          if (compared(name)) {
            EXPECT_EQ(value, want.metrics.counter(name)) << name;
          }
        }
        for (const auto& [name, value] : want.metrics.counters()) {
          if (compared(name)) {
            EXPECT_EQ(got.metrics.counter(name), value) << name;
          }
        }
        for (const auto& [name, h] : got.metrics.histograms()) {
          if (compared(name)) {
            EXPECT_NE(want.metrics.histogram(name), nullptr) << name;
          }
        }
        for (const auto& [name, h] : want.metrics.histograms()) {
          if (!compared(name)) continue;
          const obs::Histogram* g = got.metrics.histogram(name);
          ASSERT_NE(g, nullptr) << name;
          EXPECT_EQ(g->count(), h.count()) << name;
          EXPECT_EQ(g->sum(), h.sum()) << name;
          EXPECT_EQ(g->max(), h.max()) << name;
          EXPECT_EQ(g->variance(), h.variance()) << name;
        }
        for (const char* name :
             {"spgemm.kernel.nsparse", "spgemm.kernel.rmerge2",
              "spgemm.kernel.cpu-hash", "spgemm.gpu_fallbacks"}) {
          seen[name] += want.metrics.counter(name);
        }

        expect_same_events(got.events, want.events);

        // The ledger mirrors of the merge buffers and the staging.
        for (const char* label : {"summa.staging", "summa.bcast_payload"}) {
          EXPECT_EQ(got.ledger.label_stats(label).high_water_bytes,
                    want.ledger.label_stats(label).high_water_bytes)
              << label;
        }
        for (int r = 0; r < nodes; ++r) {
          const std::string label = "merge.resident.r" + std::to_string(r);
          EXPECT_EQ(got.ledger.label_stats(label).high_water_bytes,
                    want.ledger.label_stats(label).high_water_bytes)
              << label;
        }

        // The chunks: bitwise wherever the stages fold left in both.
        const bool left_fold = !scheme.binary_merge || dim <= 5;
        ASSERT_EQ(got.chunks.size(), want.chunks.size());
        for (std::size_t p = 0; p < want.chunks.size(); ++p) {
          ASSERT_EQ(got.chunks[p].size(), want.chunks[p].size());
          for (std::size_t r = 0; r < want.chunks[p].size(); ++r) {
            const CscD& g = got.chunks[p][r];
            const CscD& w = want.chunks[p][r];
            if (left_fold) {
              EXPECT_TRUE(same_bits(g, w)) << "phase " << p << " rank " << r;
            } else {
              EXPECT_EQ(g.colptr(), w.colptr()) << "phase " << p << " rank " << r;
              EXPECT_EQ(g.rowids(), w.rowids()) << "phase " << p << " rank " << r;
              EXPECT_TRUE(sparse::approx_equal(g, w, 1e-12))
                  << "phase " << p << " rank " << r;
            }
          }
        }
      }
    }
  }
  // Both device libraries, the CPU kernel and the OOM fallback all ran.
  for (const auto& [name, count] : seen) EXPECT_GT(count, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(Grids, SummaPerBlock,
                         testing::Values(1, 4, 9, 16, 25, 36, 49),
                         [](const testing::TestParamInfo<int>& info) {
                           return "nodes" + std::to_string(info.param);
                         });

// A PhaseSink sees every phase's columns as rank chunks and may edit them
// in place: what it leaves is what the result holds. A chunk of another
// shape is an error.
TEST(SummaSink, EditsLandInTheResultAndShapesAreKept) {
  const ProcGrid grid(9);
  const DistMat a = DistMat::from_triples(random_triples(40, 40, 500, 45), grid);
  dist::SummaOptions opt;
  opt.phases = 3;
  sim::SimState plain_sim(sim::summit_like(9));
  const DistMat plain = dist::summa_multiply(a, a, plain_sim, opt).c;
  sim::SimState sim(sim::summit_like(9));
  const DistMat cleared =
      dist::summa_multiply(a, a, sim, opt,
                           [&](int, std::vector<CscD>& chunks) {
                             const int r = grid.rank_of(1, 2);
                             CscD& c = chunks[static_cast<std::size_t>(r)];
                             c = CscD(c.nrows(), c.ncols());
                           })
          .c;
  EXPECT_EQ(cleared.block_nnz(1, 2), 0u);
  for (int i = 0; i < grid.dim(); ++i) {
    for (int j = 0; j < grid.dim(); ++j) {
      if (i == 1 && j == 2) continue;
      EXPECT_TRUE(cleared.block(i, j) == plain.block(i, j))
          << "block " << i << ", " << j;
    }
  }

  sim::SimState bad_sim(sim::summit_like(9));
  EXPECT_THROW(dist::summa_multiply(a, a, bad_sim, opt,
                                    [](int, std::vector<CscD>& chunks) {
                                      chunks[0] = CscD(1, 1);
                                    }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The fused prune: SUMMA with a prune rule prunes each column inside the
// phase pass and charges the prune from counts; core::prune_chunks as a
// PhaseSink prunes the whole unpruned chunks afterwards. Both must agree
// on everything a run can see.

class SummaPrune : public testing::TestWithParam<int> {};

TEST_P(SummaPrune, InPassMatchesPruneChunksSink) {
  const int nodes = GetParam();
  const ProcGrid grid(nodes);
  // Sparse operands: product entries are mostly single products of two
  // uniform values, so the cutoffs below split columns, recovery runs
  // where few survive, and selection where many do.
  const DistMat a =
      DistMat::from_triples(random_triples(90, 80, 600, 43), grid);
  const DistMat b =
      DistMat::from_triples(random_triples(80, 85, 600, 44), grid);
  struct Scheme {
    const char* name;
    sim::MachineConfig machine;
    bool pipelined, binary_merge;
    spgemm::KernelPolicy kernel;
  };
  const Scheme schemes[] = {
      {"original", sim::summit_like_cpu_only(nodes), false, false,
       spgemm::KernelPolicy::fixed_kernel(spgemm::KernelKind::kCpuHeap)},
      {"no-overlap", sim::summit_like(nodes), false, false,
       spgemm::KernelPolicy::hybrid_policy()},
      {"optimized", sim::summit_like(nodes), true, true,
       spgemm::KernelPolicy::hybrid_policy()},
  };
  struct Rule {
    const char* name;
    dist::PruneParams params;
  };
  const Rule rules[] = {
      {"select", {.cutoff = 0.35, .select_k = 6, .recover_num = 0}},
      {"recover", {.cutoff = 0.35, .select_k = 6, .recover_num = 3}},
      {"empty-columns", {.cutoff = 0.9, .select_k = 6, .recover_num = 0}},
  };
  for (const Scheme& scheme : schemes) {
    for (const Rule& rule : rules) {
      for (const int phases : {1, 4}) {
        SCOPED_TRACE(std::string(scheme.name) + ", " + rule.name + ", " +
                     std::to_string(phases) + " phases on " +
                     std::to_string(nodes) + " nodes");
        dist::SummaOptions opt;
        opt.pipelined = scheme.pipelined;
        opt.binary_merge = scheme.binary_merge;
        opt.kernel = scheme.kernel;
        opt.phases = phases;
        SummaTrace got, want;
        trace_summa(got, [&](const dist::PhaseSink& capture) {
          sim::SimState sim(scheme.machine);
          dist::SummaOptions in_pass = opt;
          in_pass.prune = rule.params;
          return dist::summa_multiply(a, b, sim, in_pass, capture);
        });
        trace_summa(want, [&](const dist::PhaseSink& capture) {
          sim::SimState sim(scheme.machine);
          return dist::summa_multiply(
              a, b, sim, opt, [&](int phase, std::vector<CscD>& chunks) {
                core::prune_chunks(chunks, grid, rule.params, sim);
                capture(phase, chunks);
              });
        });

        expect_same_stats(got.result.stats, want.result.stats);
        EXPECT_GT(got.result.stats.sink_time, 0.0);
        expect_same_events(got.events, want.events);
        EXPECT_EQ(got.metrics.counter("kernel.simd.prune_elems"),
                  want.metrics.counter("kernel.simd.prune_elems"));
        EXPECT_EQ(got.metrics.counter("kernel.simd.prune_elems"),
                  got.result.stats.unpruned_nnz);
        ASSERT_EQ(got.chunks.size(), want.chunks.size());
        for (std::size_t p = 0; p < want.chunks.size(); ++p) {
          ASSERT_EQ(got.chunks[p].size(), want.chunks[p].size());
          for (std::size_t r = 0; r < want.chunks[p].size(); ++r) {
            EXPECT_TRUE(same_bits(got.chunks[p][r], want.chunks[p][r]))
                << "phase " << p << " rank " << r;
          }
        }
        const int dim = grid.dim();
        for (int i = 0; i < dim; ++i) {
          for (int j = 0; j < dim; ++j) {
            EXPECT_TRUE(got.result.c.block(i, j) == want.result.c.block(i, j))
                << "block " << i << ", " << j;
          }
        }
        EXPECT_TRUE(same_bits(got.result.c.to_csc(), want.result.c.to_csc()));

        // The rules bite: every column keeps at most select_k, and the
        // high cutoff empties whole columns but not all of them.
        const CscD c = got.result.c.to_csc();
        vidx_t empty = 0;
        for (vidx_t col = 0; col < c.ncols(); ++col) {
          EXPECT_LE(c.col_nnz(col), rule.params.select_k);
          empty += c.col_nnz(col) == 0;
        }
        if (rule.params.cutoff > 0.5) {
          EXPECT_GT(empty, 0);
          EXPECT_LT(empty, c.ncols());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, SummaPrune,
                         testing::Values(1, 4, 9, 16, 25, 36, 49),
                         [](const testing::TestParamInfo<int>& info) {
                           return "nodes" + std::to_string(info.param);
                         });

// A product column whose k-th value is shared by more entries than fit,
// across two row blocks: the selection keeps the smallest global rows,
// and so does the recovery among equal discards. A is the identity, so
// the product is B's column exactly.
TEST(SummaPrune, TiesGoToTheSmallestGlobalRows) {
  constexpr vidx_t n = 12;
  T ident(n, n);
  for (vidx_t v = 0; v < n; ++v) ident.push(v, v, 1.0);
  T col(n, n);
  col.push(0, 0, 0.1);
  col.push(1, 0, 0.1);
  col.push(3, 0, 0.5);
  col.push(5, 0, 0.5);
  col.push(7, 0, 0.5);
  col.push(8, 0, 0.9);
  col.push(10, 0, 0.5);
  col.sort_and_combine();
  struct Case {
    const char* name;
    dist::PruneParams params;
    std::vector<vidx_t> rows;
  };
  const Case cases[] = {
      // Top 4 of {0.9, 0.5 × 4}: rows 3, 5 and 7 beat row 10.
      {"selection", {.cutoff = 0.0, .select_k = 4, .recover_num = 0},
       {3, 5, 7, 8}},
      // Only 0.9 passes; two of the four 0.5s come back: rows 3 and 5.
      {"recovery", {.cutoff = 0.6, .select_k = 10, .recover_num = 3},
       {3, 5, 8}},
  };
  for (const int nodes : {1, 4, 9}) {
    const ProcGrid grid(nodes);
    const DistMat a = DistMat::from_triples(ident, grid);
    const DistMat b = DistMat::from_triples(col, grid);
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " on " + std::to_string(nodes) +
                   " nodes");
      sim::SimState sim(sim::summit_like_cpu_only(nodes));
      dist::SummaOptions opt;
      opt.prune = c.params;
      const CscD got = dist::summa_multiply(a, b, sim, opt).c.to_csc();
      const auto rows = got.col_rows(0);
      EXPECT_EQ(std::vector<vidx_t>(rows.begin(), rows.end()), c.rows);
    }
  }
}

// The rule's fates, and the count the selection is charged on: entries
// that survive the recovery, whether or not the selection keeps them.
TEST(SummaPrune, ColumnFatesCountRecoveredEntries) {
  const std::vector<val_t> vals = {0.1, 0.1, 0.5, 0.5, 0.5, 0.9, 0.5};
  const std::vector<vidx_t> rows = {0, 1, 3, 5, 7, 8, 10};
  using P = dist::ColumnPrune;
  struct Case {
    dist::PruneParams params;
    std::vector<char> fates;
    std::uint64_t recovered;
  };
  const Case cases[] = {
      {{.cutoff = 0.0, .select_k = 4, .recover_num = 0},
       {P::kUnselected, P::kUnselected, P::kKept, P::kKept, P::kKept,
        P::kKept, P::kUnselected},
       7},
      {{.cutoff = 0.6, .select_k = 10, .recover_num = 3},
       {P::kDropped, P::kDropped, P::kKept, P::kKept, P::kDropped, P::kKept,
        P::kDropped},
       3},
      // Recovery beyond select_k: the recovered entries count, and the
      // selection then trims them.
      {{.cutoff = 0.6, .select_k = 2, .recover_num = 5},
       {P::kDropped, P::kDropped, P::kKept, P::kUnselected, P::kUnselected,
        P::kKept, P::kUnselected},
       5},
  };
  for (const Case& c : cases) {
    P rule(c.params);
    const auto fates = rule.run(vals);
    EXPECT_EQ(std::vector<char>(fates.begin(), fates.end()), c.fates);
    // Split at row 6, as two row blocks of a grid column would be.
    std::vector<vidx_t> out_rows;
    std::vector<val_t> out_vals;
    const std::uint64_t first =
        rule.append_kept(0, 4, rows.data(), vals.data(), out_rows, out_vals);
    const std::uint64_t second = rule.append_kept(
        4, 3, rows.data() + 4, vals.data() + 4, out_rows, out_vals);
    EXPECT_EQ(first + second, c.recovered);
    std::vector<vidx_t> want_rows;
    for (std::size_t p = 0; p < rows.size(); ++p) {
      if (c.fates[p] == P::kKept) want_rows.push_back(rows[p]);
    }
    EXPECT_EQ(out_rows, want_rows);
  }
}

// ---------------------------------------------------------------------------
// Distributed top-k selection (core::prune_chunks with cutoff and recovery
// off).

/// Keep the k largest entries of every global column of m.
void select_topk(DistMat& m, int k, sim::SimState& sim) {
  core::PruneParams p;
  p.cutoff = 0.0;
  p.select_k = k;
  p.recover_num = 0;
  prune_blocks(m, p, sim);
}

TEST(TopK, KeepsExactlyKPerColumn) {
  T t = random_triples(50, 50, 2000, 20);
  const ProcGrid grid(4);
  DistMat m = DistMat::from_triples(t, grid);
  sim::SimState sim(sim::summit_like(4));
  select_topk(m, 5, sim);

  const CscD g = m.to_csc();
  for (vidx_t j = 0; j < g.ncols(); ++j) EXPECT_LE(g.col_nnz(j), 5);
}

TEST(TopK, KeepsTheLargestValues) {
  T t = random_triples(60, 60, 2000, 21);
  const ProcGrid grid(9);
  DistMat m = DistMat::from_triples(t, grid);
  const CscD before = m.to_csc();
  sim::SimState sim(sim::summit_like(9));
  const int k = 4;
  select_topk(m, k, sim);
  const CscD after = m.to_csc();

  for (vidx_t j = 0; j < before.ncols(); ++j) {
    if (before.col_nnz(j) <= k) {
      EXPECT_EQ(after.col_nnz(j), before.col_nnz(j));
      continue;
    }
    // The smallest kept value must be >= the largest dropped value.
    std::vector<val_t> kept(after.col_vals(j).begin(),
                            after.col_vals(j).end());
    std::vector<val_t> orig(before.col_vals(j).begin(),
                            before.col_vals(j).end());
    const val_t min_kept = *std::min_element(kept.begin(), kept.end());
    std::sort(orig.rbegin(), orig.rend());
    const val_t max_dropped = orig[static_cast<std::size_t>(k)];
    EXPECT_GE(min_kept, max_dropped);
  }
}

// ---------------------------------------------------------------------------
// Connected components.

TEST(ConnectedComponents, FindsIslands) {
  // Two triangles and an isolated vertex: 3 components.
  T t(7, 7);
  auto edge = [&](vidx_t u, vidx_t v) {
    t.push(u, v, 1.0);
    t.push(v, u, 1.0);
  };
  edge(0, 1);
  edge(1, 2);
  edge(2, 0);
  edge(3, 4);
  edge(4, 5);
  // vertex 6 isolated
  t.sort_and_combine();
  const DistMat m = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  const auto cc = dist::connected_components(m, sim);
  EXPECT_EQ(cc.num_components, 3);
  EXPECT_EQ(cc.labels[0], cc.labels[1]);
  EXPECT_EQ(cc.labels[1], cc.labels[2]);
  EXPECT_EQ(cc.labels[3], cc.labels[4]);
  EXPECT_NE(cc.labels[0], cc.labels[3]);
  EXPECT_NE(cc.labels[6], cc.labels[0]);
  EXPECT_NE(cc.labels[6], cc.labels[3]);
}

TEST(ConnectedComponents, LabelsAreCanonical) {
  // Labels must be 0..C-1 ordered by smallest member vertex.
  T t(5, 5);
  t.push(3, 4, 1.0);
  t.push(4, 3, 1.0);
  t.sort_and_combine();
  const DistMat m = DistMat::from_triples(t, ProcGrid(1));
  sim::SimState sim(sim::summit_like(1));
  const auto cc = dist::connected_components(m, sim);
  EXPECT_EQ(cc.num_components, 4);
  EXPECT_EQ(cc.labels[0], 0);
  EXPECT_EQ(cc.labels[1], 1);
  EXPECT_EQ(cc.labels[2], 2);
  EXPECT_EQ(cc.labels[3], 3);
  EXPECT_EQ(cc.labels[4], 3);
}

TEST(ConnectedComponents, DirectedEntriesTreatedUndirected) {
  T t(3, 3);
  t.push(0, 1, 1.0);  // only one direction present
  t.sort_and_combine();
  const DistMat m = DistMat::from_triples(t, ProcGrid(1));
  sim::SimState sim(sim::summit_like(1));
  const auto cc = dist::connected_components(m, sim);
  EXPECT_EQ(cc.num_components, 2);
  EXPECT_EQ(cc.labels[0], cc.labels[1]);
}

/// A hand-built converged MCL matrix (column = source of the flow):
///  - vertex 0 is an attractor; vertices 1 and 2 flow fully to it;
///  - vertices 3 and 4 form a two-attractor system; vertex 5 flows to 3.
T converged_flow() {
  T t(6, 6);
  t.push(0, 0, 1.0);
  t.push(0, 1, 1.0);
  t.push(0, 2, 1.0);
  t.push(3, 3, 0.5);
  t.push(4, 3, 0.5);
  t.push(3, 4, 0.5);
  t.push(4, 4, 0.5);
  t.push(3, 5, 1.0);
  t.sort_and_combine();
  return t;
}

TEST(ConnectedComponents, OneClusterPerAttractorSystemOnEveryGrid) {
  const std::vector<vidx_t> want = {0, 0, 0, 1, 1, 1};
  for (const int ranks : {1, 4, 9}) {
    const DistMat m = DistMat::from_triples(converged_flow(), ProcGrid(ranks));
    sim::SimState sim(sim::summit_like(ranks));
    const auto cc = dist::connected_components(m, sim);
    EXPECT_EQ(cc.num_components, 2) << ranks << " ranks";
    EXPECT_EQ(cc.labels, want) << ranks << " ranks";
  }
}

TEST(ConnectedComponents, SplitFlowJoinsBothAttractors) {
  // Vertex 2 sends 0.6 of its flow to attractor 0 and 0.4 to attractor
  // 1. Components read the pattern, so the overlap joins the two
  // attractors into one cluster instead of assigning 2 to one side.
  T t(3, 3);
  t.push(0, 0, 1.0);
  t.push(1, 1, 1.0);
  t.push(0, 2, 0.6);
  t.push(1, 2, 0.4);
  t.sort_and_combine();
  const DistMat m = DistMat::from_triples(t, ProcGrid(1));
  sim::SimState sim(sim::summit_like(1));
  const auto cc = dist::connected_components(m, sim);
  EXPECT_EQ(cc.num_components, 1);
  EXPECT_EQ(cc.labels, (std::vector<vidx_t>{0, 0, 0}));
}

TEST(ConnectedComponents, ChargesOnlyTheOtherStage) {
  const DistMat m = DistMat::from_triples(converged_flow(), ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  dist::connected_components(m, sim);
  const auto st = sim.critical_stage_times();
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    if (s == static_cast<std::size_t>(sim::Stage::kOther)) {
      EXPECT_GT(st[s], 0.0);
    } else {
      EXPECT_EQ(st[s], 0.0) << sim::kStageNames[s];
    }
  }
}

TEST(ConnectedComponents, NonSquareRejected) {
  const DistMat m(4, 5, ProcGrid(1));
  sim::SimState sim(sim::summit_like(1));
  EXPECT_THROW(dist::connected_components(m, sim), std::invalid_argument);
}

}  // namespace
