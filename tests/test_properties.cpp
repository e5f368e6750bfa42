// Parameterized property sweeps across the whole stack: format
// round-trips over a randomized shape grid, MCL's inflation-granularity
// law, fused-prune/phase-count invariance, and kernel-policy invariance
// of the numerics.
#include <gtest/gtest.h>

#include "core/hipmcl.hpp"
#include "core/prune.hpp"
#include "dist/summa.hpp"
#include "gen/planted.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "spgemm/spa.hpp"
#include "util/rng.hpp"

namespace {

using namespace mclx;
using dist::DistMat;
using dist::ProcGrid;
using T = sparse::Triples<vidx_t, val_t>;
using C = sparse::Csc<vidx_t, val_t>;

T random_triples(vidx_t nrows, vidx_t ncols, std::uint64_t entries,
                 std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(nrows, ncols);
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(nrows)),
                     static_cast<vidx_t>(rng.bounded(ncols)),
                     rng.uniform() * 2 - 1);
  }
  t.sort_and_combine();
  return t;
}

// ---------------------------------------------------------------------------
// Format round-trips over a randomized shape grid.

struct Shape {
  vidx_t nrows, ncols;
  std::uint64_t entries;
};

class FormatRoundTrip : public testing::TestWithParam<int> {
 protected:
  Shape shape() const {
    // Pseudo-random but deterministic shape per index, covering tall,
    // wide, tiny, hypersparse and dense-ish regimes.
    util::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(GetParam()));
    Shape s;
    s.nrows = 1 + static_cast<vidx_t>(rng.bounded(300));
    s.ncols = 1 + static_cast<vidx_t>(rng.bounded(300));
    const std::uint64_t cells = static_cast<std::uint64_t>(s.nrows) *
                                static_cast<std::uint64_t>(s.ncols);
    s.entries = rng.bounded(std::min<std::uint64_t>(cells, 4000) + 1);
    return s;
  }
};

TEST_P(FormatRoundTrip, TriplesCscDcscCsrCycle) {
  const Shape s = shape();
  T t = random_triples(s.nrows, s.ncols, s.entries,
                       2000 + static_cast<std::uint64_t>(GetParam()));
  const C csc = sparse::csc_from_triples(t);
  // CSC -> DCSC -> CSC.
  EXPECT_EQ(sparse::csc_from_dcsc(sparse::dcsc_from_csc(csc)), csc);
  // CSC -> triples -> CSC.
  EXPECT_EQ(sparse::csc_from_triples(sparse::triples_from_csc(csc)), csc);
  // Double transpose.
  EXPECT_EQ(sparse::transpose(sparse::transpose(csc)), csc);
}

TEST_P(FormatRoundTrip, DistMatScatterGather) {
  const Shape s = shape();
  T t = random_triples(s.nrows, s.ncols, s.entries,
                       3000 + static_cast<std::uint64_t>(GetParam()));
  for (const int ranks : {1, 4, 9}) {
    const DistMat m = DistMat::from_triples(t, ProcGrid(ranks));
    EXPECT_EQ(m.to_triples(), t) << "ranks=" << ranks;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, FormatRoundTrip, testing::Range(0, 12));

// ---------------------------------------------------------------------------
// MCL granularity: higher inflation => finer clustering (more clusters).

TEST(MclProperties, InflationControlsGranularity) {
  gen::PlantedParams gp;
  gp.n = 300;
  gp.seed = 31;
  const auto g = gen::planted_partition(gp);
  std::vector<vidx_t> cluster_counts;
  for (const double inflation : {1.3, 2.0, 6.0}) {
    core::MclParams params;
    params.inflation = inflation;
    params.prune.select_k = 30;
    sim::SimState sim(sim::summit_like(4));
    const auto r = core::run_hipmcl(g.edges, params,
                                    core::HipMclConfig::optimized(), sim);
    cluster_counts.push_back(r.num_clusters);
  }
  // Monotone (weakly) increasing granularity with inflation.
  EXPECT_LE(cluster_counts[0], cluster_counts[1]);
  EXPECT_LE(cluster_counts[1], cluster_counts[2]);
  // And the extremes differ decisively.
  EXPECT_LT(cluster_counts[0], cluster_counts[2]);
}

TEST(MclProperties, HigherInflationConvergesFaster) {
  gen::PlantedParams gp;
  gp.n = 250;
  gp.seed = 32;
  const auto g = gen::planted_partition(gp);
  core::MclParams soft;
  soft.inflation = 1.4;
  soft.prune.select_k = 30;
  core::MclParams hard = soft;
  hard.inflation = 4.0;
  sim::SimState s1(sim::summit_like(4)), s2(sim::summit_like(4));
  const auto slow = core::run_hipmcl(g.edges, soft,
                                     core::HipMclConfig::optimized(), s1);
  const auto fast = core::run_hipmcl(g.edges, hard,
                                     core::HipMclConfig::optimized(), s2);
  EXPECT_LE(fast.iterations, slow.iterations);
}

// ---------------------------------------------------------------------------
// Fused prune is phase-invariant: splitting the expansion into any number
// of column batches must not change the pruned product (each batch holds
// complete global columns, so threshold + top-k see the same data).

class PhaseInvariance : public testing::TestWithParam<int> {};

TEST_P(PhaseInvariance, FusedPruneSameResultAnyPhaseCount) {
  const int phases = GetParam();
  T t = random_triples(48, 48, 700, 33);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(t, grid);
  core::PruneParams prune;
  prune.cutoff = 1e-3;
  prune.select_k = 6;

  auto run_with_phases = [&](int h) {
    sim::SimState sim(sim::summit_like(4));
    dist::SummaOptions opt;
    opt.phases = h;
    opt.kernel =
        spgemm::KernelPolicy::fixed_kernel(spgemm::KernelKind::kCpuHash);
    return dist::summa_multiply(
               a, a, sim, opt,
               [&](int, std::vector<dist::CscD>& chunks) {
                 core::prune_chunks(chunks, grid, prune, sim);
               })
        .c.to_csc();
  };

  EXPECT_EQ(run_with_phases(1), run_with_phases(phases));
}

INSTANTIATE_TEST_SUITE_P(PhaseCounts, PhaseInvariance,
                         testing::Values(2, 3, 4, 7),
                         [](const testing::TestParamInfo<int>& info) {
                           return "h" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Kernel policy never changes numerics, only time.

class KernelInvariance
    : public testing::TestWithParam<spgemm::KernelKind> {};

TEST_P(KernelInvariance, SummaProductIdenticalAcrossKernels) {
  T t = random_triples(40, 40, 600, 34);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(t, grid);

  sim::SimState sim(sim::summit_like(4));
  dist::SummaOptions opt;
  opt.kernel = spgemm::KernelPolicy::fixed_kernel(GetParam());
  const C candidate = dist::summa_multiply(a, a, sim, opt).c.to_csc();
  // The dense-accumulator product shares no code with SUMMA's phase pass.
  const C ga = a.to_csc();
  const C reference = spgemm::spa_spgemm(ga, ga);
  EXPECT_TRUE(sparse::approx_equal(reference, candidate, 1e-9))
      << sparse::max_rel_diff(reference, candidate);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelInvariance,
    testing::Values(spgemm::KernelKind::kCpuHeap,
                    spgemm::KernelKind::kCpuHash,
                    spgemm::KernelKind::kGpuNsparse,
                    spgemm::KernelKind::kGpuBhsparse,
                    spgemm::KernelKind::kGpuRmerge2),
    [](const testing::TestParamInfo<spgemm::KernelKind>& info) {
      return std::string(spgemm::kernel_name(info.param)) == "cpu-heap"
                 ? "cpu_heap"
             : std::string(spgemm::kernel_name(info.param)) == "cpu-hash"
                 ? "cpu_hash"
                 : std::string(spgemm::kernel_name(info.param));
    });

// ---------------------------------------------------------------------------
// Chaos trajectory: once small, stays small (convergence is stable).

TEST(MclProperties, ChaosEndsBelowEpsilonAndIsFinite) {
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 35;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  sim::SimState sim(sim::summit_like(4));
  const auto r = core::run_hipmcl(g.edges, params,
                                  core::HipMclConfig::optimized(), sim);
  ASSERT_TRUE(r.converged);
  for (const auto& it : r.iters) {
    EXPECT_GE(it.chaos, 0.0);
    EXPECT_LT(it.chaos, 1.0);  // stochastic columns bound chaos by 1
  }
  EXPECT_LT(r.iters.back().chaos, params.chaos_eps);
}

}  // namespace
