// Robustness and failure-injection suite: determinism across repeated
// runs, GPU OOM mid-SUMMA, degenerate graphs (empty, self-loops-only,
// stars, paths), stochastic-invariant preservation through the pipeline,
// and estimator guard-band behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "core/chaos.hpp"
#include "core/checkpoint.hpp"
#include "core/hipmcl.hpp"
#include "core/inflate.hpp"
#include "dist/summa.hpp"
#include "estimate/planner.hpp"
#include "gen/planted.hpp"
#include "gen/rmat.hpp"
#include "io/matrix_market.hpp"
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

T random_triples(vidx_t n, std::uint64_t entries, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(n, n);
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(n)),
                     static_cast<vidx_t>(rng.bounded(n)), rng.uniform_pos());
  }
  t.sort_and_combine();
  return t;
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 21;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;

  sim::SimState s1(sim::summit_like(4));
  const auto r1 = core::run_hipmcl(g.edges, params,
                                   core::HipMclConfig::optimized(), s1);
  sim::SimState s2(sim::summit_like(4));
  const auto r2 = core::run_hipmcl(g.edges, params,
                                   core::HipMclConfig::optimized(), s2);
  EXPECT_EQ(r1.labels, r2.labels);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_DOUBLE_EQ(r1.elapsed, r2.elapsed);
  ASSERT_EQ(r1.iters.size(), r2.iters.size());
  for (std::size_t i = 0; i < r1.iters.size(); ++i) {
    EXPECT_EQ(r1.iters[i].nnz_after_prune, r2.iters[i].nnz_after_prune);
    EXPECT_DOUBLE_EQ(r1.iters[i].est_unpruned_nnz,
                     r2.iters[i].est_unpruned_nnz);
  }
}

TEST(Determinism, SymmetricGeneratorProducesSymmetricSums) {
  // Regression for the stable-sort requirement: duplicate-coordinate
  // accumulation order must match between (i,j) and (j,i).
  const auto g = gen::rmat({.scale = 10, .edge_factor = 8, .seed = 99});
  const auto csc = sparse::csc_from_triples(g);
  const auto t = sparse::transpose(csc);
  EXPECT_EQ(csc, t);
}

TEST(FailureInjection, GpuOomDuringSummaStillCorrect) {
  T t = random_triples(60, 2000, 22);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(t, grid);

  auto machine = sim::summit_like(4);
  machine.gpu_mem = 2048;  // a few entries only: every multiply OOMs
  sim::SimState sim(machine);
  dist::SummaOptions opt;
  opt.pipelined = true;
  opt.binary_merge = true;
  const auto r = dist::summa_multiply(a, a, sim, opt);

  EXPECT_GT(r.stats.gpu_fallbacks, 0);
  const auto ga = sparse::csc_from_triples(t);
  EXPECT_TRUE(sparse::approx_equal(spgemm::spa_spgemm(ga, ga),
                                   r.c.to_csc(), 1e-9));
}

TEST(FailureInjection, FullMclSurvivesTinyGpus) {
  gen::PlantedParams gp;
  gp.n = 150;
  gp.seed = 23;
  const auto g = gen::planted_partition(gp);
  auto machine = sim::summit_like(4);
  machine.gpu_mem = 2048;
  sim::SimState sim(machine);
  const auto r = core::run_hipmcl(g.edges, {},
                                  core::HipMclConfig::optimized(), sim);
  EXPECT_GT(r.num_clusters, 0);
  // The OOM path must not change the clustering.
  sim::SimState healthy(sim::summit_like(4));
  const auto r2 = core::run_hipmcl(g.edges, {},
                                   core::HipMclConfig::optimized(), healthy);
  EXPECT_EQ(r.labels, r2.labels);
}

TEST(Degenerate, EmptyGraphClustersAsSingletons) {
  const T t(10, 10);  // no edges at all
  sim::SimState sim(sim::summit_like(4));
  const auto r = core::run_hipmcl(t, {}, core::HipMclConfig::optimized(), sim);
  EXPECT_EQ(r.num_clusters, 10);
}

TEST(Degenerate, SingleVertex) {
  T t(1, 1);
  sim::SimState sim(sim::summit_like(1));
  const auto r = core::run_hipmcl(t, {}, core::HipMclConfig::optimized(), sim);
  EXPECT_EQ(r.num_clusters, 1);
  EXPECT_EQ(r.labels[0], 0);
}

TEST(Degenerate, StarGraphIsOneCluster) {
  T t(9, 9);
  for (vidx_t v = 1; v < 9; ++v) {
    t.push(0, v, 1.0);
    t.push(v, 0, 1.0);
  }
  t.sort_and_combine();
  sim::SimState sim(sim::summit_like(4));
  const auto r = core::run_hipmcl(t, {}, core::HipMclConfig::optimized(), sim);
  EXPECT_EQ(r.num_clusters, 1);
}

TEST(Degenerate, PathGraphSplitsEventually) {
  // A long path has weak long-range flow: MCL should cut it into more
  // than one cluster.
  const vidx_t n = 40;
  T t(n, n);
  for (vidx_t v = 0; v + 1 < n; ++v) {
    t.push(v, v + 1, 1.0);
    t.push(v + 1, v, 1.0);
  }
  t.sort_and_combine();
  sim::SimState sim(sim::summit_like(4));
  const auto r = core::run_hipmcl(t, {}, core::HipMclConfig::optimized(), sim);
  EXPECT_GT(r.num_clusters, 1);
  EXPECT_LT(r.num_clusters, n);
}

TEST(Invariants, InflationPreservesStochasticity) {
  T t = random_triples(40, 800, 24);
  DistMat m = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  core::distributed_normalize(m, sim);
  for (int round = 0; round < 3; ++round) {
    core::distributed_inflate(m, 2.0, sim);
    EXPECT_TRUE(sparse::is_column_stochastic(m.to_csc()))
        << "after inflation round " << round;
  }
}

TEST(Invariants, ChaosNonNegativeOnStochastic) {
  T t = random_triples(30, 500, 25);
  DistMat m = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  core::distributed_normalize(m, sim);
  EXPECT_GE(core::distributed_chaos(m, sim), 0.0);
}

TEST(Invariants, IterationNnzRespectsSelectK) {
  gen::PlantedParams gp;
  gp.n = 300;
  gp.seed = 26;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 15;
  sim::SimState sim(sim::summit_like(4));
  const auto r = core::run_hipmcl(g.edges, params,
                                  core::HipMclConfig::optimized(), sim);
  for (const auto& it : r.iters) {
    EXPECT_LE(it.nnz_after_prune,
              static_cast<std::uint64_t>(g.edges.nrows()) * 15);
  }
}

TEST(Invariants, SinkTimeSeparatedFromSummaElapsed) {
  T t = random_triples(40, 900, 27);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(t, grid);
  sim::SimState sim(sim::summit_like(4));
  dist::SummaOptions opt;
  const sim::CostModel model(sim.machine());
  const auto r = dist::summa_multiply(
      a, a, sim, opt, [&](int, std::vector<dist::CscD>& chunks) {
        // An expensive fake prune: charge every rank a fat flat cost.
        for (int rank = 0; rank < sim.nranks(); ++rank) {
          sim.rank(rank).cpu_run(sim::Stage::kPrune, 1.0);
        }
        (void)chunks;
      });
  EXPECT_GE(r.stats.sink_time, 1.0);
  // The reported expansion elapsed must not absorb the sink's second.
  EXPECT_LT(r.stats.elapsed, r.stats.sink_time + r.stats.elapsed);
  EXPECT_GT(r.stats.elapsed, 0.0);
}

TEST(Guards, UnderestimationCompensatedByGuardFactor) {
  // §V: underestimation risks OOM; the guard factor plans extra phases.
  estimate::PhasePlanInput in;
  in.ncols_global = 100;
  in.grid_dim = 2;
  in.bytes_per_nnz = 16;
  in.mem_budget_per_rank = 4000;
  in.est_output_nnz = 990;  // true value might be ~1100 (10% error)
  in.guard_factor = 1.0;
  const auto optimistic = estimate::plan_phases(in);
  in.guard_factor = 0.85;
  const auto guarded = estimate::plan_phases(in);
  EXPECT_GE(guarded.phases, optimistic.phases);
  // With the guard, even the true (underestimated) size fits per phase:
  // 1100 nnz * 16B / 4 ranks / phases <= budget.
  const double true_bytes_per_rank = 1100.0 * 16 / 4 / guarded.phases;
  EXPECT_LE(true_bytes_per_rank, 4000.0);
}

// ---------------------------------------------------------------------------
// Hostile headers: a tiny file claiming 2^40 elements must fail with the
// parser's named truncation error, never by allocating the claimed count;
// a count that does not fit its field fails as a corrupt header, never
// by wrapping.

/// Little-endian POD bytes, the checkpoint's on-disk encoding.
template <typename V>
std::string pod(V value) {
  return std::string(reinterpret_cast<const char*>(&value), sizeof(V));
}

TEST(HostileHeaders, HugeClaimedCountsFailWithNamedError) {
  constexpr std::uint64_t kClaim = std::uint64_t{1} << 40;
  const auto read_mm = [](const std::string& bytes) {
    std::istringstream in(bytes);
    io::read_matrix_market(in);
  };
  const auto read_checkpoint = [](const std::string& bytes) {
    const std::string path =
        testing::TempDir() + "/hostile_header_checkpoint.bin";
    std::ofstream(path, std::ios::binary) << bytes;
    struct Remove {
      const std::string& path;
      ~Remove() { std::remove(path.c_str()); }
    } cleanup{path};
    core::load_checkpoint(path);
  };
  struct Case {
    const char* name;
    std::function<void(const std::string&)> parse;
    std::string bytes;
    const char* error;
  };
  const Case cases[] = {
      {"matrix market entry count", read_mm,
       "%%MatrixMarket matrix coordinate real general\n3 3 " +
           std::to_string(kClaim) + "\n1 1 0.5\n",
       "unexpected end of entries"},
      {"matrix market negative entry count", read_mm,
       "%%MatrixMarket matrix coordinate real general\n3 3 -5\n1 1 0.5\n",
       "bad size line"},
      {"checkpoint nnz", read_checkpoint,
       "MCLXCKP2" + pod(std::int64_t{1}) + pod(vidx_t{3}) + pod(vidx_t{3}) +
           pod(kClaim),
       "truncated file"},
      {"checkpoint permutation size", read_checkpoint,
       "MCLXCKP2" + pod(std::int64_t{1}) + pod(static_cast<vidx_t>(kClaim)) +
           pod(vidx_t{3}) + pod(std::uint64_t{0}) + pod(kClaim),
       "truncated file"},
      {"checkpoint iteration count", read_checkpoint,
       "MCLXCKP1" + pod((std::int64_t{1} << 32) + 3) + pod(vidx_t{3}) +
           pod(vidx_t{3}) + pod(std::uint64_t{0}),
       "corrupt header"},
  };
  for (const Case& c : cases) {
    try {
      c.parse(c.bytes);
      ADD_FAILURE() << c.name << ": parsed without error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
}

}  // namespace
