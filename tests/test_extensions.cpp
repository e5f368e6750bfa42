// Tests for the paper's extension / future-work features: 3D Sparse
// SUMMA, MCL recovery, the adaptive estimator switch, GPU-offloaded
// estimation, and clustering on a single CPU-only rank.
#include <gtest/gtest.h>

#include "core/hipmcl.hpp"
#include "core/prune.hpp"
#include "dist/summa.hpp"
#include "dist/summa3d.hpp"
#include "gen/planted.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "spgemm/spa.hpp"
#include "util/rng.hpp"

#include "prune_blocks.hpp"

namespace {

using namespace mclx;
using dist::DistMat;
using dist::ProcGrid;
using T = sparse::Triples<vidx_t, val_t>;
using C = sparse::Csc<vidx_t, val_t>;

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

/// A machine with grid_ranks * layers total ranks for 3D runs.
sim::MachineConfig machine_3d(int total_ranks) {
  auto m = sim::summit_like(total_ranks);
  return m;
}

// ---------------------------------------------------------------------------
// 3D SUMMA.

class Summa3dEquivalence : public testing::TestWithParam<int> {};

TEST_P(Summa3dEquivalence, MatchesLocalReference) {
  const int layers = GetParam();
  T ta = random_triples(60, 900, 1);
  T tb = random_triples(60, 900, 2);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(ta, grid);
  const DistMat b = DistMat::from_triples(tb, grid);
  sim::SimState sim(machine_3d(4 * layers));

  dist::Summa3dOptions opt;
  opt.layers = layers;
  const auto r = dist::summa3d_multiply(a, b, sim, opt);
  const C expected = spgemm::spa_spgemm(sparse::csc_from_triples(ta),
                                        sparse::csc_from_triples(tb));
  EXPECT_TRUE(sparse::approx_equal(expected, r.c.to_csc(), 1e-9));
  EXPECT_EQ(r.stats.total_flops,
            sparse::spgemm_flops(sparse::csc_from_triples(ta),
                                 sparse::csc_from_triples(tb)));
}

INSTANTIATE_TEST_SUITE_P(Layers, Summa3dEquivalence,
                         testing::Values(1, 2, 3, 4),
                         [](const testing::TestParamInfo<int>& info) {
                           return "c" + std::to_string(info.param);
                         });

TEST(Summa3d, MoreLayersThanStages) {
  // d=2 stages but c=4 layers: two layers sit idle; result must still be
  // exact.
  T ta = random_triples(20, 150, 3);
  const ProcGrid grid(4);  // d = 2
  const DistMat a = DistMat::from_triples(ta, grid);
  sim::SimState sim(machine_3d(16));
  dist::Summa3dOptions opt;
  opt.layers = 4;
  const auto r = dist::summa3d_multiply(a, a, sim, opt);
  const C ga = sparse::csc_from_triples(ta);
  EXPECT_TRUE(sparse::approx_equal(spgemm::spa_spgemm(ga, ga),
                                   r.c.to_csc(), 1e-9));
}

TEST(Summa3d, ReducesPerRankBroadcastTime) {
  // The point of the extension: at the same total rank count, layering
  // cuts each rank's broadcast volume (its layer broadcasts ~d/c panels).
  T ta = random_triples(120, 5000, 4);

  // 2D on 16 ranks.
  const ProcGrid grid16(16);
  const DistMat a16 = DistMat::from_triples(ta, grid16);
  sim::SimState s2(sim::summit_like(16));
  dist::SummaOptions o2;
  o2.pipelined = true;
  o2.binary_merge = true;
  const auto r2 = dist::summa_multiply(a16, a16, s2, o2);

  // 3D: 4 ranks per layer x 4 layers = 16 ranks.
  const ProcGrid grid4(4);
  const DistMat a4 = DistMat::from_triples(ta, grid4);
  sim::SimState s3(sim::summit_like(16));
  dist::Summa3dOptions o3;
  o3.layers = 4;
  o3.charge_replication = false;  // steady-state comparison
  const auto r3 = dist::summa3d_multiply(a4, a4, s3, o3);

  EXPECT_LT(r3.stats.bcast_time, r2.stats.bcast_time);
  // Same numerics either way.
  EXPECT_TRUE(sparse::approx_equal(r2.c.to_csc(), r3.c.to_csc(), 1e-9));
}

TEST(Summa3d, ReplicationChargedWhenRequested) {
  T ta = random_triples(40, 400, 5);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(ta, grid);
  dist::Summa3dOptions with_rep;
  with_rep.layers = 2;
  with_rep.charge_replication = true;
  dist::Summa3dOptions without_rep = with_rep;
  without_rep.charge_replication = false;

  sim::SimState s1(machine_3d(8));
  const auto r1 = dist::summa3d_multiply(a, a, s1, with_rep);
  sim::SimState s2(machine_3d(8));
  const auto r2 = dist::summa3d_multiply(a, a, s2, without_rep);
  EXPECT_GT(r1.replication_time, 0.0);
  EXPECT_DOUBLE_EQ(r2.replication_time, 0.0);
  EXPECT_GT(r1.stats.elapsed, r2.stats.elapsed);
}

TEST(Summa3d, ReportsItsIntervalsToTheMetricsRegistry) {
  T ta = random_triples(40, 400, 7);
  const DistMat a = DistMat::from_triples(ta, ProcGrid(4));
  dist::Summa3dOptions opt;
  opt.layers = 2;
  opt.charge_replication = true;

  obs::MetricsRegistry registry;
  sim::SimState s1(machine_3d(8));
  const auto observed = [&] {
    const obs::ScopedContext scope(registry);
    return dist::summa3d_multiply(a, a, s1, opt);
  }();
  EXPECT_EQ(registry.counter("summa3d.calls"), 1u);
  EXPECT_EQ(registry.counter("summa3d.layers"), 2u);
  for (const char* name :
       {"summa3d.replication_s", "summa3d.reduction_s", "summa3d.spgemm_s",
        "summa3d.bcast_s", "summa3d.merge_s", "summa3d.overall_s"}) {
    const obs::Histogram* h = registry.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), 1u) << name;
  }
  EXPECT_DOUBLE_EQ(registry.histogram("summa3d.replication_s")->max(),
                   observed.replication_time);
  EXPECT_DOUBLE_EQ(registry.histogram("summa3d.overall_s")->max(),
                   observed.stats.elapsed);

  // Observing changes neither the product nor the virtual clock.
  sim::SimState s2(machine_3d(8));
  const auto silent = dist::summa3d_multiply(a, a, s2, opt);
  EXPECT_EQ(silent.c.to_csc(), observed.c.to_csc());
  EXPECT_EQ(silent.stats.elapsed, observed.stats.elapsed);
}

TEST(Summa3d, RejectsBadConfigs) {
  T ta = random_triples(20, 100, 6);
  const ProcGrid grid(4);
  const DistMat a = DistMat::from_triples(ta, grid);
  sim::SimState sim(machine_3d(8));
  dist::Summa3dOptions opt;
  opt.layers = 3;  // 4*3 != 8 ranks
  EXPECT_THROW(dist::summa3d_multiply(a, a, sim, opt), std::invalid_argument);
  opt.layers = 0;
  EXPECT_THROW(dist::summa3d_multiply(a, a, sim, opt), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Recovery.

TEST(Recovery, RestoresLargestDiscards) {
  // Column 0 has three sub-cutoff entries; recovery must bring back the
  // two largest.
  T t(6, 6);
  t.push(0, 0, 0.5);     // survives
  t.push(1, 0, 0.04);    // discarded; largest discard
  t.push(2, 0, 0.03);    // discarded; second
  t.push(3, 0, 0.01);    // discarded; stays out
  t.push(0, 1, 0.7);     // unaffected column
  t.sort_and_combine();
  DistMat m = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  core::PruneParams p;
  p.cutoff = 0.1;
  p.select_k = 10;
  p.recover_num = 3;
  prune_blocks(m, p, sim);

  const C g = m.to_csc();
  EXPECT_EQ(g.col_nnz(0), 3);
  // The recovered values are 0.04 and 0.03, not 0.01.
  std::vector<val_t> vals(g.col_vals(0).begin(), g.col_vals(0).end());
  std::sort(vals.begin(), vals.end());
  EXPECT_DOUBLE_EQ(vals[0], 0.03);
  EXPECT_DOUBLE_EQ(vals[1], 0.04);
  EXPECT_DOUBLE_EQ(vals[2], 0.5);
}

TEST(Recovery, NoOpWhenColumnsHealthy) {
  T t = random_triples(30, 600, 7);
  DistMat with = DistMat::from_triples(t, ProcGrid(4));
  DistMat without = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState s1(sim::summit_like(4)), s2(sim::summit_like(4));
  core::PruneParams p;
  p.cutoff = 0.0;  // nothing discarded -> recovery has nothing to do
  p.select_k = 50;
  core::PruneParams pr = p;
  pr.recover_num = 5;
  prune_blocks(with, pr, s1);
  prune_blocks(without, p, s2);
  EXPECT_EQ(with.to_csc(), without.to_csc());
}

TEST(Recovery, DisabledByDefault) {
  core::PruneParams p;
  EXPECT_EQ(p.recover_num, 0);
}

TEST(Recovery, CrossBlockRecovery) {
  // Discards live in a different row block than the survivor: recovery
  // must coordinate across the grid column.
  T t(8, 8);
  t.push(0, 5, 0.9);   // row block 0 (grid 2x2, block height 4)
  t.push(6, 5, 0.05);  // row block 1, discarded, must come back
  t.sort_and_combine();
  DistMat m = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  core::PruneParams p;
  p.cutoff = 0.1;
  p.select_k = 10;
  p.recover_num = 2;
  prune_blocks(m, p, sim);
  EXPECT_EQ(m.to_csc().col_nnz(5), 2);
}

// ---------------------------------------------------------------------------
// Adaptive estimator & GPU estimation.

TEST(AdaptiveEstimator, SwitchesToExactAtLowCf) {
  gen::PlantedParams gp;
  gp.n = 250;
  gp.seed = 8;
  const auto g = gen::planted_partition(gp);
  sim::SimState sim(sim::summit_like(4));
  core::MclParams params;
  params.prune.select_k = 30;
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.estimator = core::EstimatorKind::kAdaptive;
  const auto r = core::run_hipmcl(g.edges, params, config, sim);

  // First iteration always probabilistic; late iterations (cf collapses
  // as the matrix converges) must switch to exact.
  ASSERT_GE(r.iters.size(), 3u);
  EXPECT_FALSE(r.iters.front().used_exact_estimator);
  bool any_exact = false;
  for (const auto& it : r.iters) any_exact |= it.used_exact_estimator;
  EXPECT_TRUE(any_exact);
  // Once cf < threshold in iteration i, iteration i+1 uses exact.
  for (std::size_t i = 1; i < r.iters.size(); ++i) {
    EXPECT_EQ(r.iters[i].used_exact_estimator,
              r.iters[i - 1].cf < core::kAdaptiveCfThreshold);
  }
}

TEST(AdaptiveEstimator, SameClustersAsFixedChoices) {
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 9;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;

  sim::SimState s1(sim::summit_like(4));
  core::HipMclConfig adaptive = core::HipMclConfig::optimized();
  adaptive.estimator = core::EstimatorKind::kAdaptive;
  const auto r1 = core::run_hipmcl(g.edges, params, adaptive, s1);

  sim::SimState s2(sim::summit_like(4));
  const auto r2 = core::run_hipmcl(g.edges, params,
                                   core::HipMclConfig::optimized(), s2);
  EXPECT_EQ(r1.labels, r2.labels);
}

TEST(GpuEstimation, FasterThanHostEstimation) {
  gen::PlantedParams gp;
  gp.n = 400;
  gp.seed = 10;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 40;

  sim::SimState s1(sim::summit_like(4));
  const auto host = core::run_hipmcl(g.edges, params,
                                     core::HipMclConfig::optimized(), s1);
  sim::SimState s2(sim::summit_like(4));
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.gpu_estimation = true;
  const auto device = core::run_hipmcl(g.edges, params, config, s2);

  const auto est = static_cast<std::size_t>(sim::Stage::kMemEstimation);
  EXPECT_LT(device.stage_times[est], host.stage_times[est]);
  EXPECT_EQ(host.labels, device.labels);
}

TEST(GpuEstimation, IgnoredOnCpuOnlyMachine) {
  gen::PlantedParams gp;
  gp.n = 150;
  gp.seed = 11;
  const auto g = gen::planted_partition(gp);
  sim::SimState sim(sim::summit_like_cpu_only(4));
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.gpu_estimation = true;  // no devices: must fall back cleanly
  const auto r = core::run_hipmcl(g.edges, {}, config, sim);
  EXPECT_GT(r.num_clusters, 0);
}

// ---------------------------------------------------------------------------
// One CPU-only rank: no broadcast partner and no GPU to offload to, so
// only the numerics of the distributed pipeline remain.

TEST(OneRank, MatchesDistributedClusters) {
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 12;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;

  sim::SimState one(sim::summit_like_cpu_only(1));
  const auto local = core::run_hipmcl(g.edges, params,
                                      core::HipMclConfig::optimized(), one);
  sim::SimState nine(sim::summit_like(9));
  const auto distributed = core::run_hipmcl(
      g.edges, params, core::HipMclConfig::optimized(), nine);
  EXPECT_EQ(local.labels, distributed.labels);
  EXPECT_EQ(local.num_clusters, distributed.num_clusters);
  EXPECT_TRUE(local.converged);
  const auto bcast = static_cast<std::size_t>(sim::Stage::kSummaBcast);
  EXPECT_EQ(local.stage_times[bcast], 0.0);
  EXPECT_GT(distributed.stage_times[bcast], 0.0);
}

TEST(OneRank, RecoversFamilies) {
  gen::PlantedParams gp;
  gp.n = 300;
  gp.seed = 13;
  const auto g = gen::planted_partition(gp);
  sim::SimState sim(sim::summit_like_cpu_only(1));
  const auto r = core::run_hipmcl(g.edges, {},
                                  core::HipMclConfig::optimized(), sim);
  const auto q = gen::score_clustering(r.labels, g.labels);
  EXPECT_GT(q.f1, 0.85);
}

}  // namespace
