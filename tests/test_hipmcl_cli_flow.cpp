// The end-to-end flow a CLI user exercises: mtx file in → cluster →
// score. Glues io, core and quality together the way hipmcl_cli does.
#include <gtest/gtest.h>

#include <fstream>
#include <iomanip>
#include <string>

#include "core/hipmcl.hpp"
#include "core/quality.hpp"
#include "gen/planted.hpp"
#include "io/matrix_market.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"

namespace {

using namespace mclx;

TEST(CliFlow, MtxRoundTripThenClusterThenSnapshot) {
  // 1. Generate and persist a network as Matrix Market.
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 81;
  const auto g = gen::planted_partition(gp);
  const std::string mtx = testing::TempDir() + "/cli_net.mtx";
  io::write_matrix_market_file(mtx, g.edges, "cli flow test");

  // 2. Read it back and cluster it on one CPU-only rank.
  const auto net = io::read_matrix_market_file(mtx);
  core::MclParams params;
  params.prune.select_k = 25;
  sim::SimState sim(sim::summit_like_cpu_only(1));
  const auto r = core::run_hipmcl(net, params,
                                  core::HipMclConfig::optimized(), sim);
  EXPECT_TRUE(r.converged);

  // 3. Quality against the planted truth survives the file round trip.
  const auto q = gen::score_clustering(r.labels, g.labels);
  EXPECT_GT(q.f1, 0.85);
  // Modularity is structurally small when one heavy-tailed family holds
  // much of the graph (the degree-squared null model); positive and well
  // above the shuffled baseline is the right expectation here.
  EXPECT_GT(core::modularity(net, r.labels), 0.05);
}

TEST(CliFlow, HalfStoredSymmetricFileClustersLikeTheFullNetwork) {
  // A network stored once per undirected edge under a `symmetric`
  // header reads back as the full matrix and clusters identically.
  gen::PlantedParams gp;
  gp.n = 150;
  gp.seed = 83;
  const auto g = gen::planted_partition(gp);
  const std::string mtx = testing::TempDir() + "/cli_half.mtx";
  {
    std::size_t lower = 0;
    for (const auto& e : g.edges) lower += e.row >= e.col ? 1 : 0;
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate real symmetric\n"
        << g.edges.nrows() << ' ' << g.edges.ncols() << ' ' << lower << '\n'
        << std::setprecision(17);
    for (const auto& e : g.edges) {
      if (e.row >= e.col) {
        out << e.row + 1 << ' ' << e.col + 1 << ' ' << e.val << '\n';
      }
    }
  }
  const auto half = io::read_matrix_market_file(mtx);
  EXPECT_EQ(half, g.edges);

  core::MclParams params;
  params.prune.select_k = 25;
  sim::SimState s1(sim::summit_like_cpu_only(1));
  const auto from_half = core::run_hipmcl(half, params,
                                          core::HipMclConfig::optimized(), s1);
  sim::SimState s2(sim::summit_like_cpu_only(1));
  const auto from_full = core::run_hipmcl(
      g.edges, params, core::HipMclConfig::optimized(), s2);
  EXPECT_EQ(from_half.labels, from_full.labels);
  EXPECT_GT(from_half.num_clusters, 1);
}

}  // namespace
