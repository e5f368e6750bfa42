// The per-cluster report.
#include <gtest/gtest.h>

#include "core/hipmcl.hpp"
#include "core/report.hpp"
#include "gen/planted.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"

namespace {

using namespace mclx;
using T = sparse::Triples<vidx_t, val_t>;

TEST(Report, CountsInternalAndExternalEdges) {
  // Two triangles joined by one bridge.
  T t(6, 6);
  auto edge = [&](vidx_t u, vidx_t v, val_t w) {
    t.push(u, v, w);
    t.push(v, u, w);
  };
  edge(0, 1, 1.0);
  edge(1, 2, 1.0);
  edge(2, 0, 1.0);
  edge(3, 4, 2.0);
  edge(4, 5, 2.0);
  edge(5, 3, 2.0);
  edge(2, 3, 0.5);  // bridge
  t.sort_and_combine();
  const std::vector<vidx_t> labels = {0, 0, 0, 1, 1, 1};
  const auto rep = core::cluster_report(t, labels);
  ASSERT_EQ(rep.clusters.size(), 2u);
  for (const auto& c : rep.clusters) {
    EXPECT_EQ(c.size, 3);
    EXPECT_EQ(c.internal_edges, 3u);
    EXPECT_EQ(c.external_edges, 1u);  // the bridge, seen from both sides
    EXPECT_DOUBLE_EQ(c.internal_density, 1.0);
  }
  // Cohesion: cluster 0 = 3/(3+0.5), cluster 1 = 6/(6+0.5).
  const auto& heavier = rep.clusters[0].internal_weight > 3.5
                            ? rep.clusters[0]
                            : rep.clusters[1];
  EXPECT_NEAR(heavier.cohesion, 6.0 / 6.5, 1e-12);
}

TEST(Report, SortedBySizeLargestFirst) {
  T t(6, 6);
  const std::vector<vidx_t> labels = {0, 1, 1, 1, 2, 2};
  const auto rep = core::cluster_report(t, labels);
  ASSERT_EQ(rep.clusters.size(), 3u);
  EXPECT_EQ(rep.clusters[0].size, 3);
  EXPECT_EQ(rep.clusters[1].size, 2);
  EXPECT_EQ(rep.clusters[2].size, 1);
  EXPECT_DOUBLE_EQ(rep.clusters[2].internal_density, 0.0);  // singleton
}

TEST(Report, McLClustersAreCohesive) {
  gen::PlantedParams gp;
  gp.n = 250;
  gp.seed = 91;
  const auto g = gen::planted_partition(gp);
  sim::SimState sim(sim::summit_like_cpu_only(1));
  const auto r = core::run_hipmcl(g.edges, {},
                                  core::HipMclConfig::optimized(), sim);
  const auto rep = core::cluster_report(g.edges, r.labels);
  // MCL clusters on a planted graph keep most weight internal.
  EXPECT_GT(rep.mean_cohesion, 0.7);
  const std::string text = core::format_report(rep, 5);
  EXPECT_NE(text.find("Cluster report"), std::string::npos);
  EXPECT_NE(text.find("cohesion"), std::string::npos);
}

TEST(Report, ValidatesInputs) {
  T rect(3, 4);
  EXPECT_THROW(core::cluster_report(rect, {0, 0, 0}), std::invalid_argument);
  T square(3, 3);
  EXPECT_THROW(core::cluster_report(square, {0}), std::invalid_argument);
}

}  // namespace
