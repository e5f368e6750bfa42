// Quality metrics: modularity and ARI.
#include <gtest/gtest.h>

#include "core/hipmcl.hpp"
#include "core/quality.hpp"
#include "gen/planted.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "util/rng.hpp"

namespace {

using namespace mclx;
using T = sparse::Triples<vidx_t, val_t>;

TEST(Modularity, PerfectCommunitiesScoreHigh) {
  // Two disjoint triangles, clustered correctly: modularity = 0.5.
  T t(6, 6);
  auto edge = [&](vidx_t u, vidx_t v) {
    t.push(u, v, 1.0);
    t.push(v, u, 1.0);
  };
  edge(0, 1);
  edge(1, 2);
  edge(2, 0);
  edge(3, 4);
  edge(4, 5);
  edge(5, 3);
  t.sort_and_combine();
  const std::vector<vidx_t> good = {0, 0, 0, 1, 1, 1};
  EXPECT_NEAR(core::modularity(t, good), 0.5, 1e-12);
}

TEST(Modularity, SingleClusterScoresZero) {
  T t(4, 4);
  t.push(0, 1, 1.0);
  t.push(1, 0, 1.0);
  t.push(2, 3, 1.0);
  t.push(3, 2, 1.0);
  t.sort_and_combine();
  const std::vector<vidx_t> lump = {0, 0, 0, 0};
  EXPECT_NEAR(core::modularity(t, lump), 0.0, 1e-12);
}

TEST(Modularity, BadSplitScoresBelowGoodSplit) {
  gen::PlantedParams gp;
  gp.n = 300;
  gp.seed = 51;
  const auto g = gen::planted_partition(gp);
  const double good = core::modularity(g.edges, g.labels);
  // Shuffle labels: same sizes, random assignment.
  std::vector<vidx_t> bad = g.labels;
  util::Xoshiro256 rng(52);
  for (std::size_t i = bad.size(); i > 1; --i) {
    std::swap(bad[i - 1], bad[rng.bounded(i)]);
  }
  EXPECT_GT(good, core::modularity(g.edges, bad) + 0.2);
}

TEST(Modularity, MclClusteringScoresWell) {
  gen::PlantedParams gp;
  gp.n = 250;
  gp.seed = 53;
  const auto g = gen::planted_partition(gp);
  sim::SimState sim(sim::summit_like_cpu_only(1));
  const auto r = core::run_hipmcl(g.edges, {},
                                  core::HipMclConfig::optimized(), sim);
  EXPECT_GT(core::modularity(g.edges, r.labels), 0.3);
}

TEST(Modularity, ValidatesInputs) {
  T rect(3, 4);
  EXPECT_THROW(core::modularity(rect, {0, 0, 0}), std::invalid_argument);
  T square(3, 3);
  EXPECT_THROW(core::modularity(square, {0, 0}), std::invalid_argument);
}

TEST(Modularity, EmptyGraphIsZero) {
  const T t(5, 5);
  EXPECT_DOUBLE_EQ(core::modularity(t, {0, 1, 2, 3, 4}), 0.0);
}

TEST(Ari, IdenticalPartitionsScoreOne) {
  const std::vector<vidx_t> p = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(core::adjusted_rand_index(p, p), 1.0);
  // Label names don't matter.
  const std::vector<vidx_t> renamed = {5, 5, 9, 9, 7, 7};
  EXPECT_DOUBLE_EQ(core::adjusted_rand_index(p, renamed), 1.0);
}

TEST(Ari, IndependentPartitionsNearZero) {
  util::Xoshiro256 rng(54);
  std::vector<vidx_t> a(2000), b(2000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<vidx_t>(rng.bounded(5));
    b[i] = static_cast<vidx_t>(rng.bounded(5));
  }
  EXPECT_NEAR(core::adjusted_rand_index(a, b), 0.0, 0.05);
}

TEST(Ari, PartialAgreementBetweenZeroAndOne) {
  const std::vector<vidx_t> truth = {0, 0, 0, 1, 1, 1};
  const std::vector<vidx_t> off_by_one = {0, 0, 0, 1, 1, 0};
  const double ari = core::adjusted_rand_index(truth, off_by_one);
  EXPECT_GT(ari, 0.0);
  EXPECT_LT(ari, 1.0);
}

TEST(Ari, SizeMismatchThrows) {
  EXPECT_THROW(core::adjusted_rand_index({0, 1}, {0}),
               std::invalid_argument);
}

}  // namespace
