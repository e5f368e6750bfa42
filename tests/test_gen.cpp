// Generator contracts: sizes, symmetry, determinism, planted structure,
// and the pair-counting cluster scorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "gen/datasets.hpp"
#include "gen/er.hpp"
#include "gen/planted.hpp"
#include "gen/rmat.hpp"
#include "sparse/convert.hpp"

namespace {

using namespace mclx;

bool is_symmetric(const sparse::Triples<vidx_t, val_t>& t) {
  std::map<std::pair<vidx_t, vidx_t>, val_t> entries;
  for (const auto& e : t) entries[{e.row, e.col}] = e.val;
  for (const auto& [coord, val] : entries) {
    const auto it = entries.find({coord.second, coord.first});
    if (it == entries.end() || it->second != val) return false;
  }
  return true;
}

TEST(ErdosRenyi, SizeAndSymmetry) {
  gen::ErParams p;
  p.n = 500;
  p.avg_degree = 6;
  const auto g = gen::erdos_renyi(p);
  EXPECT_EQ(g.nrows(), 500);
  EXPECT_EQ(g.ncols(), 500);
  EXPECT_GT(g.nnz(), 2000u);  // ~2*6*500 minus collisions
  EXPECT_TRUE(is_symmetric(g));
}

TEST(ErdosRenyi, NoSelfLoops) {
  const auto g = gen::erdos_renyi({.n = 200, .avg_degree = 5, .seed = 3});
  for (const auto& e : g) EXPECT_NE(e.row, e.col);
}

TEST(ErdosRenyi, Deterministic) {
  const auto a = gen::erdos_renyi({.n = 100, .avg_degree = 4, .seed = 9});
  const auto b = gen::erdos_renyi({.n = 100, .avg_degree = 4, .seed = 9});
  EXPECT_EQ(a, b);
}

TEST(ErdosRenyi, SeedChangesGraph) {
  const auto a = gen::erdos_renyi({.n = 100, .avg_degree = 4, .seed = 1});
  const auto b = gen::erdos_renyi({.n = 100, .avg_degree = 4, .seed = 2});
  EXPECT_FALSE(a == b);
}

TEST(ErdosRenyi, InvalidParamsThrow) {
  EXPECT_THROW(gen::erdos_renyi({.n = 0}), std::invalid_argument);
  EXPECT_THROW(gen::erdos_renyi({.n = 10, .avg_degree = -1}),
               std::invalid_argument);
}

TEST(Rmat, SizeAndDeterminism) {
  gen::RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  p.seed = 5;
  const auto a = gen::rmat(p);
  EXPECT_EQ(a.nrows(), 256);
  EXPECT_TRUE(is_symmetric(a));
  EXPECT_EQ(a, gen::rmat(p));
}

TEST(Rmat, SkewedDegrees) {
  // R-MAT with the default quadrant weights must produce a hub: max degree
  // well above the mean.
  gen::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  const auto a = gen::rmat(p);
  const auto csc = sparse::csc_from_triples(a);
  vidx_t max_deg = 0;
  for (vidx_t j = 0; j < csc.ncols(); ++j)
    max_deg = std::max(max_deg, csc.col_nnz(j));
  const double mean_deg =
      static_cast<double>(csc.nnz()) / static_cast<double>(csc.ncols());
  EXPECT_GT(static_cast<double>(max_deg), 5.0 * mean_deg);
}

TEST(Rmat, InvalidParamsThrow) {
  EXPECT_THROW(gen::rmat({.scale = 0}), std::invalid_argument);
  EXPECT_THROW(gen::rmat({.scale = 5, .edge_factor = 4, .a = 0.9, .b = 0.9}),
               std::invalid_argument);
}

TEST(Planted, CoversAllVerticesWithLabels) {
  gen::PlantedParams p;
  p.n = 1000;
  const auto g = gen::planted_partition(p);
  EXPECT_EQ(g.labels.size(), 1000u);
  EXPECT_GT(g.num_families, 10);
  for (const auto l : g.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, g.num_families);
  }
  EXPECT_TRUE(is_symmetric(g.edges));
}

TEST(Planted, IntraFamilyWeightsDominates) {
  gen::PlantedParams p;
  p.n = 800;
  p.seed = 7;
  const auto g = gen::planted_partition(p);
  double in_sum = 0, out_sum = 0;
  std::uint64_t in_n = 0, out_n = 0;
  for (const auto& e : g.edges) {
    if (g.labels[static_cast<std::size_t>(e.row)] ==
        g.labels[static_cast<std::size_t>(e.col)]) {
      in_sum += e.val;
      ++in_n;
    } else {
      out_sum += e.val;
      ++out_n;
    }
  }
  ASSERT_GT(in_n, 0u);
  ASSERT_GT(out_n, 0u);
  EXPECT_GT(in_sum / in_n, 2.0 * (out_sum / out_n));
  // Most edges are intra-family.
  EXPECT_GT(in_n, out_n);
}

TEST(Planted, HeavyTailedFamilySizes) {
  gen::PlantedParams p;
  p.n = 5000;
  p.seed = 11;
  const auto g = gen::planted_partition(p);
  std::map<vidx_t, int> sizes;
  for (const auto l : g.labels) ++sizes[l];
  int max_size = 0, singles = 0;
  for (const auto& [label, s] : sizes) {
    max_size = std::max(max_size, s);
    singles += s == 1;
  }
  EXPECT_GT(max_size, 30);  // a large family exists
  EXPECT_GT(singles, 10);   // and many tiny ones
}

TEST(Planted, PermutedVerticesScatterTheSameFamilies) {
  // permute_vertices relabels the graph drawn from the same seed: the
  // consecutive families land scattered over the vertex ids, with the
  // same sizes, edges and weights.
  gen::PlantedParams p;
  p.n = 500;
  p.seed = 21;
  p.permute_vertices = false;
  const auto plain = gen::planted_partition(p);
  p.permute_vertices = true;
  const auto scattered = gen::planted_partition(p);

  const auto boundaries = [](const std::vector<vidx_t>& labels) {
    int changes = 0;
    for (std::size_t v = 1; v < labels.size(); ++v) {
      changes += labels[v] != labels[v - 1];
    }
    return changes;
  };
  EXPECT_TRUE(std::is_sorted(plain.labels.begin(), plain.labels.end()));
  EXPECT_EQ(boundaries(plain.labels), plain.num_families - 1);
  EXPECT_GT(boundaries(scattered.labels), 4 * boundaries(plain.labels));

  const auto family_sizes = [](const gen::PlantedGraph& g) {
    std::vector<vidx_t> sizes(static_cast<std::size_t>(g.num_families));
    for (const vidx_t l : g.labels) ++sizes[static_cast<std::size_t>(l)];
    return sizes;
  };
  EXPECT_EQ(scattered.num_families, plain.num_families);
  EXPECT_EQ(family_sizes(scattered), family_sizes(plain));

  const auto weights = [](const gen::PlantedGraph& g, bool intra) {
    std::vector<val_t> out;
    for (const auto& e : g.edges) {
      const bool same = g.labels[static_cast<std::size_t>(e.row)] ==
                        g.labels[static_cast<std::size_t>(e.col)];
      if (same == intra) out.push_back(e.val);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  ASSERT_EQ(scattered.edges.nnz(), plain.edges.nnz());
  EXPECT_EQ(weights(scattered, true), weights(plain, true));
  EXPECT_EQ(weights(scattered, false), weights(plain, false));
}

TEST(Planted, InvalidParamsThrow) {
  EXPECT_THROW(gen::planted_partition({.n = 0}), std::invalid_argument);
  gen::PlantedParams bad_alpha;
  bad_alpha.power_law_alpha = 1.0;
  EXPECT_THROW(gen::planted_partition(bad_alpha), std::invalid_argument);
  gen::PlantedParams bad_pin;
  bad_pin.p_in = 1.5;
  EXPECT_THROW(gen::planted_partition(bad_pin), std::invalid_argument);
}

TEST(Score, PerfectClustering) {
  const std::vector<vidx_t> truth = {0, 0, 1, 1, 2};
  const auto q = gen::score_clustering(truth, truth);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.f1, 1.0);
}

TEST(Score, AllSingletonsHasFullPrecisionZeroRecall) {
  const std::vector<vidx_t> truth = {0, 0, 0};
  const std::vector<vidx_t> singletons = {0, 1, 2};
  const auto q = gen::score_clustering(singletons, truth);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);  // vacuous: no intra-cluster pairs
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
}

TEST(Score, OneBigClusterHasFullRecall) {
  const std::vector<vidx_t> truth = {0, 0, 1, 1};
  const std::vector<vidx_t> lump = {0, 0, 0, 0};
  const auto q = gen::score_clustering(lump, truth);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_NEAR(q.precision, 2.0 / 6.0, 1e-12);
}

TEST(Score, SizeMismatchThrows) {
  EXPECT_THROW(gen::score_clustering({0, 1}, {0}), std::invalid_argument);
}

TEST(Datasets, RecipesExistAndScale) {
  for (const auto& name : gen::all_dataset_names()) {
    const auto d = gen::make_dataset(name, 0.1);
    EXPECT_EQ(d.name, name);
    EXPECT_GT(d.graph.edges.nnz(), 0u);
    EXPECT_FALSE(d.paper_analog.empty());
  }
}

TEST(Datasets, SizeOrderingMatchesPaper) {
  // archaea < eukarya < isom in vertex count, as in Table I.
  const auto a = gen::make_dataset("archaea-mini", 0.2);
  const auto e = gen::make_dataset("eukarya-mini", 0.2);
  const auto i = gen::make_dataset("isom-mini", 0.2);
  EXPECT_LT(a.graph.edges.nrows(), e.graph.edges.nrows());
  EXPECT_LT(e.graph.edges.nrows(), i.graph.edges.nrows());
}

TEST(Datasets, IsomDenserThanMetaclust) {
  // The paper attributes isom's better GPU utilization to its density
  // (larger cf); our analogs must preserve that ordering.
  const auto i = gen::make_dataset("isom-mini", 0.3);
  const auto m = gen::make_dataset("metaclust-mini", 0.3);
  const double di = static_cast<double>(i.graph.edges.nnz()) /
                    static_cast<double>(i.graph.edges.nrows());
  const double dm = static_cast<double>(m.graph.edges.nnz()) /
                    static_cast<double>(m.graph.edges.nrows());
  EXPECT_GT(di, 1.5 * dm);
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(gen::make_dataset("nope"), std::invalid_argument);
}

}  // namespace
