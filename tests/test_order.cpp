// Reordering subsystem suite: Permutation invariants, the three ordering
// strategies (degree / RCM / cluster), and the end-to-end pipeline
// guarantees — reorder-on and reorder-off runs produce the *same label
// arrays*, permuted-space runs are bit-identical at any thread count,
// and checkpoint resume re-enters the same permuted space (CKP2).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/hipmcl.hpp"
#include "gen/planted.hpp"
#include "order/order.hpp"
#include "order/permutation.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace {

using namespace mclx;
using C = sparse::Csc<vidx_t, val_t>;

struct PoolGuard {
  ~PoolGuard() { par::set_threads(0); }
};

/// Scoped MCLX_REORDER override that restores the previous state.
class EnvGuard {
 public:
  explicit EnvGuard(const char* value) {
    const char* prev = std::getenv("MCLX_REORDER");
    if (prev) saved_ = prev;
    had_ = prev != nullptr;
    if (value) {
      ::setenv("MCLX_REORDER", value, 1);
    } else {
      ::unsetenv("MCLX_REORDER");
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv("MCLX_REORDER", saved_.c_str(), 1);
    } else {
      ::unsetenv("MCLX_REORDER");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

gen::PlantedGraph planted(vidx_t n, std::uint64_t seed) {
  gen::PlantedParams p;
  p.n = n;
  p.seed = seed;
  return gen::planted_partition(p);
}

C planted_csc(vidx_t n, std::uint64_t seed) {
  auto g = planted(n, seed);
  return sparse::csc_from_triples(std::move(g.edges));
}

void expect_bitwise_equal(const C& a, const C& b) {
  ASSERT_EQ(a.nrows(), b.nrows());
  ASSERT_EQ(a.ncols(), b.ncols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (vidx_t j = 0; j <= a.ncols(); ++j) {
    ASSERT_EQ(a.colptr()[j], b.colptr()[j]) << "colptr at " << j;
  }
  for (std::size_t p = 0; p < a.nnz(); ++p) {
    ASSERT_EQ(a.rowids()[p], b.rowids()[p]) << "rowid at " << p;
    ASSERT_EQ(a.vals()[p], b.vals()[p]) << "val at " << p;
  }
}

void expect_valid_permutation(const order::Permutation& p, vidx_t n) {
  ASSERT_EQ(p.size(), n);
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (vidx_t v = 0; v < n; ++v) {
    const vidx_t nv = p.new_of_old()[static_cast<std::size_t>(v)];
    ASSERT_GE(nv, 0);
    ASSERT_LT(nv, n);
    ASSERT_FALSE(seen[static_cast<std::size_t>(nv)]) << "duplicate " << nv;
    seen[static_cast<std::size_t>(nv)] = true;
    // Inverse agrees in both directions.
    EXPECT_EQ(p.old_of_new()[static_cast<std::size_t>(nv)], v);
  }
}

// ---------------------------------------------------------------------------
// Permutation object.

TEST(Permutation, ValidatesOnConstruction) {
  EXPECT_NO_THROW(order::Permutation({2, 0, 1}));
  EXPECT_THROW(order::Permutation({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(order::Permutation({0, 1, 3}), std::invalid_argument);
  EXPECT_THROW(order::Permutation({-1, 1, 0}), std::invalid_argument);
}

TEST(Permutation, IdentityAndEmpty) {
  const order::Permutation none;
  EXPECT_TRUE(none.empty());
  const auto id = order::Permutation::identity(4);
  EXPECT_FALSE(id.empty());
  for (vidx_t v = 0; v < 4; ++v) {
    EXPECT_EQ(id.new_of_old()[static_cast<std::size_t>(v)], v);
  }
}

TEST(Permutation, SymmetricApplyRoundTripsBitwise) {
  const C a = planted_csc(120, 7);
  const order::Permutation p =
      order::compute_order(order::OrderKind::kRcm, a);
  const C pa = p.apply_symmetric(a);
  const C back = p.inverted().apply_symmetric(pa);
  expect_bitwise_equal(a, back);  // pure relabeling: exact round trip
}

TEST(Permutation, LabelMapsAreInverses) {
  const order::Permutation p({2, 0, 3, 1});
  const std::vector<vidx_t> in{10, 11, 12, 13};
  const auto fwd = p.to_new_space(in);
  // out[new_of_old[v]] = in[v]
  EXPECT_EQ(fwd, (std::vector<vidx_t>{11, 13, 10, 12}));
  EXPECT_EQ(p.to_old_space(fwd), in);
  EXPECT_THROW(p.to_old_space(std::vector<vidx_t>{1, 2}),
               std::invalid_argument);
}

TEST(Permutation, BandwidthMatchesOnBothFormats) {
  sparse::Triples<vidx_t, val_t> t(5, 5);
  t.push_unchecked(0, 4, 1.0);
  t.push_unchecked(2, 1, 1.0);
  t.sort_and_combine();
  EXPECT_EQ(order::pattern_bandwidth(t), 4u);
  EXPECT_EQ(order::pattern_bandwidth(sparse::csc_from_triples(t)), 4u);
  EXPECT_EQ(order::pattern_bandwidth(sparse::Triples<vidx_t, val_t>(3, 3)),
            0u);
}

// ---------------------------------------------------------------------------
// Ordering strategies.

TEST(OrderStrategies, AllProduceValidDeterministicPermutations) {
  const C a = planted_csc(300, 21);
  for (const auto kind : {order::OrderKind::kDegree, order::OrderKind::kRcm,
                          order::OrderKind::kCluster}) {
    const auto p1 = order::compute_order(kind, a);
    expect_valid_permutation(p1, a.ncols());
    const auto p2 = order::compute_order(kind, a);
    EXPECT_EQ(p1.new_of_old(), p2.new_of_old())
        << "non-deterministic " << order::order_name(kind);
  }
  EXPECT_THROW(order::compute_order(order::OrderKind::kNone, a),
               std::invalid_argument);
}

TEST(OrderStrategies, RcmRecoversScrambledBandedStructure) {
  // A path graph whose vertex ids are randomly shuffled: the natural
  // bandwidth is 1, the shuffled bandwidth is ~n. RCM must recover a
  // near-banded ordering — this is the workload the algorithm is *for*.
  const vidx_t n = 500;
  std::vector<vidx_t> shuffle(static_cast<std::size_t>(n));
  std::iota(shuffle.begin(), shuffle.end(), vidx_t{0});
  util::Xoshiro256 rng(33);
  for (std::size_t i = shuffle.size(); i > 1; --i) {
    const auto j =
        static_cast<std::size_t>(rng.bounded(static_cast<vidx_t>(i)));
    std::swap(shuffle[i - 1], shuffle[j]);
  }
  sparse::Triples<vidx_t, val_t> t(n, n);
  for (vidx_t v = 0; v + 1 < n; ++v) {
    const vidx_t u = shuffle[static_cast<std::size_t>(v)];
    const vidx_t w = shuffle[static_cast<std::size_t>(v) + 1];
    t.push_unchecked(u, w, 1.0);
    t.push_unchecked(w, u, 1.0);
  }
  t.sort_and_combine();
  const C a = sparse::csc_from_triples(std::move(t));
  const auto p = order::compute_order(order::OrderKind::kRcm, a);
  const auto before = order::pattern_bandwidth(a);
  const auto after = order::pattern_bandwidth(p.apply_symmetric(a));
  EXPECT_GT(before, static_cast<std::uint64_t>(n) / 2);
  EXPECT_LE(after, 2u) << "rcm bandwidth " << after << " vs raw " << before;
}

TEST(OrderStrategies, RcmNeverWorsensPlantedBandwidth) {
  // On a noisy clustered graph the cross-family edges bound how far any
  // ordering can go; RCM must still move in the right direction.
  const C a = planted_csc(500, 33);
  const auto p = order::compute_order(order::OrderKind::kRcm, a);
  const auto before = order::pattern_bandwidth(a);
  const auto after = order::pattern_bandwidth(p.apply_symmetric(a));
  EXPECT_LT(after, before);
}

TEST(OrderStrategies, ClusterOrderMakesComponentsContiguous) {
  // Two disjoint cliques with interleaved vertex ids.
  sparse::Triples<vidx_t, val_t> t(8, 8);
  const std::vector<vidx_t> even{0, 2, 4, 6}, odd{1, 3, 5, 7};
  for (const auto& grp : {even, odd}) {
    for (vidx_t u : grp) {
      for (vidx_t v : grp) {
        if (u != v) t.push_unchecked(u, v, 1.0);
      }
    }
  }
  t.sort_and_combine();
  const C a = sparse::csc_from_triples(std::move(t));
  const auto p = order::compute_order(order::OrderKind::kCluster, a);
  expect_valid_permutation(p, 8);
  // Each component's vertices occupy one contiguous run of new ids, and
  // the component holding vertex 0 comes first.
  for (vidx_t v : even) EXPECT_LT(p.new_of_old()[static_cast<std::size_t>(v)], 4);
  for (vidx_t v : odd) EXPECT_GE(p.new_of_old()[static_cast<std::size_t>(v)], 4);
}

TEST(OrderStrategies, ParseAndResolve) {
  using order::OrderKind;
  EXPECT_EQ(order::parse_order_kind("none"), OrderKind::kNone);
  EXPECT_EQ(order::parse_order_kind("off"), OrderKind::kNone);
  EXPECT_EQ(order::parse_order_kind("0"), OrderKind::kNone);
  EXPECT_EQ(order::parse_order_kind(""), OrderKind::kNone);
  EXPECT_EQ(order::parse_order_kind("on"), OrderKind::kRcm);
  EXPECT_EQ(order::parse_order_kind("1"), OrderKind::kRcm);
  EXPECT_EQ(order::parse_order_kind("degree"), OrderKind::kDegree);
  EXPECT_EQ(order::parse_order_kind("rcm"), OrderKind::kRcm);
  EXPECT_EQ(order::parse_order_kind("cluster"), OrderKind::kCluster);
  EXPECT_FALSE(order::parse_order_kind("bogus").has_value());

  // Non-default kinds resolve to themselves regardless of environment.
  {
    EnvGuard env("cluster");
    EXPECT_EQ(order::resolve_order_kind(OrderKind::kRcm), OrderKind::kRcm);
    EXPECT_EQ(order::resolve_order_kind(OrderKind::kDefault),
              OrderKind::kCluster);
  }
  {
    EnvGuard env("ON");
    EXPECT_EQ(order::resolve_order_kind(OrderKind::kDefault),
              OrderKind::kRcm);
  }
  {
    EnvGuard env(nullptr);  // unset → reordering off
    EXPECT_EQ(order::resolve_order_kind(OrderKind::kDefault),
              OrderKind::kNone);
  }
  {
    EnvGuard env("unparsable-kind");  // unparsable → off, not a throw
    EXPECT_EQ(order::resolve_order_kind(OrderKind::kDefault),
              OrderKind::kNone);
  }
}

// ---------------------------------------------------------------------------
// End-to-end pipeline: equivalence and determinism guarantees.

core::MclParams mcl_params() {
  core::MclParams p;
  p.prune.select_k = 25;
  return p;
}

core::MclResult run_with(const dist::TriplesD& graph, order::OrderKind kind,
                         int threads, bool keep_final = false) {
  PoolGuard guard;
  par::set_threads(threads);
  sim::SimState sim(sim::summit_like(4));
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.ordering = kind;
  config.keep_final_matrix = keep_final;
  return core::run_hipmcl(graph, mcl_params(), config, sim);
}

TEST(OrderPipeline, ReorderOnMatchesReorderOffExactly) {
  const auto g = planted(240, 71);
  const auto off = run_with(g.edges, order::OrderKind::kNone, 4);
  for (const auto kind :
       {order::OrderKind::kRcm, order::OrderKind::kCluster,
        order::OrderKind::kDegree}) {
    const auto on = run_with(g.edges, kind, 4);
    // Same label *arrays*, not merely the same partition: reordered
    // labels are renumbered by first occurrence in input-vertex order,
    // which is exactly how connected_components numbers an unpermuted
    // run.
    EXPECT_EQ(off.labels, on.labels)
        << "labels diverge under " << order::order_name(kind);
    EXPECT_EQ(off.num_clusters, on.num_clusters);
    EXPECT_FALSE(on.order_perm.empty());
  }
  EXPECT_TRUE(off.order_perm.empty());
}

TEST(OrderPipeline, PermutedRunsBitIdenticalAcrossThreadCounts) {
  const auto g = planted(240, 72);
  const auto t1 = run_with(g.edges, order::OrderKind::kRcm, 1);
  for (const int threads : {4, 8}) {
    const auto tn = run_with(g.edges, order::OrderKind::kRcm, threads);
    EXPECT_EQ(t1.labels, tn.labels) << "threads=" << threads;
    ASSERT_EQ(t1.iterations, tn.iterations);
    for (int i = 0; i < t1.iterations; ++i) {
      const auto& a = t1.iters[static_cast<std::size_t>(i)];
      const auto& b = tn.iters[static_cast<std::size_t>(i)];
      EXPECT_EQ(a.chaos, b.chaos) << "iter " << i;  // exact FP equality
      EXPECT_EQ(a.nnz_after_prune, b.nnz_after_prune) << "iter " << i;
    }
  }
}

TEST(OrderPipeline, FinalMatrixReturnsInInputSpace) {
  const auto g = planted(200, 73);
  const auto off = run_with(g.edges, order::OrderKind::kNone, 1, true);
  const auto on = run_with(g.edges, order::OrderKind::kRcm, 1, true);
  ASSERT_TRUE(off.final_matrix.has_value());
  ASSERT_TRUE(on.final_matrix.has_value());
  // Same support in input space (values can differ bitwise: permuted
  // runs accumulate columns in a different — still canonical — order).
  auto a = off.final_matrix->to_triples();
  auto b = on.final_matrix->to_triples();
  a.sort_and_combine();
  b.sort_and_combine();
  ASSERT_EQ(a.nnz(), b.nnz());
  auto ib = b.begin();
  for (const auto& ea : a) {
    EXPECT_EQ(ea.row, ib->row);
    EXPECT_EQ(ea.col, ib->col);
    ++ib;
  }
}

TEST(OrderPipeline, EnvironmentDefaultEnablesReordering) {
  const auto g = planted(160, 74);
  core::MclResult by_env;
  {
    EnvGuard env("rcm");
    by_env = run_with(g.edges, order::OrderKind::kDefault, 1);
  }
  EXPECT_FALSE(by_env.order_perm.empty());
  const auto direct = run_with(g.edges, order::OrderKind::kRcm, 1);
  EXPECT_EQ(by_env.order_perm, direct.order_perm);
  EXPECT_EQ(by_env.labels, direct.labels);
}

// ---------------------------------------------------------------------------
// Checkpoint integration (CKP2).

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(OrderCheckpoint, PermutationRoundTripsThroughTheFile) {
  const auto g = planted(100, 81);
  std::vector<vidx_t> perm(100);
  std::iota(perm.rbegin(), perm.rend(), vidx_t{0});
  const std::string path = temp_path("ckp2_roundtrip.bin");
  core::save_checkpoint(path, {g.edges, 3, perm});
  const auto back = core::load_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->completed_iterations, 3);
  EXPECT_EQ(back->matrix, g.edges);
  EXPECT_EQ(back->order_perm, perm);
}

TEST(OrderCheckpoint, V1FilesStillLoadWithEmptyPermutation) {
  // Hand-write the v1 layout (magic ...KP1, no trailing permutation).
  const auto g = planted(40, 82);
  const std::string path = temp_path("ckp1_legacy.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("MCLXCKP1", 8);
    const std::int64_t done = 2;
    out.write(reinterpret_cast<const char*>(&done), sizeof(done));
    const vidx_t nrows = g.edges.nrows(), ncols = g.edges.ncols();
    out.write(reinterpret_cast<const char*>(&nrows), sizeof(nrows));
    out.write(reinterpret_cast<const char*>(&ncols), sizeof(ncols));
    const std::uint64_t nnz = g.edges.nnz();
    out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
    for (const auto& e : g.edges) {
      out.write(reinterpret_cast<const char*>(&e.row), sizeof(e.row));
      out.write(reinterpret_cast<const char*>(&e.col), sizeof(e.col));
      out.write(reinterpret_cast<const char*>(&e.val), sizeof(e.val));
    }
  }
  const auto back = core::load_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->completed_iterations, 2);
  EXPECT_EQ(back->matrix, g.edges);
  EXPECT_TRUE(back->order_perm.empty());
}

TEST(OrderCheckpoint, CorruptPermutationThrows) {
  const auto g = planted(30, 83);
  const std::string path = temp_path("ckp2_corrupt.bin");
  core::save_checkpoint(path, {g.edges, 1, {}});
  // Overwrite the trailing perm-size field with a nonsense count.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-8, std::ios::end);
  const std::uint64_t bogus = 7;  // != 0 and != nrows
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  EXPECT_THROW(core::load_checkpoint(path), std::runtime_error);
}

TEST(OrderCheckpoint, ChunkedReorderedRunMatchesMonolithic) {
  const auto g = planted(200, 84);
  const auto params = mcl_params();
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.ordering = order::OrderKind::kRcm;

  sim::SimState s1(sim::summit_like(4));
  const auto plain = core::run_hipmcl(g.edges, params, config, s1);

  sim::SimState s2(sim::summit_like(4));
  const std::string path = temp_path("ckp2_chunked.bin");
  const auto chunked = core::run_hipmcl_checkpointed(g.edges, params, config,
                                                     s2, path, /*every=*/3);

  EXPECT_EQ(plain.labels, chunked.labels);
  EXPECT_EQ(plain.iterations, chunked.iterations);
  EXPECT_EQ(plain.order_perm, chunked.order_perm);
  ASSERT_EQ(plain.iters.size(), chunked.iters.size());
  for (std::size_t i = 0; i < plain.iters.size(); ++i) {
    EXPECT_EQ(plain.iters[i].chaos, chunked.iters[i].chaos) << "iter " << i;
    EXPECT_EQ(plain.iters[i].nnz_after_prune,
              chunked.iters[i].nnz_after_prune)
        << "iter " << i;
  }
  // The file carries the permutation for the next resume.
  const auto cp = core::load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->order_perm, plain.order_perm);
}

}  // namespace
