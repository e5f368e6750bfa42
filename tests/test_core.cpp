// MCL core integration: distributed prune/inflate/chaos semantics, the
// HipMCL driver end to end (cluster recovery on planted graphs, identical
// clusterings across all configurations — the paper's "returns identical
// clusters to MCL" property), and the interpretation helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/chaos.hpp"
#include "core/hipmcl.hpp"
#include "core/inflate.hpp"
#include "core/interpret.hpp"
#include "core/prune.hpp"
#include "dist/cc.hpp"
#include "dist/summa.hpp"
#include "gen/planted.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"
#include "spgemm/symbolic.hpp"
#include "util/parallel.hpp"
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

TEST(DistributedPrune, CutoffAndSelectApplied) {
  T t = random_triples(40, 1500, 1);
  DistMat m = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  core::PruneParams p;
  p.cutoff = 0.3;
  p.select_k = 5;
  prune_blocks(m, p, sim);
  const C g = m.to_csc();
  for (vidx_t j = 0; j < g.ncols(); ++j) {
    EXPECT_LE(g.col_nnz(j), 5);
    for (const val_t v : g.col_vals(j)) EXPECT_GE(std::abs(v), 0.3);
  }
  // Pruning must be charged.
  EXPECT_GT(sim.critical_stage_times()[static_cast<std::size_t>(
                sim::Stage::kPrune)],
            0.0);
}

// The prune against a dense per-column oracle written from the definition:
// cutoff on |v|, then recovery of the largest discards by |v|, then top-k
// by v, ties to the smaller row in both. Values come from {1/16 … 8/16},
// so ties are common and cross block rows; recover_num 10 exceeds
// select_k, so recovered entries must count toward the selection.
// `prune(t, nodes, params)` returns t pruned on a grid of `nodes`.
template <typename Prune>
void expect_matches_dense_oracle(Prune&& prune) {
  constexpr vidx_t n = 45;
  constexpr std::size_t select_k = 6;
  constexpr val_t cutoff = 0.3;
  util::Xoshiro256 rng(45);
  std::vector<std::vector<val_t>> dense(  // dense[col][row], 0 = absent
      n, std::vector<val_t>(n, 0.0));
  T t(n, n);
  for (vidx_t c = 0; c < n; ++c) {
    for (vidx_t r = 0; r < n; ++r) {
      if (rng.bounded(10) >= 3) continue;
      const val_t v = static_cast<val_t>(rng.bounded(8) + 1) / 16.0;
      dense[c][r] = v;
      t.push(r, c, v);
    }
  }
  t.sort_and_combine();

  using Entry = std::pair<vidx_t, val_t>;  // (row, value)
  const auto oracle = [&](vidx_t c, std::size_t recover_num) {
    std::vector<Entry> kept;
    std::vector<Entry> discarded;
    for (vidx_t r = 0; r < n; ++r) {
      const val_t v = dense[c][r];
      if (v == 0.0) continue;
      (std::abs(v) >= cutoff ? kept : discarded).push_back({r, v});
    }
    if (kept.size() < recover_num) {
      std::sort(discarded.begin(), discarded.end(),
                [](const Entry& x, const Entry& y) {
                  if (std::abs(x.second) != std::abs(y.second))
                    return std::abs(x.second) > std::abs(y.second);
                  return x.first < y.first;
                });
      const std::size_t take =
          std::min(recover_num - kept.size(), discarded.size());
      kept.insert(kept.end(), discarded.begin(),
                  discarded.begin() + static_cast<std::ptrdiff_t>(take));
    }
    if (kept.size() > select_k) {
      std::sort(kept.begin(), kept.end(), [](const Entry& x, const Entry& y) {
        if (x.second != y.second) return x.second > y.second;
        return x.first < y.first;
      });
      kept.resize(select_k);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  };

  for (const int nodes : {1, 4, 9, 16}) {
    for (const std::size_t recover_num : {0, 4, 10}) {
      SCOPED_TRACE("nodes " + std::to_string(nodes) + ", recover_num " +
                   std::to_string(recover_num));
      core::PruneParams p;
      p.cutoff = cutoff;
      p.select_k = static_cast<int>(select_k);
      p.recover_num = static_cast<int>(recover_num);
      const C g = prune(t, nodes, p);
      for (vidx_t c = 0; c < n; ++c) {
        std::vector<Entry> got;
        for (std::size_t q = 0; q < g.col_rows(c).size(); ++q)
          got.emplace_back(g.col_rows(c)[q], g.col_vals(c)[q]);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, oracle(c, recover_num)) << "column " << c;
      }
    }
  }
}

TEST(PruneChunks, MatchesDenseOracle) {
  expect_matches_dense_oracle(
      [](const T& t, int nodes, const core::PruneParams& p) {
        DistMat m = DistMat::from_triples(t, ProcGrid(nodes));
        sim::SimState sim(sim::summit_like(nodes));
        prune_blocks(m, p, sim);
        return m.to_csc();
      });
}

// The same cases through SUMMA's in-pass prune: I·T is T exactly, pruned
// column by column as the pass extracts it, in one phase and in three.
TEST(SummaPrune, InPassMatchesDenseOracle) {
  for (const int phases : {1, 3}) {
    SCOPED_TRACE(std::to_string(phases) + " phases");
    expect_matches_dense_oracle(
        [phases](const T& t, int nodes, const core::PruneParams& p) {
          const ProcGrid grid(nodes);
          T ident(t.nrows(), t.nrows());
          for (vidx_t v = 0; v < t.nrows(); ++v) ident.push(v, v, 1.0);
          const DistMat i = DistMat::from_triples(ident, grid);
          const DistMat m = DistMat::from_triples(t, grid);
          sim::SimState sim(sim::summit_like(nodes));
          dist::SummaOptions opt;
          opt.phases = phases;
          opt.prune = p;
          return dist::summa_multiply(i, m, sim, opt).c.to_csc();
        });
  }
}

TEST(DistributedInflate, MatchesLocalInflation) {
  T t = random_triples(30, 500, 2);
  DistMat m = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  core::distributed_inflate(m, 2.0, sim);

  C local = sparse::csc_from_triples(t);
  sparse::hadamard_power(local, 2.0);
  sparse::normalize_columns(local);
  EXPECT_TRUE(sparse::approx_equal(local, m.to_csc(), 1e-9));
}

TEST(DistributedNormalize, MakesColumnsStochastic) {
  T t = random_triples(25, 300, 3);
  DistMat m = DistMat::from_triples(t, ProcGrid(1));
  sim::SimState sim(sim::summit_like(1));
  core::distributed_normalize(m, sim);
  EXPECT_TRUE(sparse::is_column_stochastic(m.to_csc()));
}

TEST(Chaos, ZeroOnConvergedMatrix) {
  // A permutation-like stochastic matrix (single 1 per column) has zero
  // chaos.
  T t(6, 6);
  for (vidx_t j = 0; j < 6; ++j) t.push((j + 1) % 6, j, 1.0);
  const DistMat m = DistMat::from_triples(t, ProcGrid(4));
  sim::SimState sim(sim::summit_like(4));
  EXPECT_NEAR(core::distributed_chaos(m, sim), 0.0, 1e-12);
}

TEST(Chaos, PositiveOnSpreadColumns) {
  T t(4, 4);
  for (vidx_t j = 0; j < 4; ++j) {
    t.push(0, j, 0.5);
    t.push(1, j, 0.5);
  }
  const DistMat m = DistMat::from_triples(t, ProcGrid(1));
  sim::SimState sim(sim::summit_like(1));
  // chaos = max - sumsq = 0.5 - 0.5 = 0... use uneven split instead.
  T t2(4, 4);
  for (vidx_t j = 0; j < 4; ++j) {
    t2.push(0, j, 0.7);
    t2.push(1, j, 0.3);
  }
  const DistMat m2 = DistMat::from_triples(t2, ProcGrid(1));
  EXPECT_NEAR(core::distributed_chaos(m2, sim), 0.7 - (0.49 + 0.09), 1e-12);
}

TEST(HipMcl, RecoversPlantedFamilies) {
  gen::PlantedParams gp;
  gp.n = 400;
  gp.seed = 5;
  const auto g = gen::planted_partition(gp);
  sim::SimState sim(sim::summit_like(4));
  core::MclParams params;
  params.prune.select_k = 40;
  const auto result = core::run_hipmcl(g.edges, params,
                                       core::HipMclConfig::optimized(), sim);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.num_clusters, 5);
  const auto q = gen::score_clustering(result.labels, g.labels);
  EXPECT_GT(q.f1, 0.85);
}

TEST(HipMcl, AllConfigurationsProduceIdenticalClusters) {
  // The paper's key correctness claim: the optimizations change *when*
  // things run, never *what* is computed. Original, no-overlap, and fully
  // optimized configurations must agree on the clustering.
  gen::PlantedParams gp;
  gp.n = 250;
  gp.seed = 6;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 30;

  sim::SimState s1(sim::summit_like_cpu_only(4));
  const auto original = core::run_hipmcl(g.edges, params,
                                         core::HipMclConfig::original(), s1);
  sim::SimState s2(sim::summit_like(4));
  const auto no_overlap = core::run_hipmcl(
      g.edges, params, core::HipMclConfig::optimized_no_overlap(), s2);
  sim::SimState s3(sim::summit_like(4));
  const auto optimized = core::run_hipmcl(g.edges, params,
                                          core::HipMclConfig::optimized(), s3);

  EXPECT_EQ(original.labels, no_overlap.labels);
  EXPECT_EQ(original.labels, optimized.labels);
}

TEST(HipMcl, ConfigurationsAgreeBitwiseOnEveryGridAndPhaseCount) {
  // One fold order (docs/KERNELS.md): the kernel kind, the merge scheme,
  // pipelining and the phase count change when work runs and what it
  // costs, never a bit of what is computed. SUMMA builds every chunk in
  // one pass that folds the stages left to right, whatever the merge
  // scheme it charges, so this holds on every grid, 6×6 and 7×7
  // included. Virtual times differ by design.
  gen::PlantedParams gp;
  gp.n = 240;
  gp.seed = 12;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 30;

  for (const int nodes : {1, 4, 9, 16, 36, 49}) {
    for (const bytes_t budget : {bytes_t{0}, bytes_t{2 * 1024}}) {
      SCOPED_TRACE(std::to_string(nodes) + " nodes, budget " +
                   std::to_string(budget));
      std::vector<core::MclResult> runs;
      int phases_max = 0;
      for (core::HipMclConfig config :
           {core::HipMclConfig::original(),
            core::HipMclConfig::optimized_no_overlap(),
            core::HipMclConfig::optimized()}) {
        config.keep_final_matrix = true;
        config.mem_budget_per_rank = budget;
        const bool gpus = config.kernel.fixed != spgemm::KernelKind::kCpuHeap;
        sim::SimState sim(gpus ? sim::summit_like(nodes)
                               : sim::summit_like_cpu_only(nodes));
        runs.push_back(core::run_hipmcl(g.edges, params, config, sim));
        for (const auto& it : runs.back().iters) {
          phases_max = std::max(phases_max, it.phases);
        }
      }
      if (budget == 0) {
        EXPECT_EQ(phases_max, 1);
      } else {
        EXPECT_GE(phases_max, 3);
      }
      const core::MclResult& want = runs.front();
      ASSERT_TRUE(want.converged);
      const C want_final = want.final_matrix->to_csc();
      for (std::size_t c = 1; c < runs.size(); ++c) {
        const core::MclResult& got = runs[c];
        SCOPED_TRACE("configuration " + std::to_string(c));
        EXPECT_EQ(got.labels, want.labels);
        const C got_final = got.final_matrix->to_csc();
        EXPECT_EQ(got_final, want_final);
        ASSERT_EQ(got_final.vals().size(), want_final.vals().size());
        EXPECT_EQ(std::memcmp(got_final.vals().data(),
                              want_final.vals().data(),
                              want_final.vals().size() * sizeof(val_t)),
                  0);
        ASSERT_EQ(got.iters.size(), want.iters.size());
        for (std::size_t i = 0; i < want.iters.size(); ++i) {
          const auto& x = got.iters[i];
          const auto& y = want.iters[i];
          EXPECT_EQ(std::memcmp(&x.chaos, &y.chaos, sizeof(double)), 0)
              << "iteration " << i << ": " << x.chaos << " vs " << y.chaos;
          EXPECT_EQ(x.nnz_before, y.nnz_before) << "iteration " << i;
          EXPECT_EQ(x.nnz_after_prune, y.nnz_after_prune) << "iteration " << i;
          EXPECT_EQ(x.flops, y.flops) << "iteration " << i;
        }
      }
    }
  }
}

TEST(HipMcl, UnsortedInputWithSplitDuplicatesRunsBitwiseLikeItsCanonicalForm) {
  // run_hipmcl does not sort its input: DistMat::from_triples
  // canonicalizes it. The same graph fed shuffled, with every third edge
  // split into two halves that sum back exactly, must run bitwise like
  // its sorted, combined form.
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 14;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 30;

  const T messy = [&g] {
    T t(g.edges.nrows(), g.edges.ncols());
    std::vector<std::size_t> idx(g.edges.nnz());
    for (std::size_t k = 0; k < idx.size(); ++k) idx[k] = k;
    util::Xoshiro256 rng(15);
    for (std::size_t k = idx.size(); k > 1; --k) {
      std::swap(idx[k - 1], idx[rng.bounded(k)]);
    }
    std::vector<T::triple_type> late;
    for (const std::size_t k : idx) {
      const auto& e = g.edges.data()[k];
      if (k % 3 == 0) {
        t.push(e.row, e.col, e.val * 0.5);
        late.push_back({e.row, e.col, e.val * 0.5});
      } else {
        t.push(e.row, e.col, e.val);
      }
    }
    for (const auto& e : late) t.push(e.row, e.col, e.val);
    return t;
  }();
  ASSERT_GT(messy.nnz(), g.edges.nnz());

  std::vector<core::MclResult> runs;
  for (const T* input : {&g.edges, &messy}) {
    core::HipMclConfig config = core::HipMclConfig::optimized();
    config.keep_final_matrix = true;
    sim::SimState sim(sim::summit_like(4));
    runs.push_back(core::run_hipmcl(*input, params, config, sim));
  }
  const core::MclResult& want = runs[0];
  const core::MclResult& got = runs[1];
  ASSERT_TRUE(want.converged);
  EXPECT_EQ(got.labels, want.labels);
  const C want_final = want.final_matrix->to_csc();
  const C got_final = got.final_matrix->to_csc();
  EXPECT_EQ(got_final, want_final);
  ASSERT_EQ(got_final.vals().size(), want_final.vals().size());
  EXPECT_EQ(std::memcmp(got_final.vals().data(), want_final.vals().data(),
                        want_final.vals().size() * sizeof(val_t)),
            0);
  ASSERT_EQ(got.iters.size(), want.iters.size());
  for (std::size_t i = 0; i < want.iters.size(); ++i) {
    const auto& x = got.iters[i];
    const auto& y = want.iters[i];
    EXPECT_EQ(std::memcmp(&x.chaos, &y.chaos, sizeof(double)), 0)
        << "iteration " << i;
    EXPECT_EQ(x.nnz_before, y.nnz_before) << "iteration " << i;
    EXPECT_EQ(x.nnz_after_prune, y.nnz_after_prune) << "iteration " << i;
    EXPECT_EQ(x.flops, y.flops) << "iteration " << i;
  }
}

/// `labels` renumbered by first occurrence in vertex order.
std::vector<vidx_t> by_first_vertex(const std::vector<vidx_t>& labels) {
  std::vector<vidx_t> renamed(labels.size());
  std::vector<vidx_t> id(labels.size(), -1);
  vidx_t next = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    auto& slot = id[static_cast<std::size_t>(labels[v])];
    if (slot < 0) slot = next++;
    renamed[v] = slot;
  }
  return renamed;
}

TEST(HipMcl, LabelsNumberClustersByTheirSmallestVertex) {
  gen::PlantedParams gp;
  gp.n = 240;
  gp.seed = 15;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  sim::SimState sim(sim::summit_like(4));
  const auto result = core::run_hipmcl(g.edges, params,
                                       core::HipMclConfig::optimized(), sim);
  ASSERT_EQ(result.labels.size(), static_cast<std::size_t>(gp.n));
  ASSERT_GT(result.num_clusters, 1);
  EXPECT_EQ(result.labels, by_first_vertex(result.labels));
  EXPECT_EQ(*std::max_element(result.labels.begin(), result.labels.end()) + 1,
            result.num_clusters);
}

TEST(HipMcl, RelabeledInputFindsTheRelabeledPartition) {
  // run_hipmcl works in the input's own vertex ids: the same graph under
  // other ids spreads over the grid differently, yet must cluster the
  // same vertices together, reported under their new ids.
  gen::PlantedParams gp;
  gp.n = 240;
  gp.seed = 16;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  sim::SimState s1(sim::summit_like(4));
  const auto base = core::run_hipmcl(g.edges, params,
                                     core::HipMclConfig::optimized(), s1);
  ASSERT_TRUE(base.converged);
  util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("permutation " + std::to_string(trial));
    const auto perm = sparse::random_permutation<vidx_t>(gp.n, rng);
    T relabeled = g.edges;
    sparse::permute_symmetric(relabeled, perm);
    relabeled.sort_and_combine();
    sim::SimState s2(sim::summit_like(4));
    const auto moved = core::run_hipmcl(relabeled, params,
                                        core::HipMclConfig::optimized(), s2);
    EXPECT_TRUE(moved.converged);
    EXPECT_EQ(moved.num_clusters, base.num_clusters);
    EXPECT_EQ(moved.labels,
              by_first_vertex(sparse::permute_labels(base.labels, perm)));
  }
}

TEST(HipMcl, FinalMatrixLinksOnlyVerticesOfOneCluster) {
  // The kept matrix is in the input's vertex ids, the space the labels
  // are reported in: each entry joins two vertices of the same cluster.
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 18;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.keep_final_matrix = true;
  sim::SimState sim(sim::summit_like(4));
  const auto result = core::run_hipmcl(g.edges, params, config, sim);
  ASSERT_TRUE(result.final_matrix.has_value());
  const C final_matrix = result.final_matrix->to_csc();
  ASSERT_EQ(final_matrix.ncols(), gp.n);
  for (vidx_t j = 0; j < final_matrix.ncols(); ++j) {
    const auto begin = final_matrix.colptr()[j];
    const auto end = final_matrix.colptr()[j + 1];
    EXPECT_LT(begin, end) << "column " << j << " is empty";
    for (auto p = begin; p < end; ++p) {
      const vidx_t i = final_matrix.rowids()[p];
      EXPECT_EQ(result.labels[static_cast<std::size_t>(i)],
                result.labels[static_cast<std::size_t>(j)])
          << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(HipMcl, LabelsAreTheComponentsOfTheFinalMatrix) {
  // The converse of the test above: each cluster is one connected piece
  // of the converged matrix, so re-reading the kept matrix on another
  // grid gives back the reported labels and count exactly.
  gen::PlantedParams gp;
  gp.n = 250;
  gp.seed = 71;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 30;
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.keep_final_matrix = true;
  sim::SimState sim(sim::summit_like(4));
  const auto result = core::run_hipmcl(g.edges, params, config, sim);
  ASSERT_TRUE(result.converged);
  ASSERT_TRUE(result.final_matrix.has_value());
  ASSERT_GT(result.num_clusters, 1);

  const dist::DistMat regridded = dist::DistMat::from_triples(
      sparse::triples_from_csc(result.final_matrix->to_csc()),
      dist::ProcGrid(9));
  sim::SimState other(sim::summit_like(9));
  const auto cc = dist::connected_components(regridded, other);
  EXPECT_EQ(cc.num_components, result.num_clusters);
  EXPECT_EQ(cc.labels, result.labels);
}

TEST(HipMcl, OptimizedRunBitIdenticalAcrossThreadCounts) {
  // The pool width never reaches results or the virtual clock on the
  // GPU path either: labels, per-iteration reports and the final matrix
  // are bit-identical at any thread count.
  struct PoolGuard {
    ~PoolGuard() { par::set_threads(0); }
  } guard;
  gen::PlantedParams gp;
  gp.n = 240;
  gp.seed = 19;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  core::HipMclConfig config = core::HipMclConfig::optimized();
  config.keep_final_matrix = true;
  const auto run = [&](int threads) {
    par::set_threads(threads);
    sim::SimState sim(sim::summit_like(4));
    return core::run_hipmcl(g.edges, params, config, sim);
  };
  const auto one = run(1);
  const C want = one.final_matrix->to_csc();
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto many = run(threads);
    EXPECT_EQ(many.labels, one.labels);
    EXPECT_EQ(many.elapsed, one.elapsed);
    ASSERT_EQ(many.iters.size(), one.iters.size());
    for (std::size_t i = 0; i < one.iters.size(); ++i) {
      const auto& x = many.iters[i];
      const auto& y = one.iters[i];
      EXPECT_EQ(std::memcmp(&x.chaos, &y.chaos, sizeof(double)), 0)
          << "iteration " << i;
      EXPECT_EQ(x.nnz_after_prune, y.nnz_after_prune) << "iteration " << i;
      EXPECT_EQ(x.phases, y.phases) << "iteration " << i;
      EXPECT_EQ(x.stage_times, y.stage_times) << "iteration " << i;
    }
    const C got = many.final_matrix->to_csc();
    EXPECT_EQ(got, want);
    ASSERT_EQ(got.vals().size(), want.vals().size());
    EXPECT_EQ(std::memcmp(got.vals().data(), want.vals().data(),
                          want.vals().size() * sizeof(val_t)),
              0);
  }
}

TEST(HipMcl, OptimizedFasterThanOriginal) {
  // Fig 1 / Table IV in miniature: the optimized configuration's virtual
  // time must be a multiple below the original's.
  gen::PlantedParams gp;
  gp.n = 300;
  gp.seed = 7;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 30;

  sim::SimState s1(sim::summit_like_cpu_only(4));
  const auto original = core::run_hipmcl(g.edges, params,
                                         core::HipMclConfig::original(), s1);
  sim::SimState s2(sim::summit_like(4));
  const auto optimized = core::run_hipmcl(g.edges, params,
                                          core::HipMclConfig::optimized(), s2);
  EXPECT_GT(original.elapsed / optimized.elapsed, 2.0);
}

TEST(HipMcl, IterationReportsAreCoherent) {
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 8;
  const auto g = gen::planted_partition(gp);
  sim::SimState sim(sim::summit_like(4));
  core::MclParams params;
  params.prune.select_k = 25;
  const auto result = core::run_hipmcl(
      g.edges, params, core::HipMclConfig::optimized(), sim);

  ASSERT_EQ(result.iters.size(), static_cast<std::size_t>(result.iterations));
  for (const auto& it : result.iters) {
    EXPECT_GT(it.flops, 0u);
    EXPECT_GT(it.est_unpruned_nnz, 0.0);
    EXPECT_GT(it.measured_unpruned_nnz, 0u);  // counted by the pass
    EXPECT_LE(it.nnz_after_prune, it.measured_unpruned_nnz);
    EXPECT_GE(it.phases, 1);
    EXPECT_GE(it.cf, 0.5);
    EXPECT_GT(it.nnz_after_prune, 0u);
    EXPECT_GT(it.elapsed, 0.0);
    EXPECT_GT(sim::total(it.stage_times), 0.0);
  }
  // Chaos should trend down to convergence.
  EXPECT_LT(result.iters.back().chaos, params.chaos_eps);
}

// The exact estimator reads nnz(A·A) off a one-phase pass of the
// expansion. Each exact iteration's input is rebuilt as the e2e probe
// rebuilds it, by a run stopped one iteration earlier, and its estimate
// must be the symbolic count of that input, bit for bit; its flops, the
// flop count's. Both the default budget and one that forces many phases
// (so the pass runs again per phase) are covered.
class ExactEstimate : public testing::TestWithParam<int> {};

TEST_P(ExactEstimate, IsTheSymbolicCount) {
  const int nodes = GetParam();
  gen::PlantedParams gp;
  gp.n = 250;
  gp.seed = 8;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 30;
  core::HipMclConfig adaptive = core::HipMclConfig::optimized();
  adaptive.estimator = core::EstimatorKind::kAdaptive;
  const std::pair<core::HipMclConfig, bool> configs[] = {
      {core::HipMclConfig::original(), true}, {adaptive, false}};
  for (const auto& [base, cpu_only] : configs) {
    for (const bytes_t budget : {bytes_t{0}, bytes_t{64}}) {
      SCOPED_TRACE((cpu_only ? "original, budget " : "adaptive, budget ") +
                   std::to_string(budget));
      core::HipMclConfig config = base;
      config.mem_budget_per_rank = budget;
      const auto machine = [&] {
        return cpu_only ? sim::summit_like_cpu_only(nodes)
                        : sim::summit_like(nodes);
      };
      sim::SimState sim(machine());
      const auto run = core::run_hipmcl(g.edges, params, config, sim);
      int exact = 0;
      int phases = 0;
      for (const auto& it : run.iters) {
        if (!it.used_exact_estimator) continue;
        ++exact;
        phases = std::max(phases, it.phases);
        core::MclParams head = params;
        head.max_iters = it.iter - 1;
        core::HipMclConfig keep = config;
        keep.keep_final_matrix = true;
        sim::SimState rebuild(machine());
        const auto input = core::run_hipmcl(g.edges, head, keep, rebuild);
        const C a = input.final_matrix->to_csc();
        const auto symbolic =
            static_cast<double>(spgemm::symbolic_nnz(a, a));
        EXPECT_EQ(std::memcmp(&it.est_unpruned_nnz, &symbolic, sizeof(double)),
                  0)
            << "iteration " << it.iter << ": " << it.est_unpruned_nnz
            << " vs " << symbolic;
        EXPECT_EQ(it.measured_unpruned_nnz,
                  static_cast<std::uint64_t>(symbolic))
            << "iteration " << it.iter;
        EXPECT_EQ(it.flops, sparse::spgemm_flops(a, a))
            << "iteration " << it.iter;
      }
      EXPECT_GT(exact, 0);
      if (budget != 0) {
        EXPECT_GT(phases, 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, ExactEstimate, testing::Values(1, 4, 16, 49),
                         [](const testing::TestParamInfo<int>& info) {
                           return "nodes" + std::to_string(info.param);
                         });

TEST(HipMcl, TinyMemoryBudgetForcesPhases) {
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 9;
  const auto g = gen::planted_partition(gp);

  core::MclParams params;
  params.prune.select_k = 25;

  sim::SimState s1(sim::summit_like(4));
  core::HipMclConfig roomy = core::HipMclConfig::optimized();
  const auto r1 = core::run_hipmcl(g.edges, params, roomy, s1);

  sim::SimState s2(sim::summit_like(4));
  core::HipMclConfig tight = core::HipMclConfig::optimized();
  tight.mem_budget_per_rank = 20 * 1024;  // ~20 KB per rank
  const auto r2 = core::run_hipmcl(g.edges, params, tight, s2);

  EXPECT_EQ(r1.iters.front().phases, 1);
  EXPECT_GT(r2.iters.front().phases, 1);
  // Phasing must not change the answer.
  EXPECT_EQ(r1.labels, r2.labels);
}

TEST(HipMcl, ExactAndProbabilisticEstimatorsAgreeOnClusters) {
  gen::PlantedParams gp;
  gp.n = 200;
  gp.seed = 10;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;

  sim::SimState s1(sim::summit_like(4));
  core::HipMclConfig exact = core::HipMclConfig::optimized();
  exact.estimator = core::EstimatorKind::kExactSymbolic;
  const auto r1 = core::run_hipmcl(g.edges, params, exact, s1);

  sim::SimState s2(sim::summit_like(4));
  const auto r2 = core::run_hipmcl(g.edges, params,
                                   core::HipMclConfig::optimized(), s2);
  EXPECT_EQ(r1.labels, r2.labels);
}

TEST(HipMcl, DisconnectedInputYieldsSeparateClusters) {
  // Two cliques with no path between them can never merge.
  T t(8, 8);
  auto clique = [&](vidx_t lo, vidx_t hi) {
    for (vidx_t u = lo; u < hi; ++u) {
      for (vidx_t v = u + 1; v < hi; ++v) {
        t.push(u, v, 1.0);
        t.push(v, u, 1.0);
      }
    }
  };
  clique(0, 4);
  clique(4, 8);
  t.sort_and_combine();
  sim::SimState sim(sim::summit_like(1));
  const auto result =
      core::run_hipmcl(t, {}, core::HipMclConfig::optimized(), sim);
  EXPECT_EQ(result.num_clusters, 2);
  EXPECT_EQ(result.labels[0], result.labels[3]);
  EXPECT_EQ(result.labels[4], result.labels[7]);
  EXPECT_NE(result.labels[0], result.labels[4]);
}

TEST(HipMcl, RejectsBadInputs) {
  sim::SimState sim(sim::summit_like(1));
  const T rect(3, 4);
  EXPECT_THROW(core::run_hipmcl(rect, {}, {}, sim), std::invalid_argument);
  T square(3, 3);
  core::MclParams params;
  params.inflation = 1.0;
  EXPECT_THROW(core::run_hipmcl(square, params, {}, sim),
               std::invalid_argument);

  // Bad prune and inflation parameters get an error naming the field.
  const auto expect_rejected = [&](const char* field, auto set) {
    core::MclParams bad;
    set(bad);
    try {
      core::run_hipmcl(square, bad, {}, sim);
      ADD_FAILURE() << "expected std::invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const val_t nan = std::numeric_limits<val_t>::quiet_NaN();
  const val_t inf = std::numeric_limits<val_t>::infinity();
  expect_rejected("inflation", [&](core::MclParams& b) { b.inflation = nan; });
  expect_rejected("inflation", [&](core::MclParams& b) { b.inflation = inf; });
  expect_rejected("select_k", [](core::MclParams& b) { b.prune.select_k = 0; });
  expect_rejected("select_k",
                  [](core::MclParams& b) { b.prune.select_k = -1; });
  expect_rejected("cutoff", [&](core::MclParams& b) { b.prune.cutoff = nan; });
  expect_rejected("cutoff", [&](core::MclParams& b) { b.prune.cutoff = inf; });
  expect_rejected("cutoff", [](core::MclParams& b) { b.prune.cutoff = -0.1; });
  expect_rejected("recover_num",
                  [](core::MclParams& b) { b.prune.recover_num = -1; });
}

/// A small symmetric graph with one edge weight replaced by `bad`.
T graph_with_weight(val_t bad) {
  T t(6, 6);
  for (vidx_t u = 0; u < 6; ++u) {
    t.push(u, (u + 1) % 6, 1.0);
    t.push((u + 1) % 6, u, 1.0);
  }
  t.push(2, 4, bad);
  t.sort_and_combine();
  return t;
}

void expect_rejected_weight(val_t bad, const std::string& kind) {
  sim::SimState sim(sim::summit_like(1));
  try {
    core::run_hipmcl(graph_with_weight(bad), {}, {}, sim);
    FAIL() << "expected std::invalid_argument for a " << kind << " weight";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(kind + " weight"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(2, 4)"), std::string::npos)
        << e.what();
  }
}

TEST(HipMcl, RejectsNanWeight) {
  expect_rejected_weight(std::nan(""), "NaN");
}

TEST(HipMcl, RejectsPositiveInfiniteWeight) {
  expect_rejected_weight(std::numeric_limits<val_t>::infinity(), "infinite");
}

TEST(HipMcl, RejectsNegativeInfiniteWeight) {
  expect_rejected_weight(-std::numeric_limits<val_t>::infinity(),
                         "infinite");
}

TEST(HipMcl, RejectsNegativeWeight) {
  expect_rejected_weight(-0.5, "negative");
}

TEST(HipMcl, ZeroWeightIsLegal) {
  sim::SimState sim(sim::summit_like(1));
  const auto r = core::run_hipmcl(graph_with_weight(0.0), {}, {}, sim);
  EXPECT_EQ(r.labels.size(), 6u);
}

TEST(HipMcl, GpuIdleLowerThanCpuIdleOnDenseGraphs) {
  // Table V's observation: on compute-intensive (dense, high-cf) networks
  // the CPU waits for the GPU more than vice versa.
  gen::PlantedParams gp;
  gp.n = 1000;
  gp.p_in = 0.7;
  gp.mean_family = 60;
  gp.seed = 11;
  const auto g = gen::planted_partition(gp);
  sim::SimState sim(sim::summit_like(16));
  core::MclParams params;
  params.prune.select_k = 100;
  const auto result = core::run_hipmcl(
      g.edges, params, core::HipMclConfig::optimized(), sim);
  EXPECT_GT(result.mean_cpu_idle, result.mean_gpu_idle);
}

TEST(Interpret, ClustersFromLabels) {
  const std::vector<vidx_t> labels = {0, 1, 0, 2, 1};
  const auto clusters = core::clusters_from_labels(labels);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<vidx_t>{0, 2}));
  EXPECT_EQ(clusters[1], (std::vector<vidx_t>{1, 4}));
  EXPECT_EQ(clusters[2], (std::vector<vidx_t>{3}));
}

TEST(Interpret, SummaryCounts) {
  const std::vector<vidx_t> labels = {0, 0, 0, 1, 2};
  const auto s = core::summarize_clusters(labels);
  EXPECT_EQ(s.num_clusters, 3);
  EXPECT_EQ(s.largest, 3);
  EXPECT_EQ(s.singletons, 2);
  EXPECT_NEAR(s.mean_size, 5.0 / 3.0, 1e-12);
}

TEST(Interpret, DescribeMentionsCounts) {
  const std::string d = core::describe_clusters({0, 0, 1});
  EXPECT_NE(d.find("2 clusters"), std::string::npos);
}

TEST(Interpret, NegativeLabelRejected) {
  EXPECT_THROW(core::clusters_from_labels({0, -1}), std::invalid_argument);
}

}  // namespace
