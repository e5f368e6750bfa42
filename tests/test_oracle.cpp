// Differential oracle: a dense MCL written from the definitions — self
// loops, column normalization, the square, the |v| >= cutoff prune,
// inflation, chaos with run_hipmcl's convergence rule, and connected
// components — sharing no code with sparse/, spgemm/, merge/ or dist/.
// run_hipmcl must find the same partition, up to renaming, under every
// configuration, grid, phase count and pool width. select_k
// covers every column and recovery is off, so the prune is a threshold
// on both sides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/hipmcl.hpp"
#include "gen/er.hpp"
#include "gen/planted.hpp"
#include "sim/machine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace mclx;

struct PoolGuard {
  ~PoolGuard() { par::set_threads(0); }
};

// ---------------------------------------------------------------------------
// The oracle. Column-major n×n: m[j * n + i] is entry (i, j).

using Dense = std::vector<double>;

void normalize_columns(Dense& m, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) sum += m[j * n + i];
    if (sum == 0) continue;
    for (std::size_t i = 0; i < n; ++i) m[j * n + i] /= sum;
  }
}

std::size_t count_nonzeros(const Dense& m) {
  return static_cast<std::size_t>(
      std::count_if(m.begin(), m.end(), [](double v) { return v != 0; }));
}

std::vector<vidx_t> components(const Dense& m, std::size_t n) {
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (m[j * n + i] != 0) parent[find(i)] = find(j);
    }
  }
  std::vector<vidx_t> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<vidx_t>(find(v));
  }
  return labels;
}

std::vector<vidx_t> dense_mcl(const sparse::Triples<vidx_t, val_t>& graph,
                              const core::MclParams& p) {
  const auto n = static_cast<std::size_t>(graph.nrows());
  Dense m(n * n, 0.0);
  for (const auto& e : graph.data()) {
    const auto i = static_cast<std::size_t>(e.row);
    const auto j = static_cast<std::size_t>(e.col);
    m[j * n + i] += e.val;
  }
  if (p.add_self_loops) {
    for (std::size_t v = 0; v < n; ++v) m[v * n + v] += 1.0;
  }
  normalize_columns(m, n);

  double prev_chaos = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < p.max_iters; ++iter) {
    const std::size_t nnz_before = count_nonzeros(m);
    Dense sq(n * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        const double b = m[j * n + k];
        if (b == 0) continue;
        for (std::size_t i = 0; i < n; ++i) {
          sq[j * n + i] += m[k * n + i] * b;
        }
      }
    }
    for (double& v : sq) {
      if (std::abs(v) < p.prune.cutoff) v = 0;
    }
    const std::size_t nnz_after = count_nonzeros(sq);
    for (double& v : sq) v = std::pow(v, p.inflation);
    normalize_columns(sq, n);
    m = std::move(sq);

    double chaos = 0;
    for (std::size_t j = 0; j < n; ++j) {
      double mx = 0, sumsq = 0;
      for (std::size_t i = 0; i < n; ++i) {
        mx = std::max(mx, m[j * n + i]);
        sumsq += m[j * n + i] * m[j * n + i];
      }
      chaos = std::max(chaos, mx - sumsq);
    }
    if (chaos < p.chaos_eps ||
        (chaos == prev_chaos && nnz_after == nnz_before)) {
      break;
    }
    prev_chaos = chaos;
  }
  return components(m, n);
}

/// Same partition up to renaming: the label maps are bijective.
bool same_partition(const std::vector<vidx_t>& a,
                    const std::vector<vidx_t>& b) {
  if (a.size() != b.size()) return false;
  std::map<vidx_t, vidx_t> ab, ba;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (ab.emplace(a[v], b[v]).first->second != b[v]) return false;
    if (ba.emplace(b[v], a[v]).first->second != a[v]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The differential matrix.

struct OracleGraph {
  std::string name;
  sparse::Triples<vidx_t, val_t> edges;
};

OracleGraph planted(vidx_t n, std::uint64_t seed) {
  gen::PlantedParams gp;
  gp.n = n;
  gp.seed = seed;
  gp.mean_family = 8.0;
  gp.max_family = 20;
  return {"planted" + std::to_string(n), gen::planted_partition(gp).edges};
}

OracleGraph erdos_renyi(vidx_t n, double avg_degree, std::uint64_t seed) {
  gen::ErParams ep;
  ep.n = n;
  ep.avg_degree = avg_degree;
  ep.seed = seed;
  return {"er" + std::to_string(n), gen::erdos_renyi(ep)};
}

class DenseOracle : public testing::TestWithParam<int> {};

OracleGraph oracle_graph(int which) {
  switch (which) {
    case 0: return planted(64, 3);
    case 1: return planted(50, 8);
    case 2: return erdos_renyi(64, 3.0, 5);
    default: return erdos_renyi(40, 2.0, 9);
  }
}

TEST_P(DenseOracle, EveryConfigurationFindsTheOraclePartition) {
  PoolGuard guard;
  const OracleGraph g = oracle_graph(GetParam());
  core::MclParams params;
  params.prune.select_k = static_cast<int>(g.edges.nrows());
  params.prune.recover_num = 0;
  const std::vector<vidx_t> want = dense_mcl(g.edges, params);

  for (const int threads : {1, 4}) {
    par::set_threads(threads);
    for (const int nodes : {1, 4, 16, 36}) {
      for (const bytes_t budget : {bytes_t{0}, bytes_t{256}}) {
        int phases_max = 0;
        for (core::HipMclConfig config :
             {core::HipMclConfig::original(),
              core::HipMclConfig::optimized_no_overlap(),
              core::HipMclConfig::optimized()}) {
          config.mem_budget_per_rank = budget;
          const bool gpus =
              config.kernel.fixed != spgemm::KernelKind::kCpuHeap;
          sim::SimState sim(gpus ? sim::summit_like(nodes)
                                 : sim::summit_like_cpu_only(nodes));
          const core::MclResult got =
              core::run_hipmcl(g.edges, params, config, sim);
          for (const auto& it : got.iters) {
            phases_max = std::max(phases_max, it.phases);
          }
          EXPECT_TRUE(got.converged);
          EXPECT_TRUE(same_partition(got.labels, want))
              << g.name << ": " << threads << " threads, " << nodes
              << " nodes, budget " << budget << ", "
              << (gpus ? (config.pipelined ? "optimized" : "no-overlap")
                       : "original");
        }
        if (budget == 0) {
          EXPECT_EQ(phases_max, 1) << g.name << " on " << nodes << " nodes";
        } else {
          EXPECT_GE(phases_max, 3) << g.name << " on " << nodes << " nodes";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, DenseOracle, testing::Values(0, 1, 2, 3),
                         [](const testing::TestParamInfo<int>& info) {
                           return oracle_graph(info.param).name;
                         });

}  // namespace
