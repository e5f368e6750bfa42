#include "dist/cc.hpp"

#include <numeric>
#include <stdexcept>

#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"

namespace mclx::dist {

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), vidx_t{0});
  }

  vidx_t find(vidx_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      // Path halving.
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void unite(vidx_t a, vidx_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Union by smaller root id keeps labels deterministic.
    if (a < b) {
      parent_[static_cast<std::size_t>(b)] = a;
    } else {
      parent_[static_cast<std::size_t>(a)] = b;
    }
  }

 private:
  std::vector<vidx_t> parent_;
};

}  // namespace

ComponentsResult connected_components(const DistMat& m, sim::SimState& sim) {
  if (m.nrows() != m.ncols())
    throw std::invalid_argument("connected_components: matrix not square");
  const auto n = static_cast<std::size_t>(m.nrows());

  // Union by smaller root, then labels numbered by vertex: the labels do
  // not depend on the order of the unions.
  UnionFind uf(n);
  const CscD& g = m.to_csc();
  for (vidx_t col = 0; col < g.ncols(); ++col) {
    for (const vidx_t row : g.col_rows(col)) uf.unite(row, col);
  }

  ComponentsResult out;
  out.labels.assign(n, vidx_t{-1});
  for (std::size_t v = 0; v < n; ++v) {
    const vidx_t root = uf.find(static_cast<vidx_t>(v));
    if (out.labels[static_cast<std::size_t>(root)] < 0) {
      out.labels[static_cast<std::size_t>(root)] = out.num_components++;
    }
    out.labels[v] = out.labels[static_cast<std::size_t>(root)];
  }

  // Charge: edge gather within the whole job plus the union-find pass.
  const sim::CostModel model(sim.machine());
  std::vector<int> all(static_cast<std::size_t>(sim.nranks()));
  std::iota(all.begin(), all.end(), 0);
  const bytes_t per_rank =
      m.nnz() / static_cast<std::uint64_t>(sim.nranks()) *
      (2 * sizeof(vidx_t));
  sim::sim_allgather(sim, all, per_rank, sim::Stage::kOther);
  for (int r = 0; r < sim.nranks(); ++r) {
    sim.rank(r).cpu_run(sim::Stage::kOther,
                        model.other(m.nnz() + static_cast<std::uint64_t>(n)));
  }
  return out;
}

}  // namespace mclx::dist
