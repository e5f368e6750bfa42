#include "dist/summa3d.hpp"

#include <algorithm>
#include <stdexcept>

#include "merge/binary.hpp"
#include "merge/kway.hpp"
#include "obs/metrics.hpp"
#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"

namespace mclx::dist {

namespace {

using sim::Stage;

/// Global rank of layer l's (i,j) position.
int rank3d(const ProcGrid& grid, int layer, int i, int j) {
  return layer * grid.nranks() + grid.rank_of(i, j);
}

/// The contiguous stage range layer l owns out of d stages.
std::pair<int, int> layer_stages(int d, int layer, int layers) {
  const int per = (d + layers - 1) / layers;
  const int k0 = std::min(layer * per, d);
  const int k1 = std::min(k0 + per, d);
  return {k0, k1};
}

}  // namespace

Summa3dResult summa3d_multiply(const DistMat& a, const DistMat& b,
                               sim::SimState& sim,
                               const Summa3dOptions& opt) {
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("summa3d: inner dimension mismatch");
  if (a.dim() != b.dim())
    throw std::invalid_argument("summa3d: grid dimension mismatch");
  if (opt.layers < 1) throw std::invalid_argument("summa3d: layers < 1");
  if (sim.nranks() != a.grid().nranks() * opt.layers) {
    throw std::invalid_argument(
        "summa3d: simulator must hold grid-ranks * layers ranks");
  }

  const ProcGrid& grid = a.grid();
  const int d = grid.dim();
  const int c = opt.layers;
  const sim::CostModel model(sim.machine());

  // Per 3D-rank multipliers.
  std::vector<spgemm::LocalMultiplier> mults;
  mults.reserve(static_cast<std::size_t>(sim.nranks()));
  for (int r = 0; r < sim.nranks(); ++r) mults.emplace_back(model, opt.kernel);

  // Snapshot counters.
  struct Before {
    sim::StageTimes stages{};
    vtime_t cpu_idle = 0, gpu_idle = 0;
  };
  std::vector<Before> before(static_cast<std::size_t>(sim.nranks()));
  for (int r = 0; r < sim.nranks(); ++r) {
    before[static_cast<std::size_t>(r)] = {sim.rank(r).stage_times(),
                                           sim.rank(r).cpu_idle(),
                                           sim.rank(r).gpu_idle()};
  }
  sim.barrier();
  for (int r = 0; r < sim.nranks(); ++r) {
    sim.rank(r).gpu_skew_to(sim.rank(r).cpu_now());
  }
  const vtime_t elapsed_before = sim.elapsed();

  Summa3dResult result{DistMat(a.nrows(), b.ncols(), grid), {}, 0, 0};
  SummaStats& stats = result.stats;

  // --- operand replication across layers --------------------------------
  if (opt.charge_replication && c > 1) {
    const vtime_t rep_start = sim.elapsed();
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        std::vector<int> layer_group;
        layer_group.reserve(static_cast<std::size_t>(c));
        for (int l = 0; l < c; ++l) layer_group.push_back(rank3d(grid, l, i, j));
        sim::sim_bcast(sim, layer_group,
                       a.block_bytes(i, j) + b.block_bytes(i, j),
                       Stage::kOther);
      }
    }
    result.replication_time = sim.elapsed() - rep_start;
  }

  // --- per-layer partial SUMMA -------------------------------------------
  // partial[l][rank2d] = layer l's partial C block for grid position.
  std::vector<std::vector<CscD>> partial(
      static_cast<std::size_t>(c),
      std::vector<CscD>(static_cast<std::size_t>(grid.nranks())));

  for (int l = 0; l < c; ++l) {
    const auto [k0, k1] = layer_stages(d, l, c);
    std::vector<merge::BinaryMerger<vidx_t, val_t>> mergers(
        static_cast<std::size_t>(grid.nranks()));
    std::vector<vtime_t> result_ready(static_cast<std::size_t>(grid.nranks()),
                                      0);

    for (int k = k0; k < k1; ++k) {
      std::vector<CscD> a_csc(static_cast<std::size_t>(d));
      std::vector<CscD> b_csc(static_cast<std::size_t>(d));
      for (int i = 0; i < d; ++i) {
        a_csc[static_cast<std::size_t>(i)] =
            sparse::csc_from_dcsc(a.block(i, k));
      }
      for (int j = 0; j < d; ++j) {
        b_csc[static_cast<std::size_t>(j)] =
            sparse::csc_from_dcsc(b.block(k, j));
      }

      // Broadcasts within this layer's rows/columns only.
      for (int i = 0; i < d; ++i) {
        std::vector<int> group;
        for (int j = 0; j < d; ++j) group.push_back(rank3d(grid, l, i, j));
        sim::sim_bcast(sim, group, a.block_bytes(i, k), Stage::kSummaBcast);
      }
      for (int j = 0; j < d; ++j) {
        std::vector<int> group;
        for (int i = 0; i < d; ++i) group.push_back(rank3d(grid, l, i, j));
        sim::sim_bcast(sim, group, b.block_bytes(k, j), Stage::kSummaBcast);
      }

      for (int i = 0; i < d; ++i) {
        for (int j = 0; j < d; ++j) {
          const int r3 = rank3d(grid, l, i, j);
          const int r2 = grid.rank_of(i, j);
          auto& tl = sim.rank(r3);
          tl.cpu_run(Stage::kOther,
                     model.other(static_cast<std::uint64_t>(
                         a_csc[static_cast<std::size_t>(i)].ncols() +
                         b_csc[static_cast<std::size_t>(j)].ncols())));

          spgemm::LocalSpgemmResult lr =
              mults[static_cast<std::size_t>(r3)].multiply(
                  a_csc[static_cast<std::size_t>(i)],
                  b_csc[static_cast<std::size_t>(j)], opt.cf_estimate);
          stats.total_flops += lr.flops;
          if (lr.gpu_fallback) ++stats.gpu_fallbacks;

          if (lr.device_cost.kernel > 0) {
            tl.cpu_run(Stage::kLocalSpGEMM, lr.device_cost.h2d);
            const vtime_t done = tl.gpu_run(Stage::kLocalSpGEMM,
                                            lr.device_cost.kernel,
                                            tl.cpu_now());
            result_ready[static_cast<std::size_t>(r2)] = tl.gpu_run(
                Stage::kLocalSpGEMM, lr.device_cost.d2h, done);
          } else {
            tl.cpu_run(Stage::kLocalSpGEMM, lr.cpu_time);
            result_ready[static_cast<std::size_t>(r2)] = tl.cpu_now();
          }

          auto outcome =
              mergers[static_cast<std::size_t>(r2)].push(std::move(lr.c));
          if (outcome.merged) {
            tl.cpu_wait_until(result_ready[static_cast<std::size_t>(r2)]);
            tl.cpu_run(Stage::kMerge,
                       model.merge(outcome.elements, outcome.ways));
          }
        }
      }
    }

    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        const int r2 = grid.rank_of(i, j);
        const int r3 = rank3d(grid, l, i, j);
        auto& tl = sim.rank(r3);
        auto [chunk, outcome] =
            mergers[static_cast<std::size_t>(r2)].finalize();
        tl.cpu_wait_until(result_ready[static_cast<std::size_t>(r2)]);
        if (outcome.merged) {
          tl.cpu_run(Stage::kMerge,
                     model.merge(outcome.elements, outcome.ways));
        }
        stats.merge_peak_elements_max =
            std::max(stats.merge_peak_elements_max,
                     mergers[static_cast<std::size_t>(r2)].stats().peak_elements);
        stats.merge_peak_elements_sum +=
            mergers[static_cast<std::size_t>(r2)].stats().peak_elements;
        tl.join();
        // Empty stage ranges (layers > stages) produce a default 0x0
        // block; normalize its shape so the reduction can merge.
        if (chunk.nrows() == 0 && chunk.ncols() == 0) {
          chunk = CscD(a.block_rows(i), b.block_cols(j));
        }
        partial[static_cast<std::size_t>(l)][static_cast<std::size_t>(r2)] =
            std::move(chunk);
      }
    }
  }

  // --- inter-layer reduction ---------------------------------------------
  const vtime_t red_start = sim.elapsed();
  std::vector<CscD> blocks(static_cast<std::size_t>(grid.nranks()));
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) {
      const int r2 = grid.rank_of(i, j);
      std::vector<const CscD*> parts;
      std::uint64_t total_elems = 0;
      bytes_t max_bytes = 0;
      for (int l = 0; l < c; ++l) {
        const CscD& p =
            partial[static_cast<std::size_t>(l)][static_cast<std::size_t>(r2)];
        parts.push_back(&p);
        total_elems += p.nnz();
        max_bytes = std::max(max_bytes, p.bytes());
      }
      CscD merged = merge::kway_merge<vidx_t, val_t>(parts);

      if (c > 1) {
        std::vector<int> layer_group;
        for (int l = 0; l < c; ++l) layer_group.push_back(rank3d(grid, l, i, j));
        // Reduce across layers: lg(c) rounds of partial-block exchange.
        // Charged to Other (it is new 3D machinery, not a SUMMA operand
        // broadcast); reduction_time reports it separately.
        sim::sim_allreduce(sim, layer_group, max_bytes, Stage::kOther);
        for (const int r : layer_group) {
          sim.rank(r).cpu_run(Stage::kMerge, model.merge(total_elems, c));
        }
      }
      sim.rank(rank3d(grid, 0, i, j))
          .cpu_run(Stage::kOther, model.other(merged.nnz()));
      blocks[static_cast<std::size_t>(r2)] = std::move(merged);
    }
  }
  result.c = DistMat::from_blocks(a.nrows(), b.ncols(), grid, blocks);
  result.reduction_time = sim.elapsed() - red_start;

  // --- stats ---------------------------------------------------------------
  for (int r = 0; r < sim.nranks(); ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const auto& now = sim.rank(r).stage_times();
    auto delta = [&](Stage s) {
      return now[static_cast<std::size_t>(s)] -
             before[ri].stages[static_cast<std::size_t>(s)];
    };
    stats.spgemm_time = std::max(stats.spgemm_time, delta(Stage::kLocalSpGEMM));
    stats.bcast_time = std::max(stats.bcast_time, delta(Stage::kSummaBcast));
    stats.merge_time = std::max(stats.merge_time, delta(Stage::kMerge));
    stats.other_time = std::max(stats.other_time, delta(Stage::kOther));
    stats.cpu_idle += sim.rank(r).cpu_idle() - before[ri].cpu_idle;
    stats.gpu_idle += sim.rank(r).gpu_idle() - before[ri].gpu_idle;
  }
  stats.cpu_idle /= static_cast<double>(sim.nranks());
  stats.gpu_idle /= static_cast<double>(sim.nranks());
  stats.elapsed = sim.elapsed() - elapsed_before;

  if (obs::context().metrics) {
    obs::count("summa3d.calls");
    obs::count("summa3d.layers", static_cast<std::uint64_t>(c));
    obs::record("summa3d.replication_s", result.replication_time);
    obs::record("summa3d.reduction_s", result.reduction_time);
    obs::record("summa3d.spgemm_s", stats.spgemm_time);
    obs::record("summa3d.bcast_s", stats.bcast_time);
    obs::record("summa3d.merge_s", stats.merge_time);
    obs::record("summa3d.overall_s", stats.elapsed);
  }
  return result;
}

}  // namespace mclx::dist
