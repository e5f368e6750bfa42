#include "dist/summa.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "merge/binary.hpp"
#include "merge/multiway.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "sim/collectives.hpp"
#include "sim/costmodel.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"

namespace mclx::dist {

namespace {

using sim::Stage;

/// Virtual cost of decompressing a received DCSC block to CSC (§III-B's
/// column-pointer decompression): only the column-pointer array is built;
/// the index/value arrays carry over untouched, so the cost is O(ncols),
/// independent of nnz — that is exactly why the paper skips the full
/// format conversion.
vtime_t conversion_cost(const sim::CostModel& model, std::uint64_t ncols) {
  return model.other(ncols);
}

struct RankDelta {
  sim::StageTimes before{};
  vtime_t cpu_idle_before = 0;
  vtime_t gpu_idle_before = 0;
};

}  // namespace

std::pair<vidx_t, vidx_t> phase_col_range(vidx_t block_cols, int phase,
                                          int phases) {
  if (phases <= 0) throw std::invalid_argument("phase_col_range: phases <= 0");
  const vidx_t per = (block_cols + phases - 1) / phases;
  const vidx_t c0 = std::min<vidx_t>(static_cast<vidx_t>(phase) * per,
                                     block_cols);
  const vidx_t c1 = std::min<vidx_t>(c0 + per, block_cols);
  return {c0, c1};
}

SummaResult summa_multiply(const DistMat& a, const DistMat& b,
                           sim::SimState& sim, const SummaOptions& opt,
                           const PhaseSink& sink) {
  if (a.ncols() != b.nrows())
    throw std::invalid_argument("summa: inner dimension mismatch");
  if (a.dim() != b.dim())
    throw std::invalid_argument("summa: grid dimension mismatch");
  if (sim.nranks() != a.grid().nranks())
    throw std::invalid_argument("summa: simulator rank count mismatch");
  if (opt.phases <= 0) throw std::invalid_argument("summa: phases <= 0");

  const int dim = a.dim();
  const int nranks = sim.nranks();
  const sim::CostModel model(sim.machine());

  // Per-rank multipliers (each owns that rank's simulated devices).
  std::vector<spgemm::LocalMultiplier> mults;
  mults.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) mults.emplace_back(model, opt.kernel);

  // Snapshot per-rank counters so stats reflect only this call.
  std::vector<RankDelta> deltas(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    deltas[static_cast<std::size_t>(r)].before = sim.rank(r).stage_times();
    deltas[static_cast<std::size_t>(r)].cpu_idle_before = sim.rank(r).cpu_idle();
    deltas[static_cast<std::size_t>(r)].gpu_idle_before = sim.rank(r).gpu_idle();
  }
  const vtime_t elapsed_before = sim.elapsed();

  // HipMCL is bulk-synchronous between major algorithmic steps: expansion
  // starts together. The barrier absorbs skew from the preceding stages
  // (unattributed), and aligning each device clock to its host keeps the
  // GPUs' out-of-expansion quiet time from polluting the pipelined-SUMMA
  // idle accounting of Table V.
  sim.barrier();
  for (int r = 0; r < nranks; ++r) {
    sim.rank(r).gpu_skew_to(sim.rank(r).cpu_now());
  }

  SummaResult result{DistMat(a.nrows(), b.ncols(), a.grid()), {}};
  SummaStats& stats = result.stats;

  // Per-rank chunk storage across phases; per-rank running peak elements.
  std::vector<std::vector<CscD>> rank_phase_chunks(
      static_cast<std::size_t>(nranks));
  std::vector<std::uint64_t> rank_peak(static_cast<std::size_t>(nranks), 0);
  std::uint64_t unpruned_bytes = 0;

  for (int phase = 0; phase < opt.phases; ++phase) {
    if (phase > 0) {
      sim.barrier();
      for (int r = 0; r < nranks; ++r) {
        sim.rank(r).gpu_skew_to(sim.rank(r).cpu_now());
      }
    }
    // Fresh mergers each phase. Per-rank ledger tracks mirror each
    // merger's resident elements as bytes: the simulation visits ranks
    // sequentially, so a shared label would conflate ranks, while
    // per-rank labels let prefix_high_water_max("merge.resident.")
    // re-derive merge_peak_elements_max independently.
    std::vector<merge::BinaryMerger<vidx_t, val_t>> bmergers;
    std::vector<merge::MultiwayMerger<vidx_t, val_t>> mmergers;
    if (opt.binary_merge) {
      bmergers.resize(static_cast<std::size_t>(nranks));
    } else {
      mmergers.resize(static_cast<std::size_t>(nranks));
    }
    if (obs::MemLedger* ml = obs::context().ledger) {
      constexpr std::uint64_t kBytesPerElem = sizeof(vidx_t) + sizeof(val_t);
      for (int r = 0; r < nranks; ++r) {
        obs::MemTracker tracker(ml, "merge.resident.r" + std::to_string(r),
                                kBytesPerElem);
        if (opt.binary_merge) {
          bmergers[static_cast<std::size_t>(r)].set_mem_tracker(
              std::move(tracker));
        } else {
          mmergers[static_cast<std::size_t>(r)].set_mem_tracker(
              std::move(tracker));
        }
      }
    }
    std::vector<vtime_t> result_ready(static_cast<std::size_t>(nranks), 0);

    // Deferred merge work, per rank: a merge triggered by stage k's push
    // executes only after stage k+1's device work has been issued, so the
    // CPU folds partial products while the GPU multiplies — the Fig 2
    // pipeline. `ready` is the virtual time the merge inputs exist.
    struct PendingMerge {
      bool armed = false;
      std::uint64_t elements = 0;
      int ways = 0;
      vtime_t ready = 0;
    };
    std::vector<PendingMerge> pending(static_cast<std::size_t>(nranks));
    auto flush_pending = [&](int r) {
      auto& p = pending[static_cast<std::size_t>(r)];
      if (!p.armed) return;
      auto& tl = sim.rank(r);
      tl.cpu_wait_until(p.ready);
      tl.cpu_run(Stage::kMerge, model.merge(p.elements, p.ways));
      p.armed = false;
    };

    for (int k = 0; k < dim; ++k) {
      // Decompress this stage's operand blocks once (real work); every
      // receiving rank is charged its own conversion below.
      std::vector<CscD> a_csc(static_cast<std::size_t>(dim));
      std::vector<CscD> b_chunk(static_cast<std::size_t>(dim));
      for (int i = 0; i < dim; ++i) {
        a_csc[static_cast<std::size_t>(i)] =
            sparse::csc_from_dcsc(a.block(i, k));
      }
      for (int j = 0; j < dim; ++j) {
        const CscD full = sparse::csc_from_dcsc(b.block(k, j));
        const auto [c0, c1] = phase_col_range(full.ncols(), phase, opt.phases);
        b_chunk[static_cast<std::size_t>(j)] =
            sparse::csc_col_slice(full, c0, c1);
      }
      std::uint64_t staging_bytes = 0;
      for (const CscD& m : a_csc) staging_bytes += m.bytes();
      for (const CscD& m : b_chunk) staging_bytes += m.bytes();
      obs::MemScope staging_mem("summa.staging", staging_bytes);

      // Row broadcasts of A(i,k); column broadcasts of B(k,j)'s chunk.
      for (int i = 0; i < dim; ++i) {
        const auto group = a.grid().row_ranks(i);
        const bytes_t bytes = a.block(i, k).bytes();
        obs::record("summa.bcast_bytes", static_cast<double>(bytes));
        obs::MemScope payload_mem("summa.bcast_payload", bytes);
        sim::sim_bcast(sim, group, bytes, Stage::kSummaBcast);
      }
      for (int j = 0; j < dim; ++j) {
        const auto group = a.grid().col_ranks(j);
        const bytes_t bytes = b_chunk[static_cast<std::size_t>(j)].bytes();
        obs::record("summa.bcast_bytes", static_cast<double>(bytes));
        obs::MemScope payload_mem("summa.bcast_payload", bytes);
        sim::sim_bcast(sim, group, bytes, Stage::kSummaBcast);
      }

      // Local multiplies.
      for (int i = 0; i < dim; ++i) {
        for (int j = 0; j < dim; ++j) {
          const int r = a.grid().rank_of(i, j);
          auto& tl = sim.rank(r);
          const CscD& ablk = a_csc[static_cast<std::size_t>(i)];
          const CscD& bblk = b_chunk[static_cast<std::size_t>(j)];

          tl.cpu_run(Stage::kOther,
                     conversion_cost(model, static_cast<std::uint64_t>(
                                                ablk.ncols() + bblk.ncols())));

          spgemm::LocalSpgemmResult lr =
              mults[static_cast<std::size_t>(r)].multiply(ablk, bblk,
                                                          opt.cf_estimate);
          stats.total_flops += lr.flops;
          if (lr.gpu_fallback) ++stats.gpu_fallbacks;

          if (lr.device_cost.kernel > 0) {
            // GPU path: host blocks on the H2D transfer only.
            tl.cpu_run(Stage::kLocalSpGEMM, lr.device_cost.h2d);
            const vtime_t kernel_done = tl.gpu_run(
                Stage::kLocalSpGEMM, lr.device_cost.kernel, tl.cpu_now());
            const vtime_t out_ready = tl.gpu_run(
                Stage::kLocalSpGEMM, lr.device_cost.d2h, kernel_done);
            result_ready[static_cast<std::size_t>(r)] = out_ready;
            if (!opt.pipelined) tl.cpu_wait_until(out_ready);
          } else {
            tl.cpu_run(Stage::kLocalSpGEMM, lr.cpu_time);
            result_ready[static_cast<std::size_t>(r)] = tl.cpu_now();
          }

          // Now that this stage's device work is issued, the CPU is free
          // to execute the merge the *previous* stage armed (its inputs
          // are ready: device work completes in stage order).
          flush_pending(r);

          if (opt.binary_merge) {
            auto outcome =
                bmergers[static_cast<std::size_t>(r)].push(std::move(lr.c));
            if (outcome.merged) {
              auto& p = pending[static_cast<std::size_t>(r)];
              p.armed = true;
              p.elements = outcome.elements;
              p.ways = outcome.ways;
              p.ready = result_ready[static_cast<std::size_t>(r)];
            }
          } else {
            mmergers[static_cast<std::size_t>(r)].push(std::move(lr.c));
          }
        }
      }
    }

    // Finalize mergers; collect this phase's chunks.
    std::vector<CscD> chunks(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      auto& tl = sim.rank(r);
      const auto ri = static_cast<std::size_t>(r);
      if (opt.binary_merge) {
        flush_pending(r);  // any merge still armed from the last stage
        auto [chunk, outcome] = bmergers[ri].finalize();
        tl.cpu_wait_until(result_ready[ri]);
        if (outcome.merged) {
          tl.cpu_run(Stage::kMerge,
                     model.merge(outcome.elements, outcome.ways));
        }
        rank_peak[ri] = std::max(rank_peak[ri],
                                 bmergers[ri].stats().peak_elements);
        chunks[ri] = std::move(chunk);
      } else {
        tl.cpu_wait_until(result_ready[ri]);
        CscD chunk = mmergers[ri].finalize();
        const auto& ev = mmergers[ri].stats().events;
        if (!ev.empty()) {
          tl.cpu_run(Stage::kMerge,
                     model.merge(ev.back().elements, ev.back().ways));
        }
        rank_peak[ri] = std::max(rank_peak[ri],
                                 mmergers[ri].stats().peak_elements);
        chunks[ri] = std::move(chunk);
      }
      tl.join();
    }

    // Measure the unpruned product before the sink mutates the chunks:
    // summed over ranks and phases this is exactly nnz(A·B), the actual
    // the estimator audit joins against Cohen's prediction.
    for (const CscD& chunk : chunks) {
      stats.unpruned_nnz += chunk.nnz();
      unpruned_bytes += chunk.bytes();
    }

    if (sink) {
      const vtime_t sink_start = sim.elapsed();
      sink(phase, chunks);
      stats.sink_time += sim.elapsed() - sink_start;
    }

    for (int r = 0; r < nranks; ++r) {
      rank_phase_chunks[static_cast<std::size_t>(r)].push_back(
          std::move(chunks[static_cast<std::size_t>(r)]));
    }
  }

  // Assemble each rank's block from its phase chunks.
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      const int r = a.grid().rank_of(i, j);
      const auto ri = static_cast<std::size_t>(r);
      CscD block = opt.phases == 1
                       ? std::move(rank_phase_chunks[ri].front())
                       : sparse::csc_hcat(rank_phase_chunks[ri]);
      sim.rank(r).cpu_run(Stage::kOther, model.other(block.nnz()));
      result.c.set_block(i, j, block);
    }
  }

  // Stats: per-rank deltas.
  for (int r = 0; r < nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const auto& now = sim.rank(r).stage_times();
    const auto& was = deltas[ri].before;
    auto delta = [&](Stage s) {
      return now[static_cast<std::size_t>(s)] -
             was[static_cast<std::size_t>(s)];
    };
    stats.spgemm_time = std::max(stats.spgemm_time, delta(Stage::kLocalSpGEMM));
    stats.bcast_time = std::max(stats.bcast_time, delta(Stage::kSummaBcast));
    stats.merge_time = std::max(stats.merge_time, delta(Stage::kMerge));
    stats.other_time = std::max(stats.other_time, delta(Stage::kOther));
    stats.cpu_idle += sim.rank(r).cpu_idle() - deltas[ri].cpu_idle_before;
    stats.gpu_idle += sim.rank(r).gpu_idle() - deltas[ri].gpu_idle_before;
    stats.merge_peak_elements_sum += rank_peak[ri];
    stats.merge_peak_elements_max =
        std::max(stats.merge_peak_elements_max, rank_peak[ri]);
  }
  stats.cpu_idle /= static_cast<double>(nranks);
  stats.gpu_idle /= static_cast<double>(nranks);
  stats.elapsed = sim.elapsed() - elapsed_before - stats.sink_time;

  // Per-call observability: the Table II per-operation intervals. The
  // per-rank interval detail is exported by the event log (sim/eventlog);
  // these summaries make each expansion's shape queryable from a report.
  if (obs::context().metrics) {
    obs::count("summa.calls");
    obs::count("summa.phases", static_cast<std::uint64_t>(opt.phases));
    obs::count("summa.gpu_fallbacks",
               static_cast<std::uint64_t>(stats.gpu_fallbacks));
    // Per-call distributions (expansion times vary wildly across the
    // run's iterations; Table II's shape is about the heavy calls).
    obs::record("summa.spgemm_s", stats.spgemm_time);
    obs::record("summa.bcast_s", stats.bcast_time);
    obs::record("summa.merge_s", stats.merge_time);
    obs::record("summa.overall_s", stats.elapsed);
    obs::record("summa.cpu_idle_s", stats.cpu_idle);
    obs::record("summa.gpu_idle_s", stats.gpu_idle);
  }
  // Estimator-audit actual for the planner's per-rank-per-phase bytes
  // model (the nnz actual joins in core/hipmcl, which knows which
  // estimator produced the prediction).
  obs::mem_measure("memory.phase_bytes",
                   static_cast<double>(unpruned_bytes) /
                       (static_cast<double>(nranks) *
                        static_cast<double>(opt.phases)));
  return result;
}

}  // namespace mclx::dist
