// Shared scaffolding for the experiment-reproduction benches: dataset
// construction at a bench-friendly scale, standard MCL parameters, and
// paper-vs-measured reporting helpers.
//
// Every bench prints (1) the regenerated table/figure from the simulated
// runs and (2) a "paper reference" note stating the shape the original
// reports, so EXPERIMENTS.md can record both side by side.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/hipmcl.hpp"
#include "gen/datasets.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sim/eventlog.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace mclx::bench {

/// Observability flags shared by the benches. Constructing an ObsScope
/// registers --metrics-out and --trace-out on the bench's Cli and, when
/// either was passed, installs the corresponding obs::Context sink for
/// the scope's lifetime; finish() writes the requested files. A memory
/// ledger is always installed (charging is cheap and changes nothing),
/// so every bench gets ledger peaks and the estimator-audit channels
/// for free. Benches that run several configurations aggregate them all
/// into one registry / ledger.
class ObsScope {
 public:
  explicit ObsScope(util::Cli& cli)
      : metrics_path_(cli.get("metrics-out", "",
                              "write a JSONL metrics report here")),
        trace_path_(cli.get(
            "trace-out", "",
            "write Chrome-tracing JSON of the simulated timelines here")),
        sinks_({.metrics = metrics_path_.empty() ? nullptr : &registry_,
                .ledger = &ledger_,
                .events = trace_path_.empty() ? nullptr : &trace_}) {}

  obs::MetricsRegistry& registry() { return registry_; }
  sim::EventLog& trace() { return trace_; }
  obs::MemLedger& ledger() { return ledger_; }

  /// Write whatever was requested. With a result, the metrics file is a
  /// full RunReport (per-iteration records); without, a registry dump.
  /// Folds the ledger into the registry first and always reports the
  /// process high-water mark (VmHWM) alongside whatever was written.
  void finish(const core::MclResult* result = nullptr,
              const obs::RunInfo& info = {}) {
    if (ledger_.total_charges() > 0) ledger_.publish(registry_);
    if (!metrics_path_.empty()) {
      const obs::RunReport report =
          result ? obs::make_run_report(*result, info, &registry_)
                 : obs::make_metrics_report(registry_);
      report.write_jsonl_file(metrics_path_);
      std::cerr << "[obs] wrote metrics report to " << metrics_path_ << "\n";
    }
    if (!trace_path_.empty()) {
      obs::write_chrome_trace_file(trace_path_, trace_, nullptr);
      std::cerr << "[obs] wrote " << trace_.size() << " timeline events to "
                << trace_path_ << "\n";
    }
    const obs::ProcMemSample proc = obs::read_proc_mem();
    std::cerr << "[obs] ledger: " << ledger_.total_charges() << " charges, "
              << ledger_.total_high_water_bytes() << " tracked peak bytes; "
              << "process vm_hwm "
              << (proc.available
                      ? util::Table::fmt(
                            static_cast<double>(proc.vm_hwm_bytes) /
                                (1024.0 * 1024.0),
                            1) + " MiB"
                      : std::string("unavailable"))
              << "\n";
  }

 private:
  obs::MetricsRegistry registry_;
  sim::EventLog trace_;
  obs::MemLedger ledger_;
  std::string metrics_path_;
  std::string trace_path_;
  obs::ScopedContext sinks_;
};

/// MCL parameters used across benches: inflation 2 (as in all paper
/// experiments), selection number scaled from the paper's ~1000 to the
/// mini datasets.
inline core::MclParams standard_params(int select_k = 60) {
  core::MclParams p;
  p.inflation = 2.0;
  p.prune.cutoff = 1e-4;
  p.prune.select_k = select_k;
  p.max_iters = 40;
  return p;
}

/// One full HipMCL run; wall time of the *real* computation is printed to
/// stderr so cost-model drift stays visible next to virtual seconds.
/// `real_wall_s` (when given) receives that measured wall time so benches
/// can put genuine multicore columns next to the virtual ones.
inline core::MclResult run(const gen::Dataset& data, int nodes,
                           const core::HipMclConfig& config,
                           const core::MclParams& params,
                           sim::NodeMode mode = sim::NodeMode::kThreadBased,
                           int gpus = 6, bool cpu_only = false,
                           double* real_wall_s = nullptr) {
  auto machine = cpu_only ? sim::summit_like_cpu_only(nodes)
                          : sim::summit_like(nodes, mode, gpus);
  sim::SimState sim(machine);
  util::WallTimer wall;
  core::MclResult result = core::run_hipmcl(data.graph.edges, params, config,
                                            sim);
  const double real_s = wall.elapsed_s();
  if (real_wall_s) *real_wall_s = real_s;
  std::cerr << "[bench] " << data.name << " @" << nodes << " nodes: "
            << result.iterations << " iters, virtual "
            << util::Table::fmt(result.elapsed, 1) << "s, real "
            << util::Table::fmt(real_s, 1) << "s\n";
  return result;
}

inline void print_paper_reference(const std::string& text) {
  std::cout << "\nPaper reference: " << text << "\n";
}

/// Sum one stage over every iteration of a result.
inline double stage_total(const core::MclResult& r, sim::Stage s) {
  return r.stage_times[static_cast<std::size_t>(s)];
}

/// Expansion-window (Table II) aggregates over all iterations.
struct SummaTotals {
  double spgemm = 0, bcast = 0, merge = 0, overall = 0;
  double cpu_idle = 0, gpu_idle = 0;
};

inline SummaTotals summa_totals(const core::MclResult& r) {
  SummaTotals t;
  for (const auto& it : r.iters) {
    t.spgemm += it.summa.spgemm_time;
    t.bcast += it.summa.bcast_time;
    t.merge += it.summa.merge_time;
    t.overall += it.summa.elapsed;
    t.cpu_idle += it.summa.cpu_idle;
    t.gpu_idle += it.summa.gpu_idle;
  }
  return t;
}

}  // namespace mclx::bench
