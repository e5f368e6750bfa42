// Perf-regression harness: one fixed, fully seeded planted-partition
// workload through optimized HipMCL, emitted as schema-stable JSON
// (BENCH_regression.json) so successive PRs accumulate a machine-readable
// perf trajectory. Everything virtual-time and algorithmic in the file is
// deterministic for a given source tree; only real_wall_s varies between
// machines, so diffs of the other fields are meaningful — and
// mclx_perfdiff enforces exactly that split against the committed
// bench/BENCH_baseline.json (the CI perf gate).
//
// The field catalogue and its mapping to the paper's tables/figures is
// documented in docs/OBSERVABILITY.md ("BENCH_regression.json schema").
#include <fstream>

#include "common.hpp"
#include "core/quality.hpp"
#include "gen/planted.hpp"
#include "obs/expo.hpp"
#include "obs/json_writer.hpp"
#include "sparse/convert.hpp"
#include "spgemm/hash.hpp"
#include "svc/scheduler.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) try {
  using namespace mclx;

  util::Cli cli(argc, argv);
  const std::string out_path = cli.get("out", "BENCH_regression.json",
      "where to write the regression report");
  const auto vertices = static_cast<vidx_t>(cli.get_int("vertices", 480,
      "workload size (fixed default: keep it for comparable trajectories)"));
  const int nodes = static_cast<int>(cli.get_int("nodes", 4,
      "simulated Summit nodes"));
  const int nthreads = static_cast<int>(cli.get_int("threads", 4,
      "pool threads (fixed default: the real.* lane timings compare like "
      "for like across gate hosts)"));
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();
  par::set_threads(nthreads);

  // The fixed workload: seeded planted families, optimized HipMCL. Every
  // iteration's estimation error (against the nnz(A·A) the expansion
  // counts) is part of the trajectory.
  gen::PlantedParams gp;
  gp.n = vertices;
  gp.seed = 7;
  const gen::PlantedGraph graph = gen::planted_partition(gp);

  const core::MclParams params = bench::standard_params(40);
  const core::HipMclConfig config = core::HipMclConfig::optimized();

  obs::MetricsRegistry registry;
  obs::MemLedger ledger;
  sim::SimState sim(sim::summit_like(nodes));
  util::WallTimer wall;
  core::MclResult result;
  {
    const obs::ScopedContext sinks({.metrics = &registry, .ledger = &ledger});
    result = core::run_hipmcl(graph.edges, params, config, sim);
  }
  const double real_wall_s = wall.elapsed_s();
  ledger.publish(registry);

  const gen::ClusterQuality quality =
      gen::score_clustering(result.labels, graph.labels);
  const double mod = core::modularity(graph.edges, result.labels);
  const bench::SummaTotals summa = bench::summa_totals(result);

  std::uint64_t merge_peak_sum_max = 0;  // worst iteration (Table III row)
  std::uint64_t merge_peak_rank_max = 0;
  for (const auto& it : result.iters) {
    merge_peak_sum_max = std::max(merge_peak_sum_max, it.merge_peak_sum);
    merge_peak_rank_max = std::max(merge_peak_rank_max, it.merge_peak_max);
  }
  const obs::Histogram* est_err = registry.histogram("estimate.rel_error");

  std::ofstream os(out_path);
  if (!os) throw std::runtime_error("cannot write " + out_path);

  obs::JsonWriter w(os);
  w.begin_object();
  // Schema version 2: the `distributions` block (histogram percentiles)
  // joined in PR 3; version 1 had everything else. Version 3: `threads`
  // in the workload block and the `real` block (measured multicore
  // wall times — machine-dependent, ignored by the gate like
  // real_wall_s). Version 4: ledger-backed memory.peak_* byte fields
  // and the estimator-audit distributions (estimate.rel_error,
  // memory.charge_bytes). Version 5: the gated `svc` saturation block
  // (deterministic virtual latencies at a fixed lane share) and the
  // real.svc_* wall-clock throughput fields. Version 6: the
  // real.status_export_* fields (one Prometheus exposition pass over the
  // populated run registry — the --status-out cost per rewrite).
  // Version 7: the real.spgemm_reord_* fields (RCM ordering cost and the
  // blocked reordered kernel's wall time + bitmatch on the permuted
  // operand). Version 8: the `prof` block (hardware-counter roofline
  // audit). Version 9: one hash kernel — real.spgemm_par_s times
  // hash_spgemm on `threads` lanes, and the real.spgemm_simd_* /
  // real.spgemm_reord_* fields are gone. Version 10: the `prof` block is
  // gone; its counters read -1 wherever perf_event is refused.
  w.field("schema_version", std::uint64_t{10});
  w.field("bench", "bench_regression");

  w.begin_object("workload");
  w.field("generator", "planted_partition");
  w.field("vertices", static_cast<std::uint64_t>(graph.edges.nrows()));
  w.field("edges", graph.edges.nnz());
  w.field("seed", static_cast<std::uint64_t>(gp.seed));
  w.field("nodes", nodes);
  w.field("nranks", sim.nranks());
  w.field("config", "optimized");
  w.field("select_k", params.prune.select_k);
  w.field("threads", nthreads);
  w.end_object();

  w.begin_object("clustering");
  w.field("iterations", static_cast<std::uint64_t>(result.iterations));
  w.field("converged", result.converged);
  w.field("num_clusters", static_cast<std::uint64_t>(result.num_clusters));
  w.field("f1", quality.f1);
  w.field("modularity", mod);
  w.end_object();

  w.begin_object("virtual");
  w.field("elapsed_s", result.elapsed);
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    // Stage keys shared with the RunReport iteration fields.
    w.field(obs::stage_field_names()[s], result.stage_times[s]);
  }
  w.field("cpu_idle_s", result.mean_cpu_idle);
  w.field("gpu_idle_s", result.mean_gpu_idle);
  w.end_object();

  w.begin_object("summa");
  w.field("spgemm_s", summa.spgemm);
  w.field("bcast_s", summa.bcast);
  w.field("merge_s", summa.merge);
  w.field("overall_s", summa.overall);
  w.end_object();

  w.begin_object("memory");
  w.field("merge_peak_elements_sum_max", merge_peak_sum_max);
  w.field("merge_peak_elements_max", merge_peak_rank_max);
  w.field("merge_events", registry.counter("merge.events"));
  // Ledger-backed byte peaks. Only main-thread-charged labels are gated
  // here: labels charged from pool workers (a laned hash_spgemm's
  // spgemm.hash_table) have interleaving-dependent high-water marks and
  // would make the gate flaky.
  w.field("peak_merge_resident_bytes_max",
          ledger.prefix_high_water_max("merge.resident."));
  w.field("peak_merge_resident_bytes_sum",
          ledger.prefix_high_water_sum("merge.resident."));
  w.field("peak_bcast_payload_bytes",
          ledger.label_stats("summa.bcast_payload").high_water_bytes);
  w.field("peak_dist_staging_bytes",
          ledger.label_stats("dist.staging").high_water_bytes);
  w.field("ledger_charges", ledger.total_charges());
  w.end_object();

  w.begin_object("estimator");
  w.field("mean_rel_error", est_err ? est_err->mean() : -1.0);
  w.field("max_rel_error",
          est_err && !est_err->empty() ? est_err->max() : -1.0);
  w.end_object();

  w.begin_object("kernels");
  for (const auto& [name, value] : registry.counters()) {
    const std::string prefix = "spgemm.kernel.";
    if (name.rfind(prefix, 0) != 0) continue;
    w.field(name.substr(prefix.size()), value);
  }
  w.end_object();

  // Distribution percentiles (all virtual/deterministic): the tails the
  // mean-only trajectory hides — merge widths, per-call SUMMA times,
  // broadcast payloads, estimator error. A fixed list, not every value
  // metric: pool.* is measured wall time and memory.hwm_bytes depends
  // on lane timing, so they stay out of the gated block.
  static constexpr const char* kGatedDistributions[] = {
      "estimate.rel_error",  "estimate.unpruned_nnz.rel_error",
      "memory.charge_bytes", "memory.phase_bytes.rel_error",
      "merge.peak_elements", "merge.ways",
      "spgemm.select.flops", "summa.bcast_bytes",
      "summa.bcast_s",       "summa.merge_s",
      "summa.overall_s",     "summa.spgemm_s",
  };
  w.begin_object("distributions");
  for (const char* name : kGatedDistributions) {
    const obs::Histogram* hist = registry.histogram(name);
    if (hist == nullptr) continue;
    w.begin_object(name);
    w.field("count", hist->count());
    w.field("p50", hist->p50());
    w.field("p95", hist->p95());
    w.field("p99", hist->p99());
    w.field("max", hist->max());
    w.end_object();
  }
  w.end_object();

  w.begin_array("iters");
  for (const auto& it : result.iters) {
    w.begin_object(obs::JsonWriter::Style::kCompact);
    w.field("iter", static_cast<std::uint64_t>(it.iter));
    w.field("chaos", it.chaos);
    w.field("nnz", it.nnz_after_prune);
    w.field("phases", static_cast<std::uint64_t>(it.phases));
    w.field("elapsed_s", it.elapsed);
    w.end_object();
  }
  w.end_array();

  // Service saturation: six seeded jobs through an svc::Scheduler at two
  // concurrent runners over the fixed 4-lane pool (docs/SERVICE.md). The
  // per-job share is a fixed function of the options, so the per-job
  // virtual latencies — and their obs::Histogram percentiles — are
  // deterministic and gate-able; wall-clock throughput (jobs/sec) and
  // the wait/run percentiles are machine-dependent and land in the
  // gate-ignored "real" block below.
  const int svc_jobs = 6;
  svc::SchedulerOptions svc_options;
  svc_options.max_concurrent = 2;
  svc_options.pool_lanes = nthreads;
  obs::MetricsRegistry svc_registry;
  std::vector<svc::JobOutcome> svc_outcomes;
  int svc_lane_share = 0;
  util::WallTimer svc_wall;
  {
    svc::Scheduler scheduler(svc_options);
    svc_lane_share = scheduler.lane_share();
    for (int j = 0; j < svc_jobs; ++j) {
      gen::PlantedParams sp;
      sp.n = vertices / 2;
      sp.seed = 100 + static_cast<std::uint64_t>(j);
      svc::JobSpec spec;
      spec.id = "sat-" + std::to_string(j);
      spec.workload = "planted:" + std::to_string(sp.n);
      spec.config_name = "optimized";
      spec.graph = gen::planted_partition(sp).edges;
      spec.nodes = nodes;
      spec.params = bench::standard_params(40);
      spec.config = core::HipMclConfig::optimized();
      scheduler.submit(std::move(spec));
    }
    svc_outcomes = scheduler.drain();
    svc_registry = scheduler.metrics_snapshot();
  }
  const double svc_wall_s = svc_wall.elapsed_s();

  std::uint64_t svc_clusters = 0;
  std::uint64_t svc_iterations = 0;
  double svc_virtual_sum = 0;
  bool svc_all_done = true;
  for (const auto& o : svc_outcomes) {
    svc_clusters += static_cast<std::uint64_t>(o.num_clusters);
    svc_iterations += static_cast<std::uint64_t>(o.iterations);
    svc_virtual_sum += o.virtual_elapsed_s;
    svc_all_done = svc_all_done && o.state == svc::JobState::kDone;
  }
  const obs::Histogram* svc_virtual =
      svc_registry.histogram("svc.job.virtual_s");

  w.begin_object("svc");
  w.field("jobs", static_cast<std::uint64_t>(svc_jobs));
  w.field("completed", svc_registry.counter("svc.jobs.completed"));
  w.field("all_done", svc_all_done);
  w.field("max_concurrent", svc_options.max_concurrent);
  w.field("lane_share", svc_lane_share);
  w.field("iterations", svc_iterations);
  w.field("clusters_total", svc_clusters);
  w.field("virtual_elapsed_sum_s", svc_virtual_sum);
  w.field("virtual_latency_p50_s", svc_virtual ? svc_virtual->p50() : 0.0);
  w.field("virtual_latency_p95_s", svc_virtual ? svc_virtual->p95() : 0.0);
  w.field("virtual_latency_max_s", svc_virtual ? svc_virtual->max() : 0.0);
  w.end_object();

  // Genuine multicore measurement on the gate's host: the hash kernel on
  // one lane vs on `threads` lanes, on A*A of the workload graph.
  // Machine-dependent by nature (like real_wall_s) — recorded for the
  // trajectory, ignored by the perf gate ("real." prefix).
  {
    const auto a = sparse::csc_from_triples(graph.edges);
    auto warm = spgemm::hash_spgemm(a, a, nthreads);  // pool warmup
    util::WallTimer seq_wall;
    const auto c_seq = spgemm::hash_spgemm(a, a);
    const double seq_s = seq_wall.elapsed_s();
    util::WallTimer par_wall;
    const auto c_par = spgemm::hash_spgemm(a, a, nthreads);
    const double par_s = par_wall.elapsed_s();
    w.begin_object("real");
    w.field("spgemm_seq_s", seq_s);
    w.field("spgemm_par_s", par_s);
    w.field("spgemm_par_threads", nthreads);
    w.field("spgemm_speedup", par_s > 0 ? seq_s / par_s : 0.0);
    w.field("spgemm_nnz_match", c_seq.nnz() == c_par.nnz());
    // Saturation throughput and scheduling latency of the svc block's
    // six-job run: wall-clock, so machine-dependent like everything
    // else here.
    const obs::Histogram* svc_wait = svc_registry.histogram("svc.job.wait_s");
    const obs::Histogram* svc_run = svc_registry.histogram("svc.job.run_s");
    w.field("svc_wall_s", svc_wall_s);
    w.field("svc_jobs_per_s",
            svc_wall_s > 0 ? static_cast<double>(svc_jobs) / svc_wall_s : 0.0);
    w.field("svc_wait_p95_s", svc_wait ? svc_wait->p95() : 0.0);
    w.field("svc_run_p95_s", svc_run ? svc_run->p95() : 0.0);
    // One Prometheus exposition pass over the run's populated registry:
    // the marginal cost hipmcl_serve pays per --status-out rewrite /
    // /metrics scrape. Wall-clock, gate-ignored; the byte count tracks
    // document growth as the metric catalogue accretes.
    util::WallTimer expo_wall;
    const std::string status_text = obs::prometheus_text(&registry, nullptr);
    w.field("status_export_s", expo_wall.elapsed_s());
    w.field("status_export_bytes",
            static_cast<std::uint64_t>(status_text.size()));
    w.end_object();
  }

  w.field("real_wall_s", real_wall_s);
  w.end_object();
  os.close();

  std::cout << "bench_regression: " << result.iterations << " iterations, "
            << result.num_clusters << " clusters, F1 "
            << util::Table::fmt(quality.f1, 3) << ", virtual "
            << util::Table::fmt(result.elapsed, 1) << "s; wrote " << out_path
            << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_regression: " << e.what() << "\n";
  return 1;
}
