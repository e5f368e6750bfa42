// hipmcl_cli: an HipMCL-flavored command-line front end.
//
// Mirrors the real tool's workflow: read a Matrix Market similarity
// network, pick the machine size and per-process memory, cluster, and
// write one cluster per line. With no --input it demonstrates on a
// generated network.
//
//   ./hipmcl_cli --input net.mtx --output clusters.txt
//                [--nodes 16] [--inflation 2.0] [--select-k 80]
//                [--cutoff 1e-4] [--recover 0] [--mem-gb 0]
//                [--config optimized] [--estimator exact|probabilistic|adaptive]
//                [--metrics-out run.jsonl] [--trace-out run.trace.json]
//                [--analyze] [--postmortem-dir dir]
//
// --metrics-out writes the run's JSONL RunReport (one record per MCL
// iteration plus counters; schema in docs/OBSERVABILITY.md);
// --trace-out writes the simulated timelines as Chrome-tracing JSON
// (open in Perfetto / chrome://tracing), with the memory ledger's byte
// tracks folded in as counter events, so resident merge/staging/
// broadcast bytes plot under the rank timelines; --analyze prints the
// trace analytics — overlap efficiency (Table II), per-stage idle
// attribution (Table V) and the critical path — without needing a trace
// viewer.
//
// --postmortem-dir arms the flight recorder: fatal signals
// (SIGSEGV/SIGABRT) dump <dir>/hipmcl_cli.crash.json from the signal
// handler, and an interrupted run dumps <dir>/hipmcl_cli.postmortem.json.
// SIGINT is graceful either way: the run stops at the next iteration
// boundary and every requested output is still flushed (exit status 130).
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>

#include "mclx.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

mclx::core::HipMclConfig make_config(const std::string& name,
                                     const std::string& estimator) {
  using mclx::core::EstimatorKind;
  using mclx::core::HipMclConfig;
  HipMclConfig c;
  if (name == "original") {
    c = HipMclConfig::original();
  } else if (name == "no-overlap") {
    c = HipMclConfig::optimized_no_overlap();
  } else if (name == "optimized") {
    c = HipMclConfig::optimized();
  } else {
    throw std::invalid_argument("unknown --config: " + name);
  }
  // No --estimator: the configuration's own.
  if (estimator == "exact") {
    c.estimator = EstimatorKind::kExactSymbolic;
  } else if (estimator == "probabilistic") {
    c.estimator = EstimatorKind::kProbabilistic;
  } else if (estimator == "adaptive") {
    c.estimator = EstimatorKind::kAdaptive;
  } else if (!estimator.empty()) {
    throw std::invalid_argument("unknown --estimator: " + estimator);
  }
  return c;
}

std::atomic<bool> g_interrupted{false};

void on_sigint(int) { g_interrupted.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) try {
  using namespace mclx;

  util::Cli cli(argc, argv);
  const std::string input = cli.get("input", "", "Matrix Market network");
  const std::string output = cli.get("output", "", "cluster file to write");
  const int nodes = static_cast<int>(cli.get_int("nodes", 16,
      "simulated Summit nodes (perfect square)"));
  const double inflation = cli.get_double("inflation", 2.0, "MCL inflation");
  const int select_k = static_cast<int>(cli.get_int("select-k", 80,
      "selection number"));
  const double cutoff = cli.get_double("cutoff", 1e-4, "prune threshold");
  const int recover = static_cast<int>(cli.get_int("recover", 0,
      "recovery number (0 = off)"));
  const double mem_gb = cli.get_double("mem-gb", 0,
      "per-process memory for phase planning (0 = machine default)");
  const std::string config_name = cli.get("config", "optimized",
      "original | no-overlap | optimized");
  const std::string estimator = cli.get("estimator", "",
      "exact | probabilistic | adaptive (default: the config's own)");
  const bool report = cli.get_bool("report", false,
      "print per-cluster cohesion statistics");
  const std::string metrics_out = cli.get("metrics-out", "",
      "write the run's JSONL metrics report here");
  const std::string trace_out = cli.get("trace-out", "",
      "write a Chrome-tracing JSON of the simulated timelines, with "
      "memory counter tracks, here");
  const bool analyze = cli.get_bool("analyze", false,
      "print trace analytics: overlap efficiency, idle attribution, "
      "critical path");
  const std::string postmortem_dir = cli.get("postmortem-dir", "",
      "arm the flight recorder: crash/interrupt post-mortem JSON dumps "
      "land in this directory");
  const std::string log_level = cli.get("log", "warn",
      "debug|info|warn|error");
  const int nthreads = par::register_threads_flag(cli);
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();
  util::set_log_level(util::parse_log_level(log_level));

  // Input network.
  dist::TriplesD network;
  if (input.empty()) {
    std::cout << "no --input given; demonstrating on a generated network\n";
    network = gen::make_dataset("archaea-mini", 0.5).graph.edges;
  } else {
    network = io::read_matrix_market_file(input);
  }
  std::cout << "network: " << network.nrows() << " vertices, "
            << network.nnz() << " edges\n";

  // Parameters and configuration.
  core::MclParams params;
  params.inflation = inflation;
  params.prune.cutoff = cutoff;
  params.prune.select_k = select_k;
  params.prune.recover_num = recover;
  core::HipMclConfig config = make_config(config_name, estimator);
  if (mem_gb > 0) {
    config.mem_budget_per_rank =
        static_cast<bytes_t>(mem_gb * 1024.0 * 1024.0 * 1024.0);
  }

  // Graceful SIGINT: flip a flag the run polls at iteration boundaries,
  // so ^C stops the clustering but still flushes every requested output
  // (metrics, traces, post-mortem) instead of dying mid-write.
  std::signal(SIGINT, on_sigint);
  {
    const std::function<bool()> user_stop = config.should_stop;
    config.should_stop = [user_stop] {
      return g_interrupted.load(std::memory_order_relaxed) ||
             (user_stop && user_stop());
    };
  }

  sim::SimState sim(config_name == "original"
                        ? sim::summit_like_cpu_only(nodes)
                        : sim::summit_like(nodes));
  std::cout << "machine: " << sim::to_string(sim.machine()) << " ("
            << nthreads << " worker thread" << (nthreads == 1 ? "" : "s")
            << " per rank)\n";

  // Observability sinks, installed only when an output was requested
  // (--analyze needs the event log even without --trace-out; the memory
  // ledger rides along with the metrics report and drives the
  // --trace-out counter tracks, stamped in virtual seconds).
  obs::MetricsRegistry registry;
  sim::EventLog trace;
  obs::MemLedger ledger;
  const bool want_ledger = !metrics_out.empty() || !trace_out.empty();
  if (!trace_out.empty()) {
    ledger.enable_timeline([&sim] { return sim.elapsed(); });
    ledger.set_process_sample_interval(64);
  }
  // Always-on flight recorder; --postmortem-dir decides whether its
  // contents ever reach disk (crash handler + end-of-run dump).
  obs::FlightRecorder recorder;
  if (!postmortem_dir.empty()) {
    obs::install_crash_dump(&recorder,
                            postmortem_dir + "/hipmcl_cli.crash.json");
  }

  core::MclResult result;
  {
    const bool want_trace = !trace_out.empty() || analyze;
    const obs::ScopedContext sinks({
        .metrics = !metrics_out.empty() ? &registry : nullptr,
        .ledger = want_ledger ? &ledger : nullptr,
        .events = want_trace ? &trace : nullptr,
        .recorder = &recorder,
    });
    result = core::run_hipmcl(network, params, config, sim);
  }
  if (want_ledger) ledger.publish(registry);

  const bool interrupted = g_interrupted.load(std::memory_order_relaxed);
  if (!postmortem_dir.empty()) {
    obs::uninstall_crash_dump();
    const std::string dump = postmortem_dir + "/hipmcl_cli.postmortem.json";
    if (recorder.dump_file(dump, input.empty() ? "hipmcl_cli" : input,
                           interrupted ? "signal:SIGINT" : "end-of-run")) {
      std::cout << "wrote flight-recorder post-mortem to " << dump << "\n";
    }
  }

  if (!metrics_out.empty()) {
    obs::RunInfo info;
    info.workload = input.empty() ? "generated:archaea-mini" : input;
    info.config = config_name;
    info.estimator = std::string(core::to_string(config.estimator));
    info.nodes = static_cast<std::uint64_t>(nodes);
    info.nranks = static_cast<std::uint64_t>(sim.nranks());
    info.vertices = static_cast<std::uint64_t>(network.nrows());
    info.edges = network.nnz();
    info.threads = static_cast<std::uint64_t>(nthreads);
    obs::make_run_report(result, info, &registry)
        .write_jsonl_file(metrics_out);
    std::cout << "wrote metrics report (" << result.iterations
              << " iteration records) to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    obs::write_chrome_trace_file(trace_out, trace, &ledger);
    std::cout << "wrote " << trace.size() << " timeline events and "
              << ledger.timeline().size() << " memory counter points to "
              << trace_out << " (open in chrome://tracing or Perfetto)\n";
  }
  if (analyze) {
    obs::print_trace_analysis(std::cout, obs::analyze_trace(trace));
  }

  std::cout << (result.converged ? "converged" : "hit iteration cap")
            << " after " << result.iterations << " iterations ("
            << util::Table::fmt(result.elapsed, 1) << " virtual s)\n"
            << core::describe_clusters(result.labels) << "\n";

  if (report) {
    std::cout << core::format_report(
        core::cluster_report(network, result.labels), 10);
    std::cout << "modularity: "
              << util::Table::fmt(
                     core::modularity(network, result.labels), 3)
              << "\n";
  }

  // Output: one cluster per line, vertices space-separated (mcl format).
  if (!output.empty()) {
    std::ofstream out(output);
    if (!out) throw std::runtime_error("cannot write " + output);
    for (const auto& cluster : core::clusters_from_labels(result.labels)) {
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        out << cluster[i] << (i + 1 < cluster.size() ? ' ' : '\n');
      }
    }
    std::cout << "wrote " << output << "\n";
  }
  if (interrupted) {
    std::cout << "interrupted by SIGINT; outputs flushed\n";
    return 130;  // the shell's SIGINT convention
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "hipmcl_cli: " << e.what() << "\n";
  return 1;
}
