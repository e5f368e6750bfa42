// Table II: overlap efficiency of the Pipelined Sparse SUMMA. For each
// network and node count, the individual times of the overlapped
// operations (GPU SpGEMM including transfers, broadcasts, binary merge)
// are compared to the achieved overall expansion time. The paper finds
// overall ≈ SpGEMM + 15-20%: nearly all CPU work hides behind the device.
//
// The "overlap eff" column comes from the event-log analyzer
// (obs::analyze_trace): the fraction of the lighter resource's busy time
// that ran concurrently with the other resource. --analyze prints the
// analyzer's full tables (the same ones hipmcl_cli --analyze shows) for
// each run.
#include "common.hpp"
#include "obs/trace_analysis.hpp"

int main(int argc, char** argv) {
  using namespace mclx;

  util::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.5, "dataset size scale");
  const bool analyze = cli.get_bool("analyze", false,
      "print the trace analyzer's tables for every run");
  bench::ObsScope obs(cli);
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();

  const std::vector<int> node_counts = {16, 36, 64};
  const core::MclParams params = bench::standard_params(80);

  util::Table t("Table II — overlap efficiency (virtual s over all "
                "expansions)");
  t.header({"network", "#nodes", "SpGEMM", "bcast", "merge", "overall",
            "overall/SpGEMM", "overlap eff"});

  for (const auto& name : gen::medium_dataset_names()) {
    const gen::Dataset data = gen::make_dataset(name, scale);
    for (const int nodes : node_counts) {
      // Each run gets its own event log (nested inside any --trace-out
      // sink; the previous context is restored on scope exit) so the
      // analyzer sees exactly one run, then the events join the aggregate
      // trace.
      sim::EventLog run_trace;
      core::MclResult r;
      {
        obs::ScopedContext tscope(run_trace);
        r = bench::run(data, nodes, core::HipMclConfig::optimized(), params);
      }
      obs.trace().append(run_trace);
      const obs::TraceAnalysis a = obs::analyze_trace(run_trace);
      const auto s = bench::summa_totals(r);
      t.row({name, util::Table::fmt_int(nodes), util::Table::fmt(s.spgemm, 1),
             util::Table::fmt(s.bcast, 1), util::Table::fmt(s.merge, 1),
             util::Table::fmt(s.overall, 1),
             util::Table::fmt(s.overall / s.spgemm, 2),
             util::Table::fmt_pct(100.0 * a.overlap_efficiency, 1)});
      if (analyze) {
        std::cout << "\n== " << name << " @" << nodes << " nodes ==\n";
        obs::print_trace_analysis(std::cout, a);
      }
    }
  }
  t.note("SpGEMM includes host<->device transfers, as in the paper's "
         "measurement");
  t.note("ideal overlap: overall == max(SpGEMM, bcast+merge); achieved "
         "overall should exceed SpGEMM by only ~15-20%");
  t.note("overlap eff: share of the lighter resource's busy time spent "
         "concurrent with the other (event-log analyzer)");
  t.print(std::cout);

  bench::print_paper_reference(
      "Table II (archaea@16: SpGEMM 14.6, bcast 3.4, merge 3.1, overall "
      "17.2): the overall time tracks the SpGEMM time within 15-20% "
      "because broadcasts and merging hide behind the device.");
  obs.finish();
  return 0;
}
