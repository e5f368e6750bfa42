// Quickstart: cluster a small protein-family-like network end to end.
//
//   ./quickstart [--vertices 600] [--nodes 4] [--original false]
//
// Builds a planted-partition graph, runs optimized HipMCL on a simulated
// 4-node Summit-like machine, and prints the clusters found, their
// agreement with the planted families, and where the virtual time went.
#include <iostream>
#include <optional>

#include "mclx.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mclx;

  util::Cli cli(argc, argv);
  const auto vertices = cli.get_int("vertices", 600, "graph size");
  const auto nodes = static_cast<int>(cli.get_int("nodes", 4,
      "simulated nodes (perfect square)"));
  const bool original = cli.get_bool("original", false,
      "run the unoptimized HipMCL configuration");
  const std::string trace_path = cli.get("trace", "",
      "write a Chrome-tracing JSON of the simulated timelines here");
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();

  // 1. A synthetic similarity network with known ground-truth families.
  gen::PlantedParams gp;
  gp.n = vertices;
  gp.seed = 42;
  const gen::PlantedGraph graph = gen::planted_partition(gp);
  std::cout << "graph: " << graph.edges.nrows() << " vertices, "
            << graph.edges.nnz() << " similarity edges, "
            << graph.num_families << " planted families\n";

  // 2. A simulated Summit-like machine.
  sim::SimState sim(sim::summit_like(nodes));
  std::cout << "machine: " << sim::to_string(sim.machine()) << "\n";

  // 3. Run HipMCL (optionally recording the virtual timelines).
  core::MclParams params;
  params.prune.select_k = 40;
  const core::HipMclConfig config = original
                                        ? core::HipMclConfig::original()
                                        : core::HipMclConfig::optimized();
  sim::EventLog trace;
  core::MclResult result;
  {
    std::optional<obs::ScopedContext> scope;
    if (!trace_path.empty()) scope.emplace(trace);
    result = core::run_hipmcl(graph.edges, params, config, sim);
  }
  if (!trace_path.empty()) {
    obs::write_chrome_trace_file(trace_path, trace, nullptr);
    std::cout << "wrote " << trace.size() << " timeline events to "
              << trace_path << " (open in chrome://tracing or Perfetto)\n";
  }

  // 4. Report.
  std::cout << "\nconverged after " << result.iterations << " iterations ("
            << (result.converged ? "chaos below epsilon" : "iteration cap")
            << ")\n";
  std::cout << core::describe_clusters(result.labels) << "\n";
  const gen::ClusterQuality q =
      gen::score_clustering(result.labels, graph.labels);
  std::cout << "vs planted families: precision " << q.precision << ", recall "
            << q.recall << ", F1 " << q.f1 << "\n";

  util::Table t("Virtual time by stage (critical rank)");
  t.header({"stage", "seconds"});
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    t.row({std::string(sim::kStageNames[s]),
           util::Table::fmt(result.stage_times[s], 4)});
  }
  t.row({"TOTAL (overall wall)", util::Table::fmt(result.elapsed, 4)});
  t.note("stages overlap under the pipelined SUMMA, so the overall wall "
         "time is not their sum");
  t.print(std::cout);
  return 0;
}
