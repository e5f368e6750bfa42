// Protein-family clustering: the paper's motivating workload.
//
//   ./protein_clustering [--dataset isom-mini] [--scale 0.5] [--nodes 16]
//                        [--inflation 2.0] [--select-k 80] [--mtx out.mtx]
//
// Builds one of the Table-I analog networks (or reads a Matrix Market
// file via --input), clusters it with optimized HipMCL on a simulated
// Summit partition, and reports cluster quality against the planted
// families, the per-iteration convergence trace, and the stage budget.
#include <fstream>
#include <iostream>

#include "mclx.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace mclx;

  util::Cli cli(argc, argv);
  const std::string dataset = cli.get("dataset", "isom-mini",
      "one of archaea-mini/eukarya-mini/isom-mini/metaclust-mini");
  const double scale = cli.get_double("scale", 0.5, "dataset size scale");
  const int nodes = static_cast<int>(cli.get_int("nodes", 16,
      "simulated nodes (perfect square)"));
  const double inflation = cli.get_double("inflation", 2.0,
      "MCL inflation parameter");
  const int select_k = static_cast<int>(cli.get_int("select-k", 80,
      "selection number (max entries kept per column)"));
  const std::string input = cli.get("input", "",
      "cluster a Matrix Market file instead of a generated network");
  const std::string mtx_out = cli.get("mtx", "",
      "also write the generated network to this .mtx path");
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();

  // 1. The network.
  gen::Dataset data;
  bool have_truth = true;
  if (input.empty()) {
    data = gen::make_dataset(dataset, scale);
    std::cout << "network: " << data.name << " (analog of "
              << data.paper_analog << ")\n";
  } else {
    data.name = input;
    data.graph.edges = io::read_matrix_market_file(input);
    have_truth = false;
    std::cout << "network: " << input << "\n";
  }
  const auto& edges = data.graph.edges;
  std::cout << "  " << edges.nrows() << " proteins, " << edges.nnz()
            << " similarity edges\n";
  if (!mtx_out.empty()) {
    io::write_matrix_market_file(mtx_out, edges, "mclx " + data.name);
    std::cout << "  wrote " << mtx_out << "\n";
  }

  // 2. Cluster.
  core::MclParams params;
  params.inflation = inflation;
  params.prune.select_k = select_k;
  sim::SimState sim(sim::summit_like(nodes));
  const core::MclResult result = core::run_hipmcl(
      edges, params, core::HipMclConfig::optimized(), sim);

  // 3. Convergence trace.
  util::Table trace("Convergence trace");
  trace.header({"iter", "nnz(A)", "flops", "cf", "phases", "chaos",
                "virtual s"});
  for (const auto& it : result.iters) {
    trace.row({util::Table::fmt_int(it.iter),
               util::Table::fmt_int(static_cast<long long>(it.nnz_after_prune)),
               util::Table::fmt_int(static_cast<long long>(it.flops)),
               util::Table::fmt(it.cf, 1), util::Table::fmt_int(it.phases),
               util::Table::fmt(it.chaos, 4),
               util::Table::fmt(it.elapsed, 1)});
  }
  trace.print(std::cout);

  // 4. Clusters and quality.
  std::cout << "\n" << core::describe_clusters(result.labels) << "\n";
  std::cout << "modularity: "
            << util::Table::fmt(core::modularity(edges, result.labels), 3)
            << "\n";
  if (have_truth) {
    const auto q = gen::score_clustering(result.labels, data.graph.labels);
    std::cout << "vs planted families (" << data.graph.num_families
              << "): precision " << util::Table::fmt(q.precision, 3)
              << ", recall " << util::Table::fmt(q.recall, 3) << ", F1 "
              << util::Table::fmt(q.f1, 3) << ", ARI "
              << util::Table::fmt(core::adjusted_rand_index(
                     result.labels, data.graph.labels), 3)
              << "\n";
  }

  // 5. Where the time went.
  util::Table budget("Stage budget (virtual s, critical rank)");
  budget.header({"stage", "seconds", "share"});
  const double total = sim::total(result.stage_times);
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    budget.row({std::string(sim::kStageNames[s]),
                util::Table::fmt(result.stage_times[s], 1),
                util::Table::fmt_pct(
                    total > 0 ? 100.0 * result.stage_times[s] / total : 0.0,
                    0)});
  }
  budget.note("overall wall (overlapped): " +
              util::Table::fmt(result.elapsed, 1) + " s");
  budget.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "protein_clustering: " << e.what() << "\n";
  return 1;
}
