// Ablation for the 3D Sparse SUMMA extension (§VII-E / conclusions: "The
// GPU idle times can be reduced further, especially at large
// concurrencies, via adapting 3D SpGEMM"). At a fixed total rank count,
// compare the 2D pipelined SUMMA against layered 3D variants: broadcast
// time and GPU idle should fall with the layer count, traded against the
// inter-layer reduction and the replicated-operand memory.
#include "common.hpp"

#include <cmath>

#include "dist/summa3d.hpp"
#include "sparse/convert.hpp"

int main(int argc, char** argv) {
  using namespace mclx;

  util::Cli cli(argc, argv);
  const auto n = static_cast<vidx_t>(cli.get_int("n", 3000, "matrix size"));
  const int total_ranks = static_cast<int>(cli.get_int("ranks", 64,
      "total simulated ranks"));
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();

  // A dense-ish planted matrix so the expansion-like multiply has MCL
  // character.
  gen::PlantedParams gp;
  gp.n = n;
  gp.p_in = 0.5;
  gp.mean_family = 40;
  gp.seed = 17;
  const auto g = gen::planted_partition(gp);

  util::Table t("2D vs 3D Sparse SUMMA at " + std::to_string(total_ranks) +
                " ranks (single A*A expansion)");
  t.header({"variant", "bcast (s)", "merge (s)", "SpGEMM (s)",
            "reduction (s)", "GPU idle (s)", "overall (s)"});

  // 2D baseline.
  {
    const dist::ProcGrid grid(total_ranks);
    const dist::DistMat a = dist::DistMat::from_triples(g.edges, grid);
    sim::SimState sim(sim::summit_like(total_ranks));
    dist::SummaOptions opt;
    opt.pipelined = true;
    opt.binary_merge = true;
    const auto r = dist::summa_multiply(a, a, sim, opt);
    t.row({"2D (pipelined)", util::Table::fmt(r.stats.bcast_time, 2),
           util::Table::fmt(r.stats.merge_time, 2),
           util::Table::fmt(r.stats.spgemm_time, 2), "-",
           util::Table::fmt(r.stats.gpu_idle, 2),
           util::Table::fmt(r.stats.elapsed, 2)});
  }

  // 3D variants: layer counts that keep d*d*c == total_ranks with square
  // d*d.
  for (const int layers : {4, 16}) {
    if (total_ranks % layers != 0) continue;
    const int grid_ranks = total_ranks / layers;
    const int d = static_cast<int>(std::lround(std::sqrt(grid_ranks)));
    if (d * d != grid_ranks) continue;
    const dist::ProcGrid grid(grid_ranks);
    const dist::DistMat a = dist::DistMat::from_triples(g.edges, grid);
    sim::SimState sim(sim::summit_like(total_ranks));
    dist::Summa3dOptions opt;
    opt.layers = layers;
    opt.charge_replication = false;  // steady-state (replicas amortized)
    const auto r = dist::summa3d_multiply(a, a, sim, opt);
    t.row({"3D c=" + std::to_string(layers) + " (" + std::to_string(d) +
               "x" + std::to_string(d) + " grids)",
           util::Table::fmt(r.stats.bcast_time, 2),
           util::Table::fmt(r.stats.merge_time, 2),
           util::Table::fmt(r.stats.spgemm_time, 2),
           util::Table::fmt(r.reduction_time, 2),
           util::Table::fmt(r.stats.gpu_idle, 2),
           util::Table::fmt(r.stats.elapsed, 2)});
  }
  t.note("3D replicates operands across layers (memory x c) and pays an "
         "inter-layer reduction; replication itself excluded (amortized "
         "across MCL iterations)");
  t.note("layer counts above the per-layer stage count leave layers idle "
         "and concentrate flops (sensible regime: c <= sqrt(ranks/c))");
  t.print(std::cout);

  bench::print_paper_reference(
      "The paper keeps HipMCL 2D (3D redistribution 'unlikely to be "
      "amortized in the sparse case', §II) but names 3D SpGEMM as the fix "
      "for the growing GPU idle at scale (§VII-E). Expected shape: "
      "broadcast time and GPU idle drop with layers; a new reduction cost "
      "appears.");
  return 0;
}
