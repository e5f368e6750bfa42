// Table III: peak memory used by the merge during the first ten MCL
// iterations — multiway (original HipMCL, all stage results resident)
// vs the incremental binary merge (Algorithm 2). The paper reports
// 20-25% savings in the early iterations, shrinking as the matrix
// thins out.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mclx;

  util::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.5, "dataset size scale");
  const int nodes = static_cast<int>(cli.get_int("nodes", 16,
      "simulated nodes"));
  const int iters = static_cast<int>(cli.get_int("iters", 10,
      "MCL iterations to report"));
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();

  const core::MclParams params = bench::standard_params(80);
  constexpr double kBytesPerElem = sizeof(vidx_t) + sizeof(val_t);
  constexpr double kMiB = 1024.0 * 1024.0;

  util::Table t("Table III — peak merge memory (MiB across all ranks), "
                "first " + std::to_string(iters) + " MCL iterations, " +
                std::to_string(nodes) + " simulated nodes");
  std::vector<std::string> header = {"MCL iter."};
  for (const auto& name : gen::medium_dataset_names()) {
    header.push_back(name + " mway");
    header.push_back(name + " binary");
    header.push_back(name + " impr.");
  }
  t.header(header);

  // Each run gets its own ledger so the "merge.resident.r<rank>" byte
  // tracks give an independently measured peak next to the legacy
  // element counters (they must agree: same events, different units).
  struct LedgerPeaks {
    std::uint64_t rank_max = 0;  ///< worst single rank, whole run
    std::uint64_t rank_sum = 0;  ///< sum of per-rank whole-run peaks
  };
  auto run_with_ledger = [&](const gen::Dataset& data,
                             const core::HipMclConfig& config,
                             LedgerPeaks* peaks) {
    obs::MemLedger ledger;
    obs::ScopedContext scope(ledger);
    core::MclResult r = bench::run(data, nodes, config, params);
    peaks->rank_max = ledger.prefix_high_water_max("merge.resident.");
    peaks->rank_sum = ledger.prefix_high_water_sum("merge.resident.");
    return r;
  };

  std::vector<core::MclResult> mway, binary;
  std::vector<LedgerPeaks> mway_peaks, binary_peaks;
  for (const auto& name : gen::medium_dataset_names()) {
    const gen::Dataset data = gen::make_dataset(name, scale);
    core::HipMclConfig multiway_config = core::HipMclConfig::optimized();
    multiway_config.binary_merge = false;
    mway_peaks.emplace_back();
    mway.push_back(run_with_ledger(data, multiway_config, &mway_peaks.back()));
    binary_peaks.emplace_back();
    binary.push_back(run_with_ledger(data, core::HipMclConfig::optimized(),
                                     &binary_peaks.back()));
  }

  double worst_impr = 100.0, best_impr = 0.0;
  for (int i = 0; i < iters; ++i) {
    std::vector<std::string> row = {util::Table::fmt_int(i + 1)};
    bool any = false;
    for (std::size_t d = 0; d < mway.size(); ++d) {
      if (i >= static_cast<int>(mway[d].iters.size()) ||
          i >= static_cast<int>(binary[d].iters.size())) {
        row.insert(row.end(), {"-", "-", "-"});
        continue;
      }
      any = true;
      const double m = static_cast<double>(mway[d].iters[static_cast<std::size_t>(i)]
                                               .merge_peak_sum) *
                       kBytesPerElem / kMiB;
      const double b = static_cast<double>(binary[d].iters[static_cast<std::size_t>(i)]
                                               .merge_peak_sum) *
                       kBytesPerElem / kMiB;
      const double impr = m > 0 ? (m - b) / m * 100.0 : 0.0;
      worst_impr = std::min(worst_impr, impr);
      best_impr = std::max(best_impr, impr);
      row.push_back(util::Table::fmt(m, 2));
      row.push_back(util::Table::fmt(b, 2));
      row.push_back(util::Table::fmt_pct(impr, 0));
    }
    if (!any) break;
    t.row(row);
  }
  t.note("improvement range across cells: " +
         util::Table::fmt_pct(worst_impr, 0) + " to " +
         util::Table::fmt_pct(best_impr, 0));
  t.print(std::cout);

  // Ledger cross-check: the byte-accounted peaks against the legacy
  // element counters. "legacy max rank" is max over iterations of
  // merge_peak_max converted to bytes — the ledger's worst-rank track
  // must land on exactly the same number.
  util::Table lt("Table III cross-check — ledger-measured merge peaks "
                 "(MiB), whole run");
  lt.header({"dataset", "merge", "legacy max rank", "ledger max rank",
             "ledger all ranks", "match"});
  const auto datasets = gen::medium_dataset_names();
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    for (int variant = 0; variant < 2; ++variant) {
      const core::MclResult& r = variant == 0 ? mway[d] : binary[d];
      const LedgerPeaks& p = variant == 0 ? mway_peaks[d] : binary_peaks[d];
      std::uint64_t legacy_max = 0;
      for (const auto& it : r.iters) {
        legacy_max = std::max(legacy_max, it.merge_peak_max);
      }
      const auto legacy_bytes =
          static_cast<std::uint64_t>(legacy_max * kBytesPerElem);
      lt.row({datasets[d], variant == 0 ? "mway" : "binary",
              util::Table::fmt(static_cast<double>(legacy_bytes) / kMiB, 2),
              util::Table::fmt(static_cast<double>(p.rank_max) / kMiB, 2),
              util::Table::fmt(static_cast<double>(p.rank_sum) / kMiB, 2),
              legacy_bytes == p.rank_max ? "yes" : "NO"});
    }
  }
  lt.note("ledger 'all ranks' sums each rank's own whole-run peak, so it "
          "can exceed the worst single iteration's all-rank sum above");
  lt.print(std::cout);

  bench::print_paper_reference(
      "Table III: binary merge needs 20-25% less peak memory than "
      "multiway in iterations 1-9, tapering (15-22%) as the matrix "
      "sparsifies. Expected shape: consistent double-digit savings, "
      "absolute peaks decaying after iteration 2.");
  return 0;
}
