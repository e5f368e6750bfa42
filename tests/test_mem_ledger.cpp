// The memory ledger: scripted charge/release accounting, RAII scopes,
// thread-safety under the shared pool (the TSan CI job runs this), the
// estimator-audit join, process-peak sampling, the input staging that
// DistMat::from_triples charges, the product SUMMA holds until its
// result exists, the k-way merge's one scratch charge,
// and the end-to-end contract on a real run — the ledger's per-rank
// merge track must land on exactly the number the legacy element
// counters report, RunReport v4 must carry the measured actuals, and the
// Chrome trace must hold both duration and counter events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/hipmcl.hpp"
#include "dist/distmat.hpp"
#include "dist/grid.hpp"
#include "dist/summa.hpp"
#include "gen/planted.hpp"
#include "merge/kway.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_diff.hpp"
#include "obs/run_report.hpp"
#include "sim/eventlog.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "sparse/convert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace {

using namespace mclx;

constexpr std::uint64_t kBytesPerElem = sizeof(vidx_t) + sizeof(val_t);

// ------------------------------------------------------ scripted ledger

TEST(MemLedger, ChargeReleaseTracksCurrentAndHighWater) {
  obs::MemLedger ledger;
  ledger.charge("a", 100);
  ledger.charge("a", 50);
  EXPECT_EQ(ledger.label_stats("a").current_bytes, 150u);
  EXPECT_EQ(ledger.label_stats("a").high_water_bytes, 150u);
  EXPECT_EQ(ledger.label_stats("a").charges, 2u);

  ledger.release("a", 120);
  EXPECT_EQ(ledger.label_stats("a").current_bytes, 30u);
  ledger.charge("a", 40);
  EXPECT_EQ(ledger.label_stats("a").current_bytes, 70u);
  // High water stays at the scripted peak.
  EXPECT_EQ(ledger.label_stats("a").high_water_bytes, 150u);

  // Unknown labels read as zeros; over-release clamps, never wraps.
  EXPECT_EQ(ledger.label_stats("never").current_bytes, 0u);
  ledger.release("a", 1000000);
  EXPECT_EQ(ledger.label_stats("a").current_bytes, 0u);
  EXPECT_EQ(ledger.label_stats("a").high_water_bytes, 150u);

  ledger.clear();
  EXPECT_EQ(ledger.total_charges(), 0u);
  EXPECT_EQ(ledger.label_stats("a").high_water_bytes, 0u);
}

TEST(MemLedger, TotalHighWaterSpansLabels) {
  obs::MemLedger ledger;
  ledger.charge("a", 100);
  ledger.charge("b", 50);   // total 150 — the peak
  ledger.release("a", 100); // total 50
  ledger.charge("b", 10);   // total 60
  EXPECT_EQ(ledger.total_current_bytes(), 60u);
  EXPECT_EQ(ledger.total_high_water_bytes(), 150u);
  EXPECT_EQ(ledger.total_charges(), 3u);
}

TEST(MemLedger, PrefixHelpersFoldPerRankTracks) {
  obs::MemLedger ledger;
  ledger.charge("merge.resident.r0", 10);
  ledger.charge("merge.resident.r1", 30);
  ledger.release("merge.resident.r1", 30);
  ledger.charge("merge.resident.r2", 20);
  ledger.charge("other.label", 1000);
  EXPECT_EQ(ledger.prefix_high_water_max("merge.resident."), 30u);
  EXPECT_EQ(ledger.prefix_high_water_sum("merge.resident."), 60u);
  EXPECT_EQ(ledger.prefix_high_water_max("no.such.prefix."), 0u);
}

TEST(MemLedger, MemScopeChargesAndReleasesExactly) {
  obs::MemLedger ledger;
  {
    obs::ScopedContext install(ledger);
    obs::MemScope scope("scoped.buffer", 4096);
    EXPECT_EQ(ledger.label_stats("scoped.buffer").current_bytes, 4096u);
    scope.add(1024);  // buffer grew after the scope opened
    EXPECT_EQ(ledger.label_stats("scoped.buffer").current_bytes, 5120u);
  }
  EXPECT_EQ(ledger.label_stats("scoped.buffer").current_bytes, 0u);
  EXPECT_EQ(ledger.label_stats("scoped.buffer").high_water_bytes, 5120u);

  // Without an installed ledger the helpers are no-ops.
  obs::MemScope dropped("scoped.buffer", 1 << 20);
  obs::mem_charge("scoped.buffer", 1 << 20);
  EXPECT_EQ(ledger.label_stats("scoped.buffer").current_bytes, 0u);
}

TEST(MemLedger, MemTrackerCountsElements) {
  obs::MemLedger ledger;
  obs::MemTracker inert;
  inert.charge_elements(1000);  // no ledger bound: nothing happens
  EXPECT_FALSE(inert);

  obs::MemTracker tracker(&ledger, "merge.resident.r0", kBytesPerElem);
  EXPECT_TRUE(static_cast<bool>(tracker));
  tracker.charge_elements(10);
  EXPECT_EQ(ledger.label_stats("merge.resident.r0").current_bytes,
            10 * kBytesPerElem);
  tracker.release_elements(4);
  EXPECT_EQ(ledger.label_stats("merge.resident.r0").current_bytes,
            6 * kBytesPerElem);
  EXPECT_EQ(ledger.label_stats("merge.resident.r0").high_water_bytes,
            10 * kBytesPerElem);
}

TEST(MemLedger, ScopedInstallIsNestable) {
  EXPECT_EQ(obs::context().ledger, nullptr);
  obs::MemLedger outer, inner;
  {
    obs::ScopedContext outer_scope(outer);
    obs::mem_charge("x", 1);
    {
      obs::ScopedContext inner_scope(inner);
      obs::mem_charge("x", 1);
    }
    obs::mem_charge("x", 1);
  }
  EXPECT_EQ(obs::context().ledger, nullptr);
  EXPECT_EQ(outer.label_stats("x").charges, 2u);
  EXPECT_EQ(inner.label_stats("x").charges, 1u);
}

// ------------------------------------------------------------ threading

TEST(MemLedger, ConcurrentChargesFromThePoolStayExact) {
  // Run under TSan in CI: lanes hammer one shared label and one private
  // label each through the real pool. Totals must come out exact — the
  // ledger's mutex is the only synchronization.
  obs::MemLedger ledger;
  obs::ScopedContext install(ledger);
  par::ThreadPool pool(4);
  constexpr int kLanes = 8;
  constexpr int kOps = 500;
  constexpr std::uint64_t kBytes = 64;

  pool.run(kLanes, [&](int lane) {
    const std::string mine = "lane.r" + std::to_string(lane);
    for (int i = 0; i < kOps; ++i) {
      obs::mem_charge("shared.buffer", kBytes);
      obs::mem_charge(mine, kBytes);
      obs::mem_release("shared.buffer", kBytes);
    }
  });

  // Shared label fully released; every private label still resident.
  EXPECT_EQ(ledger.label_stats("shared.buffer").current_bytes, 0u);
  EXPECT_EQ(ledger.label_stats("shared.buffer").charges,
            static_cast<std::uint64_t>(kLanes) * kOps);
  EXPECT_GE(ledger.label_stats("shared.buffer").high_water_bytes, kBytes);
  for (int lane = 0; lane < kLanes; ++lane) {
    const auto st =
        ledger.label_stats("lane.r" + std::to_string(lane));
    EXPECT_EQ(st.current_bytes, kOps * kBytes);
    EXPECT_EQ(st.high_water_bytes, kOps * kBytes);
  }
  EXPECT_EQ(ledger.total_charges(),
            static_cast<std::uint64_t>(kLanes) * kOps * 2);
}

// --------------------------------------------------------- audit channel

TEST(MemLedger, AuditJoinsPredictionsWithMeasurements) {
  obs::MemLedger ledger;
  ledger.predict("estimate.unpruned_nnz", 100.0);
  ledger.predict("estimate.unpruned_nnz", 200.0);
  ledger.measure("estimate.unpruned_nnz", 110.0);

  // FIFO join: only the matched pair reports.
  const auto pairs = ledger.audit_pairs("estimate.unpruned_nnz");
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].first, 100.0);
  EXPECT_DOUBLE_EQ(pairs[0].second, 110.0);

  obs::MetricsRegistry registry;
  ledger.publish(registry);
  const obs::Histogram* err =
      registry.histogram("estimate.unpruned_nnz.rel_error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->count(), 1u);
  EXPECT_NEAR(err->mean(), 10.0 / 110.0, 1e-12);
  ASSERT_NE(registry.histogram("estimate.unpruned_nnz.predicted"), nullptr);
  ASSERT_NE(registry.histogram("estimate.unpruned_nnz.measured"), nullptr);
}

TEST(MemLedger, PublishFoldsChargesIntoRegistry) {
  obs::MemLedger ledger;
  ledger.charge("a", 1024);
  ledger.charge("b", 4096);
  obs::MetricsRegistry registry;
  ledger.publish(registry);
  EXPECT_EQ(registry.counter("memory.charges"), 2u);
  const obs::Histogram* h = registry.histogram("memory.charge_bytes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  const obs::Histogram* hwm = registry.histogram("memory.hwm_bytes");
  ASSERT_NE(hwm, nullptr);
  EXPECT_EQ(hwm->count(), 2u);  // one value per label
  EXPECT_DOUBLE_EQ(hwm->max(), 4096.0);
}

// ------------------------------------------------- process peak sampling

TEST(MemLedger, ProcessPeakSampleAndCheckpoints) {
  const obs::ProcMemSample sample = obs::read_proc_mem();
#if defined(__linux__)
  ASSERT_TRUE(sample.available);
  EXPECT_GT(sample.vm_rss_bytes, 0u);
  EXPECT_GE(sample.vm_hwm_bytes, sample.vm_rss_bytes);
#endif

  obs::MemLedger ledger;
  ledger.checkpoint("after-setup");
  const auto cps = ledger.checkpoints();
  ASSERT_EQ(cps.size(), 1u);
  EXPECT_EQ(cps[0].name, "after-setup");
  EXPECT_EQ(cps[0].proc.available, sample.available);

  // Interval sampling: every 2nd charge drops an "auto" checkpoint.
  obs::MemLedger sampled;
  sampled.set_process_sample_interval(2);
  sampled.charge("x", 1);
  sampled.charge("x", 1);
  sampled.charge("x", 1);
  sampled.charge("x", 1);
  EXPECT_EQ(sampled.checkpoints().size(), 2u);
}

TEST(MemLedger, TimelineRecordsStampedPoints) {
  obs::MemLedger ledger;
  EXPECT_FALSE(ledger.timeline_enabled());
  double now = 0.0;
  ledger.enable_timeline([&now] { return now; });
  ASSERT_TRUE(ledger.timeline_enabled());
  ledger.charge("track", 100);
  now = 1.5;
  ledger.release("track", 40);
  const auto points = ledger.timeline();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].t, 0.0);
  EXPECT_EQ(points[0].current_bytes, 100u);
  EXPECT_DOUBLE_EQ(points[1].t, 1.5);
  EXPECT_EQ(points[1].label, "track");
  EXPECT_EQ(points[1].current_bytes, 60u);
}

// -------------------------------------------------- chrome-trace export

TEST(ChromeTrace, EmitsCounterEventsFromTheLedgerTimeline) {
  obs::MemLedger ledger;
  double now = 0.25;
  ledger.enable_timeline([&now] { return now; });
  ledger.charge("merge.resident.r0", 4096);

  sim::EventLog empty;
  std::ostringstream os;
  obs::write_chrome_trace(os, empty, &ledger);
  const std::string text = os.str();

  // Valid JSON (the perf-diff flattener doubles as the parser) with the
  // counter fields where Perfetto expects them.
  const obs::FlatDoc doc = obs::flatten_json(text);
  ASSERT_TRUE(doc.count("traceEvents.0.ph"));
  EXPECT_EQ(doc.at("traceEvents.0.ph").text, "C");
  EXPECT_EQ(doc.at("traceEvents.0.name").text, "merge.resident.r0");
  EXPECT_DOUBLE_EQ(doc.at("traceEvents.0.args.bytes").number, 4096.0);
  EXPECT_DOUBLE_EQ(doc.at("traceEvents.0.ts").number, 0.25 * 1e6);

  // Without a ledger the writer degrades to the plain event dump.
  std::ostringstream plain;
  obs::write_chrome_trace(plain, empty, nullptr);
  EXPECT_EQ(plain.str(), "{\"traceEvents\":[]}");
}

// ----------------------------------------------------- input staging

TEST(MemLedger, FromTriplesChargesTheStagingItHolds) {
  // DistMat::from_triples stages its input column-major: the column
  // pointers, one row and one value per input entry, and a (row, value)
  // scratch as long as the longest unsorted column past the 64-entry
  // insertion limit. The charge lasts until the staging, canonical in
  // place, becomes the matrix.
  dist::TriplesD t(100, 4);
  for (vidx_t r = 0; r < 10; ++r) t.push(r, 0, 1.0);       // short
  for (vidx_t r = 79; r >= 0; --r) t.push(r, 1, 1.0);      // long, unsorted
  for (vidx_t r = 0; r < 70; ++r) t.push(r, 2, 1.0);       // long, sorted
  for (vidx_t k = 0; k < 66; ++k) t.push(65 - k / 2, 3, 1.0);  // unsorted
  const std::uint64_t staging = 5 * sizeof(vidx_t) + t.nnz() * kBytesPerElem;
  const std::uint64_t pair_bytes = sizeof(std::pair<vidx_t, val_t>);

  obs::MemLedger ledger;
  {
    obs::ScopedContext install(ledger);
    (void)dist::DistMat::from_triples(t, dist::ProcGrid(4));
  }
  EXPECT_EQ(ledger.label_stats("dist.staging").charges, 1u);
  EXPECT_EQ(ledger.label_stats("dist.staging").high_water_bytes,
            staging + 80 * pair_bytes);
  EXPECT_EQ(ledger.label_stats("dist.staging").current_bytes, 0u);

  // Sorted columns need no scratch; duplicates still count as staged
  // entries until they are summed.
  dist::TriplesD sorted = t;
  sorted.sort_and_combine();
  sorted.push(99, 3, 1.0);
  sorted.push(99, 3, 2.0);
  obs::MemLedger sorted_ledger;
  {
    obs::ScopedContext install(sorted_ledger);
    (void)dist::DistMat::from_triples(sorted, dist::ProcGrid(4));
  }
  EXPECT_EQ(sorted_ledger.label_stats("dist.staging").high_water_bytes,
            5 * sizeof(vidx_t) + sorted.nnz() * kBytesPerElem);
  EXPECT_EQ(sorted_ledger.label_stats("dist.staging").current_bytes, 0u);
}

// ------------------------------------------------------------ summa product

TEST(MemLedger, SummaChargesTheProductWhileItIsBuilt) {
  // The phases' finished columns are held until the result exists: over
  // many phases "summa.product" rises to at least the result's CSC, and
  // every label drains when the call returns.
  dist::TriplesD t(120, 120);
  util::Xoshiro256 rng(61);
  for (int e = 0; e < 2400; ++e) {
    t.push(static_cast<vidx_t>(rng.bounded(120)),
           static_cast<vidx_t>(rng.bounded(120)), rng.uniform_pos());
  }
  const dist::ProcGrid grid(9);
  const dist::DistMat a = dist::DistMat::from_triples(t, grid);
  for (const bool prune : {false, true}) {
    SCOPED_TRACE(prune ? "pruned" : "unpruned");
    obs::MemLedger ledger;
    dist::SummaOptions opt;
    opt.phases = 5;
    if (prune) opt.prune = dist::PruneParams{};
    dist::SummaResult r{dist::DistMat(0, 0, grid), {}};
    {
      const obs::ScopedContext sinks(ledger);
      sim::SimState sim(sim::summit_like(9));
      r = dist::summa_multiply(a, a, sim, opt);
    }
    ASSERT_GT(r.c.nnz(), 0u);
    EXPECT_GE(ledger.label_stats("summa.product").high_water_bytes,
              r.c.to_csc().bytes());
    for (const auto& [label, st] : ledger.snapshot()) {
      EXPECT_EQ(st.current_bytes, 0u) << label;
    }
  }
}

// ------------------------------------------------------------ merge scratch

TEST(MemLedger, KwayMergeChargesItsScratchOnceFromTheCaller) {
  // The k-way merge is one pass on the calling thread into one buffer:
  // one "merge.scratch" charge on the caller's ledger at any pool width,
  // at least as large as the merged block.
  struct PoolGuard {
    ~PoolGuard() { par::set_threads(0); }
  } guard;
  par::set_threads(4);
  std::vector<dist::CscD> blocks;
  for (vidx_t b = 0; b < 3; ++b) {
    dist::TriplesD t(8, 6);  // rows b and b + 1 of every column
    for (vidx_t j = 0; j < 6; ++j) {
      t.push(b, j, 1.0);
      t.push(b + 1, j, 2.0);
    }
    blocks.push_back(sparse::csc_from_triples(std::move(t)));
  }

  obs::MemLedger ledger;
  dist::CscD merged;
  {
    obs::ScopedContext install(ledger);
    merged = merge::kway_merge(blocks);
  }
  ASSERT_EQ(merged.nnz(), 24u);
  const auto st = ledger.label_stats("merge.scratch");
  EXPECT_EQ(st.charges, 1u);
  EXPECT_GE(st.high_water_bytes, merged.bytes());
  EXPECT_EQ(st.current_bytes, 0u);
}

// ------------------------------------------------------------ end to end

core::MclResult ledger_run(sim::SimState& sim, obs::MemLedger* ledger,
                           obs::MetricsRegistry* registry,
                           sim::EventLog* trace) {
  gen::PlantedParams gp;
  gp.n = 150;
  gp.seed = 91;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  const core::HipMclConfig config = core::HipMclConfig::optimized();

  const obs::ScopedContext sinks(
      {.metrics = registry, .ledger = ledger, .events = trace});
  return core::run_hipmcl(g.edges, params, config, sim);
}

TEST(MemLedgerE2E, MergePeakMatchesLegacyElementCounters) {
  obs::MemLedger ledger;
  sim::SimState sim(sim::summit_like(4));
  const core::MclResult result = ledger_run(sim, &ledger, nullptr, nullptr);
  ASSERT_GT(result.iterations, 1);

  // The ledger's worst-rank merge track and the legacy per-iteration
  // element peaks count the same events in different units.
  std::uint64_t legacy_peak_elements = 0;
  for (const auto& it : result.iters) {
    legacy_peak_elements = std::max(legacy_peak_elements, it.merge_peak_max);
  }
  ASSERT_GT(legacy_peak_elements, 0u);
  EXPECT_EQ(ledger.prefix_high_water_max("merge.resident."),
            legacy_peak_elements * kBytesPerElem);

  // The per-rank labels exist — one per rank of the 2x2 grid.
  EXPECT_EQ(ledger.snapshot().count("merge.resident.r0"), 1u);
  EXPECT_EQ(ledger.snapshot().count("merge.resident.r3"), 1u);

  // All transient labels drained back to zero; SUMMA/staging tracks saw
  // traffic. The pipeline multiplies in SUMMA's phase pass, so its
  // accumulator, not a per-block hash table, holds the row state.
  for (const auto& [label, st] : ledger.snapshot()) {
    EXPECT_EQ(st.current_bytes, 0u) << label;
  }
  EXPECT_GT(ledger.label_stats("summa.bcast_payload").high_water_bytes, 0u);
  EXPECT_GT(ledger.label_stats("summa.accumulator").high_water_bytes, 0u);
  EXPECT_EQ(ledger.label_stats("spgemm.hash_table").high_water_bytes, 0u);
  EXPECT_GT(ledger.label_stats("dist.matrix").high_water_bytes, 0u);
  EXPECT_GT(ledger.label_stats("dist.staging").high_water_bytes, 0u);
}

// The fused prune keeps only each column's survivors, so the phase
// pass's accumulator never holds the unpruned product: on one rank and
// one phase its high water stays below the bytes of the unpruned chunk,
// which the pass once buffered whole.
TEST(MemLedgerE2E, AccumulatorHoldsLessThanTheUnprunedProduct) {
  gen::PlantedParams gp;
  gp.n = 600;
  gp.seed = 29;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 10;
  params.max_iters = 1;
  obs::MemLedger ledger;
  sim::SimState sim(sim::summit_like_cpu_only(1));
  core::MclResult result;
  {
    const obs::ScopedContext sinks(ledger);
    result = core::run_hipmcl(g.edges, params, core::HipMclConfig::original(),
                              sim);
  }
  ASSERT_EQ(result.iters.size(), 1u);
  const core::IterationReport& it = result.iters.front();
  ASSERT_EQ(it.phases, 1);
  const std::uint64_t unpruned_bytes =
      dist::CscD::bytes_for(gp.n, it.measured_unpruned_nnz);
  const std::uint64_t accumulator =
      ledger.label_stats("summa.accumulator").high_water_bytes;
  EXPECT_GT(accumulator, 0u);
  EXPECT_LT(accumulator, unpruned_bytes);
}

TEST(MemLedgerE2E, InstallingALedgerChangesNothing) {
  sim::SimState sim_a(sim::summit_like(4));
  const core::MclResult without = ledger_run(sim_a, nullptr, nullptr, nullptr);
  obs::MemLedger ledger;
  sim::SimState sim_b(sim::summit_like(4));
  const core::MclResult with = ledger_run(sim_b, &ledger, nullptr, nullptr);
  EXPECT_EQ(without.labels, with.labels);
  EXPECT_EQ(without.iterations, with.iterations);
  EXPECT_DOUBLE_EQ(without.elapsed, with.elapsed);
}

TEST(MemLedgerE2E, RunReportV4CarriesMeasuredActualsAndVmHwm) {
  obs::MemLedger ledger;
  obs::MetricsRegistry registry;
  sim::SimState sim(sim::summit_like(4));
  const core::MclResult result = ledger_run(sim, &ledger, &registry, nullptr);
  ledger.publish(registry);

  // The estimator audit populated without the uncharged exact pass:
  // measured actuals come free from the merged chunks.
  const obs::Histogram* err = registry.histogram("estimate.rel_error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->count(), static_cast<std::uint64_t>(result.iterations));
  ASSERT_NE(registry.histogram("estimate.unpruned_nnz.rel_error"), nullptr);
  ASSERT_NE(registry.histogram("memory.phase_bytes.rel_error"), nullptr);

  obs::RunInfo info;
  info.workload = "planted:150";
  const obs::RunReport report = obs::make_run_report(result, info, &registry);

  std::string why;
  const auto metas = report.records_of("run_meta");
  ASSERT_EQ(metas.size(), 1u);
  ASSERT_TRUE(obs::matches_schema(*metas[0], obs::run_meta_schema(), &why))
      << why;
  EXPECT_EQ(std::get<std::uint64_t>(*metas[0]->find("schema_version")), 7u);
#if defined(__linux__)
  EXPECT_GT(std::get<std::uint64_t>(*metas[0]->find("vm_hwm_bytes")), 0u);
#endif

  for (const auto* rec : report.records_of("iteration")) {
    ASSERT_TRUE(obs::matches_schema(*rec, obs::iteration_schema(), &why))
        << why;
    EXPECT_GT(std::get<std::uint64_t>(*rec->find("measured_unpruned_nnz")),
              0u);
    EXPECT_GE(std::get<double>(*rec->find("estimator_rel_error")), 0.0);
  }
}

TEST(MemLedgerE2E, FourLaneRunReportsAreReproducible) {
  // Every ledger charge the pipeline makes comes from the calling thread,
  // so two four-lane runs report the same records — the ledger's charge
  // distribution and per-label high waters included — apart from what
  // the host itself measures: the pool's busy and idle seconds and the
  // process high water.
  struct PoolGuard {
    ~PoolGuard() { par::set_threads(0); }
  } guard;
  par::set_threads(4);
  gen::PlantedParams gp;
  gp.n = 240;
  gp.seed = 93;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  const auto report = [&](const core::HipMclConfig& config,
                          const sim::MachineConfig& machine) {
    sim::SimState sim(machine);
    obs::MemLedger ledger;
    obs::MetricsRegistry registry;
    core::MclResult result;
    {
      const obs::ScopedContext sinks({.metrics = &registry, .ledger = &ledger});
      result = core::run_hipmcl(g.edges, params, config, sim);
    }
    ledger.publish(registry);
    obs::RunReport full = obs::make_run_report(result, obs::RunInfo{}, &registry);
    obs::RunReport kept;
    for (obs::Record r : full.records()) {
      const obs::Value* name = r.find("name");
      if (name && (*name == obs::Value{std::string("pool.busy_s")} ||
                   *name == obs::Value{std::string("pool.idle_s")})) {
        continue;
      }
      std::erase_if(r.fields,
                    [](const auto& f) { return f.first == "vm_hwm_bytes"; });
      kept.add(std::move(r));
    }
    std::ostringstream os;
    kept.write_jsonl(os);
    return os.str();
  };
  const std::pair<core::HipMclConfig, sim::MachineConfig> runs[] = {
      {core::HipMclConfig::optimized(), sim::summit_like(16)},
      {core::HipMclConfig::original(), sim::summit_like_cpu_only(16)}};
  for (const auto& [config, machine] : runs) {
    const std::string first = report(config, machine);
    EXPECT_NE(first.find("memory.charge_bytes"), std::string::npos);
    EXPECT_EQ(report(config, machine), first);
  }
}

TEST(MemLedgerE2E, ChromeTraceHoldsDurationAndCounterEvents) {
  obs::MemLedger ledger;
  sim::EventLog trace;
  sim::SimState sim(sim::summit_like(4));
  ledger.enable_timeline([&sim] { return sim.elapsed(); });
  ledger_run(sim, &ledger, nullptr, &trace);
  ASSERT_GT(trace.size(), 0u);
  ASSERT_FALSE(ledger.timeline().empty());

  const std::string path =
      testing::TempDir() + "/mem_ledger.chrome.json";
  obs::write_chrome_trace_file(path, trace, &ledger);

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Loads as JSON and holds both event kinds.
  EXPECT_NO_THROW(obs::flatten_json(text));
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("merge.resident.r0"), std::string::npos);
}

}  // namespace
