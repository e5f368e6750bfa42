// Clustering-as-a-service (docs/SERVICE.md): scheduler lifecycle,
// priority ordering, per-job isolation under concurrency, streamed
// JSONL reports tagged with the job id, the svc.* metric aggregates,
// the manifest loader — and the headline guarantee, pinned at 1 and 4
// pool threads: a job cancelled at an iteration boundary and resumed
// from its checkpoint produces clusters and per-iteration trajectories
// bit-identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hipmcl.hpp"
#include "gen/datasets.hpp"
#include "obs/run_report.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "svc/health.hpp"
#include "svc/manifest.hpp"
#include "svc/scheduler.hpp"
#include "util/parallel.hpp"

namespace {

using namespace mclx;

/// Restores the default pool configuration when a test exits.
struct PoolGuard {
  ~PoolGuard() { par::set_threads(0); }
};

svc::JobSpec tiny_job(const std::string& id, std::uint64_t seed = 42) {
  svc::JobSpec spec;
  spec.id = id;
  spec.workload = "tiny";
  spec.config_name = "optimized";
  spec.graph = gen::make_dataset("tiny", 1.0, seed).graph.edges;
  spec.nodes = 4;
  spec.params.max_iters = 30;
  return spec;
}

/// The same run a tiny_job spec performs, executed directly (no
/// scheduler): the per-job isolation baseline. `lanes` reproduces the
/// scheduler's fair-share cap; clusters and the virtual trajectory are
/// bit-identical at any width, so the cap only changes execution.
core::MclResult direct_run(const svc::JobSpec& spec, int lanes = 0) {
  std::optional<par::ScopedLaneCap> cap;
  if (lanes > 0) cap.emplace(lanes);
  sim::SimState sim(sim::summit_like(spec.nodes));
  return core::run_hipmcl(spec.graph, spec.params, spec.config, sim);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Scheduler basics.

TEST(SvcScheduler, RunsConcurrentJobsWithPerJobIsolation) {
  PoolGuard guard;
  par::set_threads(4);
  // Four different graphs through two concurrent runners: every job must
  // produce exactly what a standalone run of its own spec produces.
  std::vector<svc::JobSpec> specs;
  for (int j = 0; j < 4; ++j) {
    specs.push_back(
        tiny_job("job" + std::to_string(j), 100 + static_cast<std::uint64_t>(j)));
  }
  std::vector<core::MclResult> expected;
  for (const auto& spec : specs) expected.push_back(direct_run(spec, 2));

  svc::SchedulerOptions options;
  options.max_concurrent = 2;
  svc::Scheduler scheduler(options);
  EXPECT_EQ(scheduler.lane_share(), 2);
  for (const auto& spec : specs) scheduler.submit(spec);
  const std::vector<svc::JobOutcome> outcomes = scheduler.drain();

  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    EXPECT_EQ(outcomes[j].id, specs[j].id);  // drain keeps submit order
    EXPECT_EQ(outcomes[j].state, svc::JobState::kDone);
    EXPECT_EQ(outcomes[j].labels, expected[j].labels);
    EXPECT_EQ(outcomes[j].num_clusters, expected[j].num_clusters);
    EXPECT_EQ(outcomes[j].iterations, expected[j].iterations);
    EXPECT_EQ(outcomes[j].virtual_elapsed_s, expected[j].elapsed);
    EXPECT_EQ(outcomes[j].lanes, 2);
    EXPECT_GT(outcomes[j].peak_bytes, 0u);
  }
}

TEST(SvcScheduler, RejectsZeroConcurrencyAndSharesAtLeastOneLane) {
  svc::SchedulerOptions bad;
  bad.max_concurrent = 0;
  EXPECT_THROW(svc::Scheduler{bad}, std::invalid_argument);
  bad.max_concurrent = -1;
  EXPECT_THROW(svc::Scheduler{bad}, std::invalid_argument);

  svc::SchedulerOptions crowded;
  crowded.max_concurrent = 4;
  crowded.pool_lanes = 3;
  EXPECT_EQ(svc::Scheduler(crowded).lane_share(), 1);
  svc::SchedulerOptions roomy;
  roomy.max_concurrent = 3;
  roomy.pool_lanes = 8;
  EXPECT_EQ(svc::Scheduler(roomy).lane_share(), 2);
}

TEST(SvcScheduler, StateAndHealthNamesAreStable) {
  // hipmcl_serve writes these names into its status JSON and table.
  EXPECT_EQ(svc::to_string(svc::JobState::kQueued), "queued");
  EXPECT_EQ(svc::to_string(svc::JobState::kRunning), "running");
  EXPECT_EQ(svc::to_string(svc::JobState::kDone), "done");
  EXPECT_EQ(svc::to_string(svc::JobState::kCancelled), "cancelled");
  EXPECT_EQ(svc::to_string(svc::JobState::kFailed), "failed");
  EXPECT_EQ(svc::to_string(svc::JobHealth::kWaiting), "waiting");
  EXPECT_EQ(svc::to_string(svc::JobHealth::kRunning), "running");
  EXPECT_EQ(svc::to_string(svc::JobHealth::kSlow), "slow");
  EXPECT_EQ(svc::to_string(svc::JobHealth::kStalled), "stalled");
  EXPECT_EQ(svc::to_string(svc::JobHealth::kDiverging), "diverging");
  EXPECT_EQ(svc::to_string(svc::JobHealth::kFinished), "finished");
}

TEST(SvcScheduler, AssignsIdsAndRejectsDuplicates) {
  svc::Scheduler scheduler;
  svc::JobSpec spec = tiny_job("");
  const std::string id = scheduler.submit(spec);
  EXPECT_FALSE(id.empty());
  svc::JobSpec dup = tiny_job("dup");
  scheduler.submit(dup);
  EXPECT_THROW(scheduler.submit(tiny_job("dup")), std::invalid_argument);
  EXPECT_THROW(scheduler.state("nonexistent"), std::invalid_argument);
}

TEST(SvcScheduler, HoldReleasesInPriorityOrder) {
  PoolGuard guard;
  par::set_threads(2);
  // One runner, gate held: the whole batch is queued before anything
  // dispatches, so dispatch order is pure scheduling policy — priority
  // descending, submit order within a priority.
  svc::SchedulerOptions options;
  options.max_concurrent = 1;
  options.hold = true;
  svc::Scheduler scheduler(options);

  std::mutex mu;
  std::vector<std::string> started;
  auto tracked = [&](const std::string& id, int priority) {
    svc::JobSpec spec = tiny_job(id);
    spec.priority = priority;
    spec.params.max_iters = 2;
    spec.config.on_iteration = [&mu, &started, id](
                                   const core::IterationReport& it) {
      if (it.iter > 1) return;  // record each job once, at its 1st iter
      std::lock_guard<std::mutex> lk(mu);
      started.push_back(id);
    };
    return spec;
  };
  scheduler.submit(tracked("low", 0));
  scheduler.submit(tracked("mid-a", 3));
  scheduler.submit(tracked("high", 7));
  scheduler.submit(tracked("mid-b", 3));
  EXPECT_EQ(scheduler.queue_depth(), 4);
  EXPECT_EQ(scheduler.running(), 0);

  scheduler.release();
  scheduler.drain();
  EXPECT_EQ(started,
            (std::vector<std::string>{"high", "mid-a", "mid-b", "low"}));
}

TEST(SvcScheduler, CancelsQueuedJobWithoutRunningIt) {
  svc::SchedulerOptions options;
  options.max_concurrent = 1;
  options.hold = true;
  svc::Scheduler scheduler(options);
  scheduler.submit(tiny_job("victim"));
  EXPECT_TRUE(scheduler.cancel("victim"));
  EXPECT_EQ(scheduler.state("victim"), svc::JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel("victim"));  // already terminal
  EXPECT_FALSE(scheduler.cancel("unknown"));
  const std::vector<svc::JobOutcome> outcomes = scheduler.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].state, svc::JobState::kCancelled);
  EXPECT_EQ(outcomes[0].iterations, 0);
}

TEST(SvcScheduler, AggregatesServiceMetrics) {
  PoolGuard guard;
  par::set_threads(2);
  svc::SchedulerOptions options;
  options.max_concurrent = 2;
  svc::Scheduler scheduler(options);
  for (int j = 0; j < 3; ++j) {
    scheduler.submit(tiny_job("m" + std::to_string(j)));
  }
  scheduler.drain();
  const obs::MetricsRegistry m = scheduler.metrics_snapshot();
  EXPECT_EQ(m.counter("svc.jobs.submitted"), 3u);
  EXPECT_EQ(m.counter("svc.jobs.completed"), 3u);
  EXPECT_EQ(m.counter("svc.jobs.cancelled"), 0u);
  EXPECT_GT(m.counter("svc.iterations"), 0u);
  ASSERT_NE(m.histogram("svc.queue.depth"), nullptr);
  ASSERT_NE(m.histogram("svc.lanes.occupied"), nullptr);
  ASSERT_NE(m.histogram("svc.job.peak_bytes"), nullptr);
  ASSERT_NE(m.histogram("svc.job.wait_s"), nullptr);
  ASSERT_NE(m.histogram("svc.job.run_s"), nullptr);
  const obs::Histogram* virt = m.histogram("svc.job.virtual_s");
  ASSERT_NE(virt, nullptr);
  EXPECT_EQ(virt->count(), 3u);
}

// ---------------------------------------------------------------------------
// Streamed per-job reports.

TEST(SvcScheduler, StreamsSchemaValidReportTaggedWithJobId) {
  PoolGuard guard;
  par::set_threads(2);
  const std::string path = temp_path("svc_stream.jsonl");
  svc::JobSpec spec = tiny_job("tagged");
  spec.report_path = path;
  svc::Scheduler scheduler;
  scheduler.submit(spec);
  const std::vector<svc::JobOutcome> outcomes = scheduler.drain();
  ASSERT_EQ(outcomes[0].state, svc::JobState::kDone);

  const obs::RunReport report = obs::RunReport::read_jsonl_file(path);
  std::string why;
  const auto metas = report.records_of("run_meta");
  ASSERT_EQ(metas.size(), 1u);
  ASSERT_TRUE(obs::matches_schema(*metas[0], obs::run_meta_schema(), &why))
      << why;
  EXPECT_EQ(std::get<std::string>(*metas[0]->find("job_id")), "tagged");
  EXPECT_EQ(std::get<std::uint64_t>(*metas[0]->find("schema_version")),
            obs::kReportSchemaVersion);

  const auto iters = report.records_of("iteration");
  ASSERT_EQ(iters.size(), static_cast<std::size_t>(outcomes[0].iterations));
  for (const auto* rec : iters) {
    ASSERT_TRUE(obs::matches_schema(*rec, obs::iteration_schema(), &why))
        << why;
  }
  const auto summaries = report.records_of("run_summary");
  ASSERT_EQ(summaries.size(), 1u);
  ASSERT_TRUE(
      obs::matches_schema(*summaries[0], obs::run_summary_schema(), &why))
      << why;
  // The job's own metrics stream between the iterations and the summary.
  EXPECT_FALSE(report.records_of("counter").empty());
  // First record is the meta (written before the run), last the summary.
  EXPECT_EQ(report.records().front().type, "run_meta");
  EXPECT_EQ(report.records().back().type, "run_summary");
}

// ---------------------------------------------------------------------------
// Cancel + resume: the bitwise continuation guarantee.

/// Cancelled-after-k-iterations then resumed-from-checkpoint must equal
/// the uninterrupted run bit for bit: same labels, same per-iteration
/// chaos / nnz, same virtual times (docs/SERVICE.md "Cancel and
/// resume"). Exercised at pool width 1 and 4 — the determinism
/// contract says the width must not matter.
class SvcCancelResume : public testing::TestWithParam<int> {
 protected:
  void SetUp() override { par::set_threads(GetParam()); }
  void TearDown() override { par::set_threads(0); }
};

TEST_P(SvcCancelResume, ResumedJobBitIdenticalToUninterrupted) {
  const std::string ckpt =
      temp_path("svc_resume_" + std::to_string(GetParam()) + ".ckpt");
  std::remove(ckpt.c_str());

  // The uninterrupted reference: same spec, no checkpointing, no cancel.
  const svc::JobSpec reference = tiny_job("reference");
  const core::MclResult uninterrupted = direct_run(reference);
  ASSERT_TRUE(uninterrupted.converged);
  ASSERT_GT(uninterrupted.iterations, 4);

  // One runner: the job's lane share is the whole pool, matching the
  // uncapped reference width.
  svc::SchedulerOptions options;
  options.max_concurrent = 1;
  svc::Scheduler scheduler(options);

  // Phase 1: the job cancels itself at the third iteration boundary
  // (deterministic, unlike a wall-clock cancel()) and checkpoints every
  // iteration so the boundary is captured.
  svc::JobSpec first = tiny_job("interrupted");
  first.checkpoint_path = ckpt;
  first.checkpoint_every = 1;
  std::atomic<int> completed{0};
  first.config.should_stop = [&completed] { return completed.load() >= 3; };
  first.config.on_iteration = [&completed](const core::IterationReport&) {
    completed.fetch_add(1);
  };
  scheduler.submit(first);
  const svc::JobOutcome cancelled = scheduler.wait("interrupted");
  ASSERT_EQ(cancelled.state, svc::JobState::kCancelled);
  ASSERT_EQ(cancelled.iterations, 3);

  // Phase 2: resubmit with the same checkpoint path — resumes at
  // iteration 4 and runs to convergence.
  svc::JobSpec second = tiny_job("resumed");
  second.checkpoint_path = ckpt;
  second.checkpoint_every = 1;
  scheduler.submit(second);
  const svc::JobOutcome resumed = scheduler.wait("resumed");
  ASSERT_EQ(resumed.state, svc::JobState::kDone);

  // Bit-identical clusters ...
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.labels, uninterrupted.labels);
  EXPECT_EQ(resumed.num_clusters, uninterrupted.num_clusters);
  EXPECT_EQ(cancelled.iterations + resumed.iterations,
            uninterrupted.iterations);

  std::remove(ckpt.c_str());
}

TEST_P(SvcCancelResume, ResumedTrajectoryMatchesBitwise) {
  const std::string ckpt =
      temp_path("svc_traj_" + std::to_string(GetParam()) + ".ckpt");
  std::remove(ckpt.c_str());

  const svc::JobSpec reference = tiny_job("ref");
  const core::MclResult uninterrupted = direct_run(reference);

  // Run the same job in two checkpointed halves through the scheduler,
  // streaming both halves' JSONL reports, then join the iteration
  // records and compare the whole trajectory bitwise.
  // Per-parameter names: ctest -j runs the instances as concurrent
  // processes in one temp dir, and a shared report file interleaves
  // their writes.
  const std::string suffix = std::to_string(GetParam()) + ".jsonl";
  const std::string report1 = temp_path("svc_traj_half1_" + suffix);
  const std::string report2 = temp_path("svc_traj_half2_" + suffix);
  svc::SchedulerOptions options;
  options.max_concurrent = 1;
  svc::Scheduler scheduler(options);

  svc::JobSpec half1 = tiny_job("half1");
  half1.checkpoint_path = ckpt;
  half1.checkpoint_every = 1;
  half1.report_path = report1;
  std::atomic<int> completed{0};
  half1.config.should_stop = [&completed] { return completed.load() >= 4; };
  half1.config.on_iteration = [&completed](const core::IterationReport&) {
    completed.fetch_add(1);
  };
  scheduler.submit(half1);
  ASSERT_EQ(scheduler.wait("half1").state, svc::JobState::kCancelled);

  svc::JobSpec half2 = tiny_job("half2");
  half2.checkpoint_path = ckpt;
  half2.checkpoint_every = 1;
  half2.report_path = report2;
  scheduler.submit(half2);
  ASSERT_EQ(scheduler.wait("half2").state, svc::JobState::kDone);

  std::vector<const obs::Record*> joined;
  const obs::RunReport r1 = obs::RunReport::read_jsonl_file(report1);
  const obs::RunReport r2 = obs::RunReport::read_jsonl_file(report2);
  for (const auto* rec : r1.records_of("iteration")) joined.push_back(rec);
  for (const auto* rec : r2.records_of("iteration")) joined.push_back(rec);
  ASSERT_EQ(joined.size(), uninterrupted.iters.size());
  for (std::size_t i = 0; i < joined.size(); ++i) {
    const core::IterationReport& expect = uninterrupted.iters[i];
    // Global iteration numbering continues across the resume ...
    EXPECT_EQ(std::get<std::uint64_t>(*joined[i]->find("iter")),
              static_cast<std::uint64_t>(expect.iter));
    // ... and the algorithmic floating-point trajectory is the
    // uninterrupted one, exactly.
    EXPECT_EQ(std::get<double>(*joined[i]->find("chaos")), expect.chaos);
    EXPECT_EQ(std::get<std::uint64_t>(*joined[i]->find("nnz_after_prune")),
              expect.nnz_after_prune);
    // Virtual-time deltas are near-identical, not bitwise: the resumed
    // job's simulator clock restarts at zero, so the same per-iteration
    // delta is computed against a different accumulated offset (FP
    // subtraction is not offset-invariant). The algorithmic state above
    // is what the bitwise contract covers.
    const double elapsed = std::get<double>(*joined[i]->find("elapsed_s"));
    EXPECT_NEAR(elapsed, expect.elapsed, 1e-9 * std::max(1.0, expect.elapsed));
  }

  std::remove(ckpt.c_str());
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, SvcCancelResume, testing::Values(1, 4));

TEST(SvcScheduler, ResubmittedFinishedCheckpointJobReturnsItsLabels) {
  // A job whose checkpoint already holds max_iters iterations runs none
  // on resubmission and still ends done with the stored matrix's labels.
  const std::string ckpt = temp_path("svc_finished.ckpt");
  std::remove(ckpt.c_str());
  svc::SchedulerOptions options;
  options.max_concurrent = 1;
  svc::Scheduler scheduler(options);
  const auto submit = [&](const std::string& id) {
    svc::JobSpec spec = tiny_job(id);
    spec.params.max_iters = 4;
    spec.checkpoint_path = ckpt;
    spec.checkpoint_every = 2;
    scheduler.submit(spec);
    return scheduler.wait(id);
  };
  const svc::JobOutcome first = submit("first");
  ASSERT_EQ(first.state, svc::JobState::kDone);
  ASSERT_EQ(first.iterations, 4);
  ASSERT_FALSE(first.labels.empty());

  const svc::JobOutcome again = submit("again");
  EXPECT_EQ(again.state, svc::JobState::kDone);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_EQ(again.labels, first.labels);
  EXPECT_EQ(again.num_clusters, first.num_clusters);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Manifest loading.

TEST(SvcManifest, ParsesJobsSkipsBlanksAndComments) {
  const std::string path = temp_path("svc_manifest.txt");
  {
    std::ofstream out(path);
    out << "# a comment line\n"
        << "\n"
        << "id=alpha workload=tiny priority=2 report=alpha.jsonl "
           "max-iters=7\n"
        << "id=beta workload=tiny scale=1.5 seed=9 config=no-overlap "
           "estimator=adaptive checkpoint=beta.ckpt checkpoint-every=3 "
           "inflation=1.8 select-k=50 cutoff=1e-3 recover=10 "
           "nodes=9  # trailing comment\n";
  }
  const std::vector<svc::JobSpec> jobs =
      svc::load_manifest(path, "/artifacts");
  ASSERT_EQ(jobs.size(), 2u);

  EXPECT_EQ(jobs[0].id, "alpha");
  EXPECT_EQ(jobs[0].workload, "tiny");
  EXPECT_EQ(jobs[0].priority, 2);
  EXPECT_EQ(jobs[0].params.max_iters, 7);
  EXPECT_EQ(jobs[0].report_path, "/artifacts/alpha.jsonl");
  EXPECT_EQ(jobs[0].config_name, "optimized");
  EXPECT_GT(jobs[0].graph.nnz(), 0u);

  EXPECT_EQ(jobs[1].id, "beta");
  EXPECT_EQ(jobs[1].nodes, 9);
  EXPECT_EQ(jobs[1].config_name, "no-overlap");
  EXPECT_EQ(jobs[1].config.estimator, core::EstimatorKind::kAdaptive);
  EXPECT_EQ(jobs[1].checkpoint_path, "/artifacts/beta.ckpt");
  EXPECT_EQ(jobs[1].checkpoint_every, 3);
  EXPECT_DOUBLE_EQ(jobs[1].params.inflation, 1.8);
  EXPECT_EQ(jobs[1].params.prune.select_k, 50);
  EXPECT_EQ(jobs[1].params.prune.recover_num, 10);
  // The two specs resolved different generator inputs.
  EXPECT_NE(jobs[0].graph.nnz(), jobs[1].graph.nnz());

  std::remove(path.c_str());
}

TEST(SvcManifest, RejectsTyposAndMissingWorkload) {
  svc::JobSpec spec;
  EXPECT_FALSE(svc::parse_manifest_line("", spec));
  EXPECT_FALSE(svc::parse_manifest_line("   # only a comment", spec));
  EXPECT_THROW(svc::parse_manifest_line("workload=tiny priorty=3", spec),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_manifest_line("id=x nodes=4", spec),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_manifest_line("workload=tiny nodes=four", spec),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_manifest_line("workload=tiny config=bogus", spec),
               std::invalid_argument);
}

TEST(SvcManifest, EstimatorNamesAndMalformedTokens) {
  svc::JobSpec spec;
  ASSERT_TRUE(svc::parse_manifest_line("workload=tiny estimator=exact", spec));
  EXPECT_EQ(spec.config.estimator, core::EstimatorKind::kExactSymbolic);
  ASSERT_TRUE(
      svc::parse_manifest_line("workload=tiny estimator=probabilistic", spec));
  EXPECT_EQ(spec.config.estimator, core::EstimatorKind::kProbabilistic);
  // Without estimator= the configuration keeps its own.
  ASSERT_TRUE(svc::parse_manifest_line("workload=tiny config=original", spec));
  EXPECT_EQ(spec.config.estimator,
            core::HipMclConfig::original().estimator);
  EXPECT_TRUE(spec.cpu_only_machine);

  EXPECT_THROW(svc::parse_manifest_line("workload=tiny estimator=guess", spec),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_manifest_line("workload=tiny nodes", spec),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_manifest_line("workload=tiny =4", spec),
               std::invalid_argument);
}

TEST(SvcManifest, MtxWorkloadResolvesAgainstTheArtifactDir) {
  const std::string mtx = temp_path("svc_manifest_graph.mtx");
  {
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate real general\n"
        << "3 3 2\n"
        << "1 2 0.5\n"
        << "2 1 0.5\n";
  }
  svc::JobSpec spec;
  ASSERT_TRUE(svc::parse_manifest_line("id=m workload=svc_manifest_graph.mtx",
                                       spec, testing::TempDir()));
  EXPECT_EQ(spec.workload, "svc_manifest_graph.mtx");
  EXPECT_EQ(spec.graph.nrows(), 3);
  EXPECT_EQ(spec.graph.nnz(), 2u);
  EXPECT_THROW(svc::parse_manifest_line("workload=absent.mtx", spec,
                                        testing::TempDir()),
               std::runtime_error);
  std::remove(mtx.c_str());
}

TEST(SvcManifest, LoadErrorsNameTheLineAndFile) {
  const std::string path = temp_path("svc_manifest_bad.txt");
  {
    std::ofstream out(path);
    out << "# header\n"
        << "id=ok workload=tiny\n"
        << "id=bad workload=tiny config=fastest\n";
  }
  try {
    svc::load_manifest(path, testing::TempDir());
    ADD_FAILURE() << "the unknown config was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown config: 'fastest'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("(line 3 of " + path + ")"), std::string::npos)
        << what;
  }
  std::remove(path.c_str());
  EXPECT_THROW(svc::load_manifest(path, testing::TempDir()),
               std::runtime_error);
}

// A numeric parse failure must name the key and the expected type, not
// just echo the offending token — the manifest author needs to know
// which field to fix.
TEST(SvcManifest, NumericParseErrorsNameKeyAndExpectedType) {
  svc::JobSpec spec;
  const auto message_of = [&spec](const std::string& line) {
    try {
      svc::parse_manifest_line(line, spec);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  const std::string ints = message_of("workload=tiny nodes=four");
  EXPECT_NE(ints.find("expected integer"), std::string::npos) << ints;
  EXPECT_NE(ints.find("'nodes'"), std::string::npos) << ints;
  EXPECT_NE(ints.find("'four'"), std::string::npos) << ints;

  const std::string doubles = message_of("workload=tiny inflation=two");
  EXPECT_NE(doubles.find("expected number"), std::string::npos) << doubles;
  EXPECT_NE(doubles.find("'inflation'"), std::string::npos) << doubles;
  EXPECT_NE(doubles.find("'two'"), std::string::npos) << doubles;

  // A numeric prefix with trailing junk is not a number.
  const std::string tail = message_of("workload=tiny scale=1.5x");
  EXPECT_NE(tail.find("expected number for key 'scale', got '1.5x'"),
            std::string::npos)
      << tail;
  // Out-of-range is a parse failure too, with the same message shape.
  const std::string range =
      message_of("workload=tiny max-iters=99999999999999999999");
  EXPECT_NE(range.find("expected integer for key 'max-iters'"),
            std::string::npos)
      << range;
}

// ---------------------------------------------------------------------------
// Hostile manifest lines: each is a named error or a correct parse.

/// Parses `line`: "" when it names a job, "blank" when it names none, else
/// the error, which must name the manifest, the generator or the dataset.
std::string manifest_error(const std::string& line, svc::JobSpec& spec) {
  try {
    if (!svc::parse_manifest_line(line, spec)) return "blank";
    return "";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    const bool named = what.rfind("svc manifest: ", 0) == 0 ||
                       what.rfind("make_dataset: ", 0) == 0 ||
                       what.rfind("unknown dataset: ", 0) == 0;
    EXPECT_TRUE(named) << what;
    return what;
  }
}

TEST(SvcManifestCorpus, EveryCaseIsANamedErrorOrACorrectParse) {
  struct Case {
    std::string line;
    const char* error;   ///< substring of the error; nullptr: parses
    vidx_t vertices;     ///< the generated graph's, when it parses
  };
  const char* const scale_rule = "scale must be a positive finite number";
  const std::vector<Case> cases = {
      // Scales with no graph: NaN, infinities, zero and negatives.
      {"workload=tiny scale=nan", scale_rule, 0},
      {"workload=tiny scale=NaN", scale_rule, 0},
      {"workload=tiny scale=inf", scale_rule, 0},
      {"workload=tiny scale=-inf", scale_rule, 0},
      {"workload=tiny scale=Infinity", scale_rule, 0},
      {"workload=tiny scale=0", scale_rule, 0},
      {"workload=tiny scale=-0", scale_rule, 0},
      {"workload=tiny scale=0.", scale_rule, 0},
      {"workload=tiny scale=-1", scale_rule, 0},
      // Huge exponents and counts.
      {"workload=tiny scale=1e400", "expected number for key 'scale'", 0},
      {"workload=tiny scale=1e-400", "expected number for key 'scale'", 0},
      {"workload=tiny scale=1e30", "make_dataset: scale must be positive", 0},
      {"workload=tiny nodes=99999999999", "expected integer for key 'nodes'", 0},
      {"workload=tiny seed=1e9", "expected integer for key 'seed'", 0},
      // A small positive scale keeps the 50-vertex floor.
      {"workload=tiny scale=1e-9", nullptr, 50},
      {"workload=tiny scale=.5", nullptr, 150},
      // CRLF and tabs are whitespace.
      {"workload=tiny scale=0.5\r", nullptr, 150},
      {"id=a\tworkload=tiny\tscale=0.5\r\n", nullptr, 150},
      // Trailing garbage.
      {"workload=tiny scale=0.5x", "expected number for key 'scale'", 0},
      {"workload=tiny nodes=4;", "expected integer for key 'nodes'", 0},
      {"workload=tiny junk", "expected key=value, got 'junk'", 0},
      {"workload=tiny scale=0.5 ==", "expected key=value, got '=='", 0},
      // Truncation.
      {"workload=tiny scale=", "expected number for key 'scale', got ''", 0},
      {"workload=", "job without workload=", 0},
      {"workload=tiny sca", "expected key=value, got 'sca'", 0},
      {"workload=ti", "unknown dataset: ti", 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.line);
    svc::JobSpec spec;
    const std::string error = manifest_error(c.line, spec);
    if (c.error) {
      EXPECT_NE(error.find(c.error), std::string::npos) << error;
      continue;
    }
    ASSERT_EQ(error, "");
    EXPECT_EQ(spec.graph.nrows(), c.vertices);
  }
}

TEST(SvcManifestCorpus, EveryBitFlipIsANamedErrorOrAParsedJob) {
  // A line that still parses names a job with a generated graph of at
  // least the 50-vertex floor, whatever the flip did to its fields.
  const std::string line = "id=alpha workload=tiny scale=0.25 nodes=4";
  int parsed = 0;
  for (std::size_t byte = 0; byte < line.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = line;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      svc::JobSpec spec;
      if (!manifest_error(bad, spec).empty()) continue;
      ++parsed;
      EXPECT_GE(spec.graph.nrows(), 50);
      EXPECT_GT(spec.graph.nnz(), 0u);
    }
  }
  EXPECT_GT(parsed, 0);
}

TEST(SvcManifestCorpus, EveryTruncationIsANamedErrorOrAParsedJob) {
  const std::string line = "id=alpha workload=tiny scale=0.25 nodes=4";
  for (std::size_t n = 0; n <= line.size(); ++n) {
    SCOPED_TRACE(line.substr(0, n));
    svc::JobSpec spec;
    const std::string error = manifest_error(line.substr(0, n), spec);
    if (error.empty()) {
      EXPECT_GE(spec.graph.nrows(), 50);
    }
  }
}

}  // namespace
