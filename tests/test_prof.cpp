// Post-mortems (docs/OBSERVABILITY.md): the lock-free flight recorder
// (record/merge/wrap/concurrency), the async-signal-safe dump path
// (including a forked child crashing mid-iteration), the scheduler's
// watchdog-routed stall post-mortem on a fake clock, and the headline
// contract that recording a run changes no clustering bit.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/hipmcl.hpp"
#include "gen/datasets.hpp"
#include "gen/planted.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_diff.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "obs/progress.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "svc/scheduler.hpp"
#include "util/parallel.hpp"

namespace {

using namespace mclx;

struct PoolGuard {
  ~PoolGuard() { par::set_threads(0); }
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// FlightRecorder: lock-free rings, merge order, wrap, dumps.

TEST(FlightRecorder, RecordsRoundTripAndMergeInTimeOrder) {
  obs::FlightRecorder rec;
  double now = 1.0;
  rec.set_clock([&now] { return now; });
  rec.record(obs::FrEventKind::kStage, "expand", 2);
  now = 2.0;
  rec.record(obs::FrEventKind::kIteration, "iter", 7, 1234, 0.25);
  now = 3.0;
  rec.record(obs::FrEventKind::kKernel, "cpu-hash", 99);

  const std::vector<obs::FrEvent> events = rec.merged();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(rec.total_recorded(), 3u);
  EXPECT_DOUBLE_EQ(events[0].t, 1.0);
  EXPECT_STREQ(events[0].name, "expand");
  EXPECT_EQ(events[0].kind, static_cast<std::uint32_t>(obs::FrEventKind::kStage));
  EXPECT_EQ(events[1].a, 7u);
  EXPECT_EQ(events[1].b, 1234u);
  EXPECT_DOUBLE_EQ(events[1].v, 0.25);
  EXPECT_STREQ(events[2].name, "cpu-hash");
  EXPECT_EQ(events[2].a, 99u);
}

TEST(FlightRecorder, TruncatesLongNamesTo15Bytes) {
  obs::FlightRecorder rec;
  rec.record(obs::FrEventKind::kMark, "a-very-long-event-name-indeed");
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "a-very-long-eve");
}

TEST(FlightRecorder, WrapsKeepingOnlyTheNewestEvents) {
  obs::FlightRecorder::Options opt;
  opt.num_rings = 1;
  opt.ring_capacity = 8;
  obs::FlightRecorder rec(opt);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(obs::FrEventKind::kMark, "m", i);
  }
  EXPECT_EQ(rec.total_recorded(), 20u);
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), 8u);
  for (const auto& e : events) EXPECT_GE(e.a, 12u);  // only the tail survives
}

TEST(FlightRecorder, ConcurrentWritersLoseNothingBelowCapacity) {
  obs::FlightRecorder::Options opt;
  opt.num_rings = 4;
  opt.ring_capacity = 4096;
  obs::FlightRecorder rec(opt);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        rec.record(obs::FrEventKind::kMark, "w", i,
                   static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.total_recorded(), kThreads * kPerThread);
  // Worst case every thread shares one 4096-slot ring; nothing wrapped.
  EXPECT_EQ(rec.merged().size(), kThreads * kPerThread);
}

TEST(FlightRecorder, DumpJsonParsesAndCarriesTheTimeline) {
  obs::FlightRecorder rec;
  double now = 0.5;
  rec.set_clock([&now] { return now; });
  rec.record(obs::FrEventKind::kStage, "expand", 2);
  now = 0.75;
  rec.record(obs::FrEventKind::kIteration, "iter", 1, 500, 0.9);

  const std::string text = rec.dump_json("jobX", "end-of-run");
  const obs::FlatDoc doc = obs::flatten_json(text);
  EXPECT_EQ(doc.at("job").text, "jobX");
  EXPECT_EQ(doc.at("reason").text, "end-of-run");
  EXPECT_DOUBLE_EQ(doc.at("total_recorded").number, 2.0);
  EXPECT_DOUBLE_EQ(doc.at("retained").number, 2.0);
  EXPECT_EQ(doc.at("events.0.kind").text, "stage");
  EXPECT_EQ(doc.at("events.0.name").text, "expand");
  EXPECT_EQ(doc.at("events.1.kind").text, "iteration");
  EXPECT_DOUBLE_EQ(doc.at("events.1.t").number, 0.75);
  EXPECT_DOUBLE_EQ(doc.at("events.1.b").number, 500.0);
}

TEST(FlightRecorder, DumpFileSucceedsAndFailsWithoutThrowing) {
  obs::FlightRecorder rec;
  rec.record(obs::FrEventKind::kMark, "m");
  const std::string path = temp_path("fr_dump.json");
  EXPECT_TRUE(rec.dump_file(path, "j", "on-demand"));
  EXPECT_NO_THROW(obs::flatten_json_file(path));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());

  EXPECT_FALSE(
      rec.dump_file(testing::TempDir() + "/no_such_dir/fr.json", "j", "r"));
}

TEST(FlightRecorder, SignalSafeDumpFdWritesTheSameSchema) {
  obs::FlightRecorder rec;
  double now = 1.25;
  rec.set_clock([&now] { return now; });
  rec.record(obs::FrEventKind::kKernel, "cpu-hash", 42, 0, 0.5);

  const std::string path = temp_path("fr_dump_fd.json");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  rec.dump_fd(fd, "jobY", "signal:SIGSEGV");
  ::close(fd);

  const obs::FlatDoc doc = obs::flatten_json(slurp(path));
  EXPECT_EQ(doc.at("job").text, "jobY");
  EXPECT_EQ(doc.at("reason").text, "signal:SIGSEGV");
  EXPECT_EQ(doc.at("events.0.kind").text, "kernel");
  EXPECT_EQ(doc.at("events.0.name").text, "cpu-hash");
  EXPECT_DOUBLE_EQ(doc.at("events.0.a").number, 42.0);
  EXPECT_DOUBLE_EQ(doc.at("events.0.t").number, 1.25);
  std::remove(path.c_str());
}

TEST(FlightRecorder, SinkScopeInstallsAndRestores) {
  EXPECT_EQ(obs::context().recorder, nullptr);
  obs::fr_record(obs::FrEventKind::kMark, "dropped");  // no sink: no-op
  obs::FlightRecorder outer_rec;
  {
    obs::ScopedContext outer(outer_rec);
    EXPECT_EQ(obs::context().recorder, &outer_rec);
    obs::FlightRecorder inner_rec;
    {
      obs::ScopedContext inner(inner_rec);
      obs::fr_record(obs::FrEventKind::kMark, "inner");
    }
    EXPECT_EQ(obs::context().recorder, &outer_rec);
    obs::fr_record(obs::FrEventKind::kMark, "outer");
    EXPECT_EQ(inner_rec.total_recorded(), 1u);
  }
  EXPECT_EQ(obs::context().recorder, nullptr);
  EXPECT_EQ(outer_rec.total_recorded(), 1u);
}

// ---------------------------------------------------------------------------
// End to end: recorder on vs off is bit-identical, and the recorder
// sees the run's stage/iteration/kernel timeline through the pool.

core::MclResult recorded_run(sim::SimState& sim,
                             obs::FlightRecorder* recorder) {
  gen::PlantedParams gp;
  gp.n = 150;
  gp.seed = 91;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  const obs::ScopedContext sinks({.recorder = recorder});
  return core::run_hipmcl(g.edges, params, core::HipMclConfig::optimized(),
                          sim);
}

TEST(ProfE2E, RecorderOnVsOffIsBitIdentical) {
  PoolGuard guard;
  par::set_threads(4);

  sim::SimState sim_off(sim::summit_like(4));
  const core::MclResult off = recorded_run(sim_off, nullptr);

  obs::FlightRecorder recorder;
  sim::SimState sim_on(sim::summit_like(4));
  const core::MclResult on = recorded_run(sim_on, &recorder);

  // The headline contract: instrumentation wraps, never alters.
  EXPECT_EQ(on.labels, off.labels);
  EXPECT_EQ(on.num_clusters, off.num_clusters);
  EXPECT_EQ(on.iterations, off.iterations);
  EXPECT_DOUBLE_EQ(on.elapsed, off.elapsed);
  ASSERT_EQ(on.iters.size(), off.iters.size());
  for (std::size_t i = 0; i < on.iters.size(); ++i) {
    EXPECT_EQ(on.iters[i].nnz_after_prune, off.iters[i].nnz_after_prune) << i;
    EXPECT_DOUBLE_EQ(on.iters[i].chaos, off.iters[i].chaos) << i;
    EXPECT_EQ(on.iters[i].flops, off.iters[i].flops) << i;
  }

  // ... and it did observe the run: the stage/iteration/kernel timeline
  // in the recorder.
  bool saw_stage = false, saw_iter = false, saw_kernel = false;
  for (const auto& e : recorder.merged()) {
    switch (static_cast<obs::FrEventKind>(e.kind)) {
      case obs::FrEventKind::kStage: saw_stage = true; break;
      case obs::FrEventKind::kIteration: saw_iter = true; break;
      case obs::FrEventKind::kKernel: saw_kernel = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_iter);
  EXPECT_TRUE(saw_kernel);
}

// ---------------------------------------------------------------------------
// Stall post-mortem through the scheduler watchdog — fake clock, zero
// wall-clock sleeps, same harness as test_live_obs's stall test.

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

TEST(ProfE2E, StalledJobPostMortemContainsTheTimeline) {
  PoolGuard guard;
  par::set_threads(2);

  std::atomic<double> fake_time{0};
  svc::SchedulerOptions options;
  options.max_concurrent = 1;
  options.watchdog.enabled = true;
  options.watchdog.sample_interval_s = 0;  // manual sample_health()
  options.watchdog.slow_after_s = 5;
  options.watchdog.stall_after_s = 10;
  options.watchdog.auto_cancel = true;
  options.watchdog.clock = [&fake_time] { return fake_time.load(); };
  options.postmortem_dir = testing::TempDir();

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> entered{false};
  svc::JobSpec spec = tiny_job("wedged");
  spec.config.on_iteration = [&](const core::IterationReport&) {
    entered.store(true);
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return release; });
  };

  svc::Scheduler scheduler(options);
  scheduler.submit(std::move(spec));
  while (!entered.load()) std::this_thread::yield();

  // Whatever happens below, unpark the job so the scheduler can settle
  // (a failed ASSERT must not leave its destructor waiting forever).
  struct Release {
    std::mutex& m;
    std::condition_variable& cv;
    bool& flag;
    ~Release() {
      {
        std::lock_guard<std::mutex> lk(m);
        flag = true;
      }
      cv.notify_all();
    }
  } release_guard{m, cv, release};

  scheduler.sample_health();  // first sight at t=0 arms the stall timer
  fake_time.store(11);
  const auto reports = scheduler.sample_health();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].health, svc::JobHealth::kStalled);

  // The watchdog's first stalled verdict dumped the job's recorder.
  const std::string path = testing::TempDir() + "/wedged.postmortem.json";
  const obs::FlatDoc doc = obs::flatten_json_file(path);
  EXPECT_EQ(doc.at("job").text, "wedged");
  EXPECT_EQ(doc.at("reason").text, "watchdog:stalled");
  bool saw_stage = false, saw_iter = false;
  for (const auto& [key, value] : doc) {
    if (key.find(".kind") == std::string::npos) continue;
    if (value.text == "stage") saw_stage = true;
    if (value.text == "iteration") saw_iter = true;
  }
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_iter);

  // A second sample must not re-dump (claimed once) — mtime aside, the
  // metric pins it.
  scheduler.sample_health();
  EXPECT_EQ(scheduler.metrics_snapshot().counter("svc.postmortems"), 1u);

  const auto rows = scheduler.jobs_snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].postmortem, path);

  {
    std::lock_guard<std::mutex> lk(m);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(scheduler.wait("wedged").state, svc::JobState::kCancelled);
  std::remove(path.c_str());
  (void)release_guard;
}

// ---------------------------------------------------------------------------
// Fatal-signal dump: a forked child crashes mid-iteration and the
// crash handler's async-signal-safe writer leaves a parseable dump.

TEST(ProfE2E, FatalSignalDumpSurvivesACrashingChild) {
  const std::string path = temp_path("crash.postmortem.json");
  std::remove(path.c_str());

  // Join the pool's worker threads before forking: the child must not
  // inherit a pool object whose threads exist only in the parent.
  par::shutdown();

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: run a tiny clustering (on its own freshly-built pool) with
    // the recorder armed, and crash from the iteration hook.
    par::set_threads(2);
    obs::FlightRecorder recorder;
    obs::install_crash_dump(&recorder, path);
    obs::ScopedContext scope(recorder);

    gen::PlantedParams gp;
    gp.n = 60;
    gp.seed = 7;
    const auto g = gen::planted_partition(gp);
    core::HipMclConfig config = core::HipMclConfig::optimized();
    config.on_iteration = [](const core::IterationReport& rep) {
      if (rep.iter >= 2) {
        volatile int* p = nullptr;
        *p = 1;  // SIGSEGV mid-iteration
      }
    };
    sim::SimState sim(sim::summit_like(4));
    core::run_hipmcl(g.edges, {}, config, sim);
    _exit(0);  // not reached: the crash above must fire
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited normally: " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "crash handler wrote no dump";
  const obs::FlatDoc doc = obs::flatten_json(text);
  EXPECT_EQ(doc.at("reason").text, "signal:SIGSEGV");
  bool saw_stage = false, saw_iter = false;
  for (const auto& [key, value] : doc) {
    if (key.find(".kind") == std::string::npos) continue;
    if (value.text == "stage") saw_stage = true;
    if (value.text == "iteration") saw_iter = true;
  }
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_iter);
  std::remove(path.c_str());
}

TEST(ProfE2E, CrashDumpInstallAndUninstallRoundTrip) {
  obs::FlightRecorder recorder;
  const std::string path = temp_path("never_written.json");
  EXPECT_TRUE(obs::install_crash_dump(&recorder, path));
  obs::uninstall_crash_dump();
  obs::uninstall_crash_dump();  // idempotent
  EXPECT_FALSE(std::ifstream(path).good());
}

}  // namespace
