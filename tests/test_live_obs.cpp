// Live observability (docs/OBSERVABILITY.md "Live observability"):
// the per-job progress board and its cross-thread snapshot consistency
// (run under TSan in CI), the stall watchdog's fake-clock
// classification — zero wall-clock sleeps — the Prometheus text
// exposition, the atomic status-file rewrite, the loopback status
// server, and the contract that turning the live layer on changes no
// clustering bit.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hipmcl.hpp"
#include "gen/datasets.hpp"
#include "obs/expo.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "svc/health.hpp"
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

// ---------------------------------------------------------------------------
// ProgressBoard / JobProgress.

TEST(Progress, BoardRegistersFindsAndRejectsDuplicates) {
  obs::ProgressBoard board;
  auto a = board.add("a");
  auto b = board.add("b");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(board.size(), 2u);
  EXPECT_EQ(board.find("a").get(), a.get());
  EXPECT_EQ(board.find("nope"), nullptr);
  EXPECT_THROW(board.add("a"), std::invalid_argument);

  const auto snaps = board.snapshot();
  ASSERT_EQ(snaps.size(), 2u);  // registration order
  EXPECT_EQ(snaps[0].job, "a");
  EXPECT_EQ(snaps[1].job, "b");
  EXPECT_EQ(snaps[0].stage, obs::RunStage::kQueued);
  EXPECT_FALSE(snaps[0].started);
}

TEST(Progress, GaugesMoveTogetherAndWallClockFreezesAtFinish) {
  obs::ProgressBoard board;
  double fake_now = 100.0;
  board.set_clock([&fake_now] { return fake_now; });
  auto p = board.add("job");

  p->mark_started(board.now());
  fake_now = 103.5;
  p->set_stage(obs::RunStage::kExpand);
  p->record_iteration(3, 0.25, 4200, 1.5);
  p->record_iteration(4, 0.125, 3000, 2.0);
  p->set_ledger_bytes(1 << 20);

  obs::ProgressSnapshot s = board.snapshot().at(0);
  EXPECT_TRUE(s.started);
  EXPECT_FALSE(s.finished);
  EXPECT_EQ(s.stage, obs::RunStage::kExpand);
  EXPECT_EQ(s.iteration, 4u);
  EXPECT_DOUBLE_EQ(s.chaos, 0.125);
  EXPECT_EQ(s.live_nnz, 3000u);
  EXPECT_EQ(s.ledger_bytes, std::uint64_t{1} << 20);
  EXPECT_DOUBLE_EQ(s.virtual_s, 3.5);  // deltas accumulate
  EXPECT_DOUBLE_EQ(s.wall_s, 3.5);     // 103.5 - 100

  p->mark_finished(board.now());
  fake_now = 200.0;  // time marches on; the gauge must not
  s = board.snapshot().at(0);
  EXPECT_TRUE(s.finished);
  EXPECT_EQ(s.stage, obs::RunStage::kFinished);
  EXPECT_DOUBLE_EQ(s.wall_s, 3.5);
}

TEST(Progress, StageNamesCoverTheEnum) {
  for (int i = 0; i < obs::kNumRunStages; ++i) {
    EXPECT_NE(obs::to_string(static_cast<obs::RunStage>(i)), "unknown");
  }
}

// The seqlock contract, exercised cross-thread (TSan leg in CI): a
// reader never observes a torn update — iteration, chaos and nnz in one
// snapshot always come from the same record_iteration call — and the
// iteration gauge is monotone across snapshots.
TEST(Progress, SnapshotsAreConsistentAndMonotoneUnderConcurrentWrites) {
  obs::ProgressBoard board;
  auto p = board.add("writer");
  p->mark_started(board.now());

  constexpr std::uint64_t kIters = 20000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= kIters; ++i) {
      // chaos and nnz are functions of the iteration, so a mixed
      // snapshot is detectable.
      p->record_iteration(i, 1.0 / static_cast<double>(i), i * 10, 0.001);
    }
    done.store(true);
  });

  std::uint64_t last_iter = 0;
  std::uint64_t reads = 0;
  while (!done.load() || reads == 0) {
    const obs::ProgressSnapshot s = p->snapshot(board.now());
    if (s.iteration > 0) {
      EXPECT_GE(s.iteration, last_iter) << "iteration gauge went backwards";
      EXPECT_EQ(s.live_nnz, s.iteration * 10) << "torn snapshot";
      EXPECT_DOUBLE_EQ(s.chaos, 1.0 / static_cast<double>(s.iteration))
          << "torn snapshot";
      last_iter = s.iteration;
      ++reads;
    }
  }
  writer.join();
  const obs::ProgressSnapshot s = p->snapshot(board.now());
  EXPECT_EQ(s.iteration, kIters);
  EXPECT_GT(reads, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog classification — pure state machine on a fake clock.

obs::ProgressSnapshot running_snap(const std::string& id, std::uint64_t iter,
                                   double chaos) {
  obs::ProgressSnapshot s;
  s.job = id;
  s.started = true;
  s.iteration = iter;
  s.chaos = chaos;
  return s;
}

TEST(Watchdog, ClassifiesWaitingRunningSlowStalledFinished) {
  svc::WatchdogOptions opt;
  opt.enabled = true;
  opt.slow_after_s = 10;
  opt.stall_after_s = 60;
  svc::Watchdog wd(opt);

  obs::ProgressSnapshot queued;
  queued.job = "j";
  EXPECT_EQ(wd.sample({queued}, 0).at(0).health, svc::JobHealth::kWaiting);

  // First sight running at t=100: deadlines count from here.
  EXPECT_EQ(wd.sample({running_snap("j", 1, 0.5)}, 100).at(0).health,
            svc::JobHealth::kRunning);
  // Advancing keeps it running however much time passes between samples.
  EXPECT_EQ(wd.sample({running_snap("j", 2, 0.4)}, 109).at(0).health,
            svc::JobHealth::kRunning);
  // 10s with no advance: slow.
  const auto slow = wd.sample({running_snap("j", 2, 0.4)}, 119).at(0);
  EXPECT_EQ(slow.health, svc::JobHealth::kSlow);
  EXPECT_DOUBLE_EQ(slow.since_advance_s, 10);
  EXPECT_FALSE(slow.cancel_requested);  // report-only policy
  // 60s with no advance: stalled.
  EXPECT_EQ(wd.sample({running_snap("j", 2, 0.4)}, 169).at(0).health,
            svc::JobHealth::kStalled);
  // An advance resets the clock entirely.
  EXPECT_EQ(wd.sample({running_snap("j", 3, 0.3)}, 170).at(0).health,
            svc::JobHealth::kRunning);

  obs::ProgressSnapshot finished = running_snap("j", 3, 0.3);
  finished.finished = true;
  EXPECT_EQ(wd.sample({finished}, 171).at(0).health,
            svc::JobHealth::kFinished);
}

TEST(Watchdog, FlagsDivergenceAfterNondecreasingChaosRun) {
  svc::WatchdogOptions opt;
  opt.enabled = true;
  opt.slow_after_s = 1000;  // keep time out of the picture
  opt.stall_after_s = 2000;
  opt.diverge_after = 3;
  svc::Watchdog wd(opt);

  double t = 0;
  wd.sample({running_snap("j", 1, 0.5)}, t++);  // first sight, baseline
  // Three consecutive advances with non-decreasing chaos.
  wd.sample({running_snap("j", 2, 0.5)}, t++);
  wd.sample({running_snap("j", 3, 0.6)}, t++);
  const auto rep = wd.sample({running_snap("j", 4, 0.6)}, t++).at(0);
  EXPECT_EQ(rep.health, svc::JobHealth::kDiverging);
  // One decreasing advance breaks the run.
  EXPECT_EQ(wd.sample({running_snap("j", 5, 0.1)}, t++).at(0).health,
            svc::JobHealth::kRunning);
}

TEST(Watchdog, AutoCancelPolicyRequestsCancellation) {
  svc::WatchdogOptions opt;
  opt.enabled = true;
  opt.slow_after_s = 5;
  opt.stall_after_s = 10;
  opt.auto_cancel = true;
  svc::Watchdog wd(opt);

  wd.sample({running_snap("j", 1, 0.5)}, 0);
  EXPECT_FALSE(wd.sample({running_snap("j", 1, 0.5)}, 6).at(0)
                   .cancel_requested);  // slow: reported, not cancelled
  const auto rep = wd.sample({running_snap("j", 1, 0.5)}, 11).at(0);
  EXPECT_EQ(rep.health, svc::JobHealth::kStalled);
  EXPECT_TRUE(rep.cancel_requested);
}

// ---------------------------------------------------------------------------
// Scheduler + watchdog integration: a deliberately stalled job is
// flagged and auto-cancelled with zero wall-clock sleeps — stall time
// comes from an injected clock, and the job blocks on a condition
// variable, not a timer.

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

TEST(SchedulerWatchdog, FlagsAndCancelsAStalledJobOnAFakeClock) {
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

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> entered{false};
  svc::JobSpec spec = tiny_job("stuck");
  // The stall: after each completed iteration the job parks on the
  // condition variable until the test releases it.
  spec.config.on_iteration = [&](const core::IterationReport&) {
    entered.store(true);
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return release; });
  };

  svc::Scheduler scheduler(options);
  scheduler.submit(std::move(spec));
  while (!entered.load()) std::this_thread::yield();

  // First sight at t=0: running. (Board gauges already show the first
  // completed iteration — the progress wrapper runs before user hooks.)
  auto reports = scheduler.sample_health();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].health, svc::JobHealth::kRunning);
  EXPECT_GE(reports[0].iteration, 1u);

  fake_time.store(6);
  EXPECT_EQ(scheduler.sample_health().at(0).health, svc::JobHealth::kSlow);

  fake_time.store(11);
  reports = scheduler.sample_health();
  EXPECT_EQ(reports.at(0).health, svc::JobHealth::kStalled);
  EXPECT_TRUE(reports.at(0).cancel_requested);

  // The auto-cancel routed through Scheduler::cancel — unblock the job
  // and it must stop cooperatively at the next iteration boundary.
  {
    std::lock_guard<std::mutex> lk(m);
    release = true;
  }
  cv.notify_all();
  const svc::JobOutcome outcome = scheduler.wait("stuck");
  EXPECT_EQ(outcome.state, svc::JobState::kCancelled);

  const obs::MetricsRegistry metrics = scheduler.metrics_snapshot();
  EXPECT_GE(metrics.counter("svc.health.samples"), 3u);
  EXPECT_GE(metrics.counter("svc.health.slow"), 1u);
  EXPECT_GE(metrics.counter("svc.health.stalled"), 1u);
  EXPECT_EQ(metrics.counter("svc.health.auto_cancelled"), 1u);

  const auto rows = scheduler.jobs_snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].health, svc::JobHealth::kFinished);
  EXPECT_TRUE(rows[0].progress.finished);
}

TEST(SchedulerWatchdog, DisabledWatchdogSamplesNothing) {
  PoolGuard guard;
  par::set_threads(2);
  svc::Scheduler scheduler(svc::SchedulerOptions{});
  scheduler.submit(tiny_job("plain"));
  EXPECT_TRUE(scheduler.sample_health().empty());
  scheduler.drain();
  EXPECT_EQ(scheduler.metrics_snapshot().counter("svc.health.samples"), 0u);
}

// ---------------------------------------------------------------------------
// The live layer changes no clustering bit: the same spec run through
// the scheduler (progress hooks always installed) and run directly with
// no hooks at the same lane width produces identical labels and
// per-iteration trajectories.

TEST(SchedulerWatchdog, LiveLayerOnVsOffIsBitIdentical) {
  PoolGuard guard;
  par::set_threads(4);

  const svc::JobSpec spec = tiny_job("live");
  core::MclResult bare;
  {
    par::ScopedLaneCap cap(2);  // the scheduler's fair share at 4/2
    sim::SimState sim(sim::summit_like(spec.nodes));
    bare = core::run_hipmcl(spec.graph, spec.params, spec.config, sim);
  }

  svc::SchedulerOptions options;
  options.max_concurrent = 2;
  options.watchdog.enabled = true;
  options.watchdog.sample_interval_s = 0.001;  // hammer the board
  svc::Scheduler scheduler(options);
  scheduler.submit(spec);
  const svc::JobOutcome live = scheduler.drain().at(0);

  ASSERT_EQ(live.state, svc::JobState::kDone);
  EXPECT_EQ(live.labels, bare.labels);
  EXPECT_EQ(live.num_clusters, bare.num_clusters);
  EXPECT_EQ(live.iterations, bare.iterations);
  EXPECT_EQ(live.virtual_elapsed_s, bare.elapsed);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(Expo, NameAndLabelEscaping) {
  EXPECT_EQ(obs::prometheus_name("svc.jobs.submitted", "mclx"),
            "mclx_svc_jobs_submitted");
  EXPECT_EQ(obs::prometheus_name("a-b c", ""), "a_b_c");
  EXPECT_EQ(obs::prometheus_name("9lives", ""), "_9lives");
  EXPECT_EQ(obs::prometheus_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Expo, RegistryRendersCountersAndValueMetrics) {
  obs::MetricsRegistry reg;
  reg.add("svc.jobs.submitted", 3);
  reg.record("svc.queue.depth", 1);
  reg.record("svc.queue.depth", 2);
  reg.record("merge.ways", 2.0);
  reg.record("merge.ways", 4.0);
  reg.record("merge.ways", 4.0);

  const std::string text = obs::prometheus_text(&reg, nullptr);
  EXPECT_NE(text.find("# TYPE mclx_svc_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mclx_svc_jobs_submitted_total 3"), std::string::npos);
  EXPECT_NE(text.find("mclx_svc_queue_depth_count 2"), std::string::npos);
  EXPECT_NE(text.find("mclx_svc_queue_depth_sum 3.0"), std::string::npos);
  EXPECT_NE(text.find("mclx_svc_queue_depth_min 1.0"), std::string::npos);
  EXPECT_NE(text.find("mclx_svc_queue_depth_max 2.0"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mclx_merge_ways histogram"), std::string::npos);
  EXPECT_NE(text.find("mclx_merge_ways_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("mclx_merge_ways_count 3"), std::string::npos);
  EXPECT_NE(text.find("mclx_merge_ways_quantile{quantile=\"0.5\"}"),
            std::string::npos);

  // Buckets are cumulative and end at the total count.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t prev = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("mclx_merge_ways_bucket", 0) == 0) {
      const std::uint64_t v =
          std::stoull(line.substr(line.find('}') + 2));
      EXPECT_GE(v, prev);
      prev = v;
    }
  }
  EXPECT_EQ(prev, 3u);
}

TEST(Expo, JobGaugesCarryTheJobLabel) {
  obs::ProgressBoard board;
  board.set_clock([] { return 0.0; });
  auto p = board.add("we\"ird");
  p->mark_started(0);
  p->set_stage(obs::RunStage::kInflate);
  p->record_iteration(7, 0.5, 1234, 2.5);

  const auto jobs = board.snapshot();
  const std::string text = obs::prometheus_text(nullptr, &jobs);
  EXPECT_NE(text.find("mclx_job_iteration{job=\"we\\\"ird\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("mclx_job_live_nnz{job=\"we\\\"ird\"} 1234"),
            std::string::npos);
  EXPECT_NE(
      text.find("mclx_job_stage{job=\"we\\\"ird\",stage=\"inflate\"} 4"),
      std::string::npos);
  EXPECT_NE(text.find("mclx_job_active{job=\"we\\\"ird\"} 1"),
            std::string::npos);
}

TEST(Expo, EveryRegistryNameAppearsViaForEach) {
  obs::MetricsRegistry reg;
  reg.add("c.one");
  reg.record("a.two", 1);
  reg.record("b.three", 1);
  const std::string text = obs::prometheus_text(&reg, nullptr);
  for (const std::string& name : reg.names()) {
    EXPECT_NE(text.find(obs::prometheus_name(name, "mclx")),
              std::string::npos)
        << name;
  }
}

TEST(Expo, RunRegistryExposesEachSeriesOnce) {
  // A real run's registry: every sample series (name + labels) and every
  // # TYPE family appears exactly once. A value metric is one histogram
  // family plus _min/_max gauges, never a second _sum/_count pair.
  const gen::Dataset data = gen::make_dataset("archaea-mini", 0.2, 1);
  obs::MetricsRegistry registry;
  sim::SimState sim(sim::summit_like(4));
  {
    obs::ScopedMetrics scope(registry);
    core::run_hipmcl(data.graph.edges, {}, core::HipMclConfig::optimized(),
                     sim);
  }
  std::ostringstream os;
  obs::write_prometheus(os, registry);

  std::map<std::string, int> series, families;
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      ++families[line.substr(7, line.find(' ', 7) - 7)];
    } else if (!line.empty() && line[0] != '#') {
      ++series[line.substr(0, line.rfind(' '))];
    }
  }
  ASSERT_GT(series.size(), 100u);
  for (const auto& [name, n] : series) EXPECT_EQ(n, 1) << name;
  for (const auto& [name, n] : families) EXPECT_EQ(n, 1) << name;

  // Every value metric keeps its count/sum/min/max samples.
  for (const std::string base : {"mclx_mcl_chaos", "mclx_summa_spgemm_s"}) {
    for (const std::string suffix : {"_count", "_sum", "_min", "_max"}) {
      EXPECT_EQ(series.count(base + suffix), 1u) << base + suffix;
    }
  }
}

TEST(Expo, WriteFileAtomicReplacesAndLeavesNoTemp) {
  const std::string path = temp_path("expo_atomic.prom");
  obs::write_file_atomic(path, "first\n");
  obs::write_file_atomic(path, "second\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Expo, WriteFileAtomicUnlinksTempWhenRenameFails) {
  // Failure injection: the target is a directory, so the final rename
  // must fail — and the .tmp staging file must not survive the throw.
  const std::string path = temp_path("expo_atomic_dir_target");
  ASSERT_TRUE(std::filesystem::create_directory(path));
  EXPECT_THROW(obs::write_file_atomic(path, "doomed\n"),
               std::filesystem::filesystem_error);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(Expo, WriteFileAtomicThrowsCleanlyWhenOpenFails) {
  // Missing parent directory: the staging file cannot even open. No
  // .tmp may appear, and the error must surface as an exception.
  const std::string path = temp_path("no_such_dir") + "/status.prom";
  EXPECT_THROW(obs::write_file_atomic(path, "doomed\n"), std::exception);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------------
// StatusServer over localhost.

/// How long a test client waits for an answer before giving up: far
/// above the server's one-second request deadline, so a loaded host
/// cannot fail a test, while a server stuck on a client still fails it
/// instead of hanging it.
constexpr int kClientWaitSeconds = 10;

/// A loopback client connected to `port`.
int connect_client(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval wait{kClientWaitSeconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &wait, sizeof(wait));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Everything the server sends until it closes (or the wait runs out),
/// then closes the client.
std::string read_response(int fd) {
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_send(int port, const std::string& request) {
  const int fd = connect_client(port);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  return read_response(fd);
}

std::string http_get(int port, const std::string& target) {
  return http_send(port,
                   "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

TEST(StatusServer, ServesMetricsJobsAnd404OverLoopback) {
  std::atomic<int> metric_calls{0};
  obs::StatusServer::Content content;
  content.metrics_text = [&metric_calls] {
    metric_calls.fetch_add(1);
    return std::string("mclx_up 1\n");
  };
  content.jobs_json = [] { return std::string("[{\"id\":\"j\"}]"); };
  obs::StatusServer server(0, content);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("mclx_up 1\n"), std::string::npos);
  EXPECT_EQ(metric_calls.load(), 1);

  const std::string jobs = http_get(server.port(), "/jobs");
  EXPECT_NE(jobs.find("application/json"), std::string::npos);
  EXPECT_NE(jobs.find("[{\"id\":\"j\"}]"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
}

TEST(StatusServer, RendersContentPerRequestNotPerConstruction) {
  std::atomic<int> calls{0};
  obs::StatusServer::Content content;
  content.metrics_text = [&calls] {
    return "count " + std::to_string(calls.fetch_add(1) + 1) + "\n";
  };
  obs::StatusServer server(0, content);
  EXPECT_NE(http_get(server.port(), "/metrics").find("count 1"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics").find("count 2"),
            std::string::npos);
}

TEST(StatusServer, AnswersMalformedRequestLinesWith400) {
  obs::StatusServer::Content content;
  content.metrics_text = [] { return std::string("mclx_up 1\n"); };
  obs::StatusServer server(0, content);
  const std::string requests[] = {
      "POST /metrics HTTP/1.1\r\n\r\n", "GET\r\n\r\n",
      "GET metrics HTTP/1.1\r\n\r\n", "hello\n",
      // No line end within the longest request line the server reads.
      std::string(2048, 'G')};
  for (const std::string& request : requests) {
    EXPECT_NE(http_send(server.port(), request).find("400 Bad Request"),
              std::string::npos)
        << request.substr(0, 40);
  }
  // A query string does not change the route, and the server still
  // answers after the bad requests.
  EXPECT_NE(http_get(server.port(), "/metrics?x=1").find("mclx_up 1"),
            std::string::npos);
}

TEST(StatusServer, SilentClientDelaysNeitherMetricsNorShutdown) {
  obs::StatusServer::Content content;
  content.metrics_text = [] { return std::string("mclx_up 1\n"); };
  auto server = std::make_unique<obs::StatusServer>(0, content);
  const int port = server->port();

  // A client that connects and sends nothing: the server answers the
  // next client's scrape once the request deadline has passed, and the
  // silent one with a 408.
  const int silent = connect_client(port);
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("mclx_up 1\n"), std::string::npos);
  EXPECT_NE(read_response(silent).find("408 Request Timeout"),
            std::string::npos);

  // Destroying the server while a silent client is connected returns.
  const int second_silent = connect_client(port);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto destroyed = std::async(std::launch::async, [&server] { server.reset(); });
  const bool returned = destroyed.wait_for(std::chrono::seconds(
                            kClientWaitSeconds)) == std::future_status::ready;
  // Closing the client lets a server stuck on it finish, so the test
  // fails rather than hangs.
  ::close(second_silent);
  destroyed.wait();
  EXPECT_TRUE(returned);
}

}  // namespace
