// mclx::svc::Scheduler — clustering-as-a-service over one shared thread
// pool (docs/SERVICE.md).
//
// The paper's pipeline clusters one network per process; a service
// clusters many: submit() enqueues independent JobSpecs, `max_concurrent`
// runner threads dispatch them in priority order, and every running job
// drives its parallel kernels through the SAME process-wide par::pool().
// The pool's multi-driver job list (util/parallel.hpp) interleaves their
// lanes, and each runner holds a par::ScopedLaneCap at its fair share —
// floor(pool_lanes / max_concurrent), at least 1 — so N concurrent jobs
// split the machine instead of oversubscribing it. The share is a fixed
// function of the options, never of instantaneous load: per-job results
// and virtual-time trajectories stay deterministic (the determinism
// contract), which is what lets the saturation bench gate on svc.*
// fields and lets test_svc pin bit-identical cancel/resume.
//
// Per-job isolation: each job runs under its own obs::MetricsRegistry,
// obs::MemLedger and sim::SimState, installed thread-locally on the
// runner and propagated into pool workers by the pool's sink snapshot —
// concurrent jobs never share a sink. The scheduler aggregates
// scheduling-level svc.* metrics (catalogue in docs/OBSERVABILITY.md)
// into its own registry under the scheduler mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "obs/progress.hpp"
#include "svc/health.hpp"
#include "svc/job.hpp"

namespace mclx::svc {

struct SchedulerOptions {
  /// Jobs running at once (runner threads). Queued beyond this.
  int max_concurrent = 2;
  /// Pool lanes divided among the concurrent jobs; 0 = par::threads().
  int pool_lanes = 0;
  /// When true, submitted jobs stay queued until release() — lets a
  /// caller submit a batch and have priority order decided by the whole
  /// batch instead of submission timing (tests use this to make
  /// dispatch order observable).
  bool hold = false;
  /// Stall watchdog policy (svc/health.hpp). Disabled by default; when
  /// enabled with sample_interval_s > 0 the scheduler runs a sampling
  /// thread, otherwise call sample_health() on your own cadence.
  WatchdogOptions watchdog;
  /// When non-empty, flight-recorder post-mortems land here: the
  /// watchdog writes `<dir>/<job>.postmortem.json` the first time it
  /// classifies a job stalled/diverging, and write_postmortems() dumps
  /// every job with recorded events (the front end's SIGINT path). The
  /// directory must exist. Empty disables the dumps; the per-job
  /// recorders still run (they are the always-on part).
  std::string postmortem_dir;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Releases any hold, waits for every submitted job to reach a
  /// terminal state, then joins the runners.
  ~Scheduler();

  /// Enqueue a job; returns its id (spec.id, or an assigned one).
  /// Throws std::invalid_argument on a duplicate id.
  std::string submit(JobSpec spec);

  /// Request cancellation. A queued job is terminally cancelled at
  /// once; a running job stops cooperatively at its next iteration
  /// boundary (core::HipMclConfig::should_stop), writing a resumable
  /// checkpoint first when configured. Returns false when the id is
  /// unknown or the job already reached a terminal state.
  bool cancel(const std::string& id);

  /// Open the gate when options.hold was set (idempotent).
  void release();

  JobState state(const std::string& id) const;

  /// Block until the job is terminal; returns its outcome.
  /// Throws std::invalid_argument on an unknown id.
  JobOutcome wait(const std::string& id);

  /// Block until every job submitted so far is terminal; outcomes in
  /// submit order.
  std::vector<JobOutcome> drain();

  /// Jobs queued (not yet dispatched) / currently running.
  int queue_depth() const;
  int running() const;

  /// The fixed per-job lane share: max(1, pool_lanes / max_concurrent).
  int lane_share() const { return lane_share_; }

  /// Scheduling-level svc.* metrics (docs/OBSERVABILITY.md). Snapshot
  /// under the scheduler mutex — safe to call while jobs run.
  obs::MetricsRegistry metrics_snapshot() const;

  /// The live per-job progress board: one obs::JobProgress per submitted
  /// job, updated from the run loop's on_stage/on_iteration hooks and
  /// snapshot-readable without blocking writers. Valid for the
  /// scheduler's lifetime.
  const obs::ProgressBoard& board() const { return board_; }
  obs::ProgressBoard& board() { return board_; }

  /// One watchdog classification pass over the current board (no-op
  /// empty result when options.watchdog.enabled is false): publishes
  /// svc.health.* metrics and, under the auto_cancel policy, routes
  /// stalled/diverging jobs through cancel(). The background sampling
  /// thread calls this every sample_interval_s; call it directly for a
  /// front-end refresh tick or a fake-clock test.
  std::vector<HealthReport> sample_health();

  /// True when no submitted job is queued or running. Unlike drain()
  /// this never blocks — front ends poll it between status refreshes.
  bool all_settled() const;

  /// One row per submitted job for status surfaces: terminal state (or
  /// kQueued/kRunning), the watchdog's latest verdict (kWaiting until a
  /// sample has seen the job), and a progress snapshot. Submit order.
  struct LiveJob {
    std::string id;
    JobState state = JobState::kQueued;
    JobHealth health = JobHealth::kWaiting;
    obs::ProgressSnapshot progress;
    /// Path of this job's post-mortem dump, empty until one was written
    /// (watchdog stall/diverge dump or write_postmortems()).
    std::string postmortem;
  };
  std::vector<LiveJob> jobs_snapshot() const;

  /// Dump every job that recorded events to
  /// `options.postmortem_dir/<job>.postmortem.json` with `reason` —
  /// the graceful-shutdown path (front-end SIGINT). Returns the paths
  /// written; empty when postmortem_dir is unset.
  std::vector<std::string> write_postmortems(std::string_view reason);

 private:
  struct Handle {
    JobSpec spec;
    int seq = 0;  ///< submit index (priority tiebreak, drain order)
    JobState state = JobState::kQueued;
    std::atomic<bool> cancel_requested{false};
    std::chrono::steady_clock::time_point submitted{};
    JobOutcome outcome;
    /// This job's progress gauges on the board (never null).
    std::shared_ptr<obs::JobProgress> progress;
    /// Always-on flight recorder, installed thread-locally around the
    /// job's run and propagated into pool workers (never null).
    std::shared_ptr<obs::FlightRecorder> recorder;
    /// Post-mortem dump path once written ("" before); guarded by mu_.
    std::string postmortem_path;
  };

  void runner_loop();
  void watchdog_loop();
  /// Highest-priority queued handle (callers hold mu_); null when the
  /// queue is empty or held.
  std::shared_ptr<Handle> next_locked();
  std::shared_ptr<Handle> find_locked(const std::string& id) const;
  /// Execute `h` on this runner thread (no locks held).
  void execute(Handle& h);

  SchedulerOptions options_;
  int lane_share_ = 1;

  mutable std::mutex mu_;
  std::condition_variable dispatch_;  ///< queue became serviceable
  std::condition_variable settled_;   ///< some job reached terminal state
  std::vector<std::shared_ptr<Handle>> jobs_;  ///< submit order
  bool held_ = false;
  bool stop_ = false;
  int queued_ = 0;
  int running_ = 0;
  int next_seq_ = 0;
  obs::MetricsRegistry svc_metrics_;

  obs::ProgressBoard board_;

  // Watchdog state under its own mutex: sample_health() reads the board
  // (lock-free) and classifies without touching mu_, then takes mu_ only
  // to publish metrics and read job states — never both locks at once in
  // the other order, so there is no ordering cycle.
  mutable std::mutex wd_mu_;
  Watchdog watchdog_;
  std::map<std::string, JobHealth> last_health_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  std::thread wd_thread_;

  std::vector<std::thread> runners_;
};

}  // namespace mclx::svc
