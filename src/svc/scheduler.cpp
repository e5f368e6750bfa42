#include "svc/scheduler.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "obs/mem.hpp"
#include "obs/run_report.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace mclx::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

Scheduler::Scheduler(SchedulerOptions options)
    : options_(options), watchdog_(options.watchdog) {
  if (options_.max_concurrent < 1) {
    throw std::invalid_argument("svc::Scheduler: max_concurrent < 1");
  }
  const int lanes =
      options_.pool_lanes > 0 ? options_.pool_lanes : par::threads();
  lane_share_ = std::max(1, lanes / options_.max_concurrent);
  held_ = options_.hold;
  runners_.reserve(static_cast<std::size_t>(options_.max_concurrent));
  for (int r = 0; r < options_.max_concurrent; ++r) {
    runners_.emplace_back([this] { runner_loop(); });
  }
  if (options_.watchdog.enabled && options_.watchdog.sample_interval_s > 0) {
    wd_thread_ = std::thread([this] { watchdog_loop(); });
  }
}

Scheduler::~Scheduler() {
  drain();
  if (wd_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(wd_mu_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    wd_thread_.join();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  dispatch_.notify_all();
  for (auto& t : runners_) t.join();
}

std::string Scheduler::submit(JobSpec spec) {
  std::shared_ptr<Handle> h;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (spec.id.empty()) spec.id = "job-" + std::to_string(next_seq_);
    if (find_locked(spec.id)) {
      throw std::invalid_argument("svc::Scheduler: duplicate job id '" +
                                  spec.id + "'");
    }
    h = std::make_shared<Handle>();
    h->spec = std::move(spec);
    h->seq = next_seq_++;
    h->submitted = std::chrono::steady_clock::now();
    // Scheduler ids are unique for its whole lifetime (jobs_ keeps
    // terminal handles), so the board's own duplicate check can't fire.
    h->progress = board_.add(h->spec.id);
    // Always-on per-job flight recorder, stamped with the board clock —
    // the same (injectable) clock the watchdog classifies on, so a
    // fake-clock stall test produces a dump with a real timeline.
    h->recorder = std::make_shared<obs::FlightRecorder>();
    h->recorder->set_clock([this] { return board_.now(); });
    jobs_.push_back(h);
    ++queued_;
    svc_metrics_.add("svc.jobs.submitted");
    svc_metrics_.record("svc.queue.depth", queued_);
  }
  dispatch_.notify_one();
  return h->spec.id;
}

bool Scheduler::cancel(const std::string& id) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::shared_ptr<Handle> h = find_locked(id);
  if (!h) return false;
  switch (h->state) {
    case JobState::kQueued:
      // Never dispatched: terminal right here.
      h->state = JobState::kCancelled;
      h->outcome.id = h->spec.id;
      h->outcome.state = JobState::kCancelled;
      h->outcome.wait_s = seconds_since(h->submitted);
      --queued_;
      h->progress->mark_finished(board_.now());
      svc_metrics_.add("svc.jobs.cancelled");
      svc_metrics_.record("svc.queue.depth", queued_);
      settled_.notify_all();
      return true;
    case JobState::kRunning:
      h->cancel_requested.store(true, std::memory_order_relaxed);
      return true;
    case JobState::kDone:
    case JobState::kCancelled:
    case JobState::kFailed:
      return false;
  }
  return false;
}

void Scheduler::release() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    held_ = false;
  }
  dispatch_.notify_all();
}

JobState Scheduler::state(const std::string& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::shared_ptr<Handle> h = find_locked(id);
  if (!h) throw std::invalid_argument("svc::Scheduler: unknown job '" + id +
                                      "'");
  return h->state;
}

JobOutcome Scheduler::wait(const std::string& id) {
  std::unique_lock<std::mutex> lk(mu_);
  const std::shared_ptr<Handle> h = find_locked(id);
  if (!h) throw std::invalid_argument("svc::Scheduler: unknown job '" + id +
                                      "'");
  settled_.wait(lk, [&] {
    return h->state != JobState::kQueued && h->state != JobState::kRunning;
  });
  return h->outcome;
}

std::vector<JobOutcome> Scheduler::drain() {
  release();  // a held drain would otherwise never finish
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ids.reserve(jobs_.size());
    for (const auto& h : jobs_) ids.push_back(h->spec.id);
  }
  std::vector<JobOutcome> out;
  out.reserve(ids.size());
  for (const auto& id : ids) out.push_back(wait(id));
  return out;
}

int Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_;
}

int Scheduler::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return running_;
}

obs::MetricsRegistry Scheduler::metrics_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return svc_metrics_;
}

std::vector<HealthReport> Scheduler::sample_health() {
  if (!options_.watchdog.enabled) return {};
  const double now =
      options_.watchdog.clock ? options_.watchdog.clock() : board_.now();
  const std::vector<obs::ProgressSnapshot> snaps = board_.snapshot();
  std::vector<HealthReport> reports;
  {
    std::lock_guard<std::mutex> lk(wd_mu_);
    reports = watchdog_.sample(snaps, now);
    for (const HealthReport& r : reports) last_health_[r.job] = r.health;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    svc_metrics_.add("svc.health.samples");
    int running = 0;
    for (const HealthReport& r : reports) {
      switch (r.health) {
        case JobHealth::kRunning: ++running; break;
        case JobHealth::kSlow: svc_metrics_.add("svc.health.slow"); break;
        case JobHealth::kStalled: svc_metrics_.add("svc.health.stalled"); break;
        case JobHealth::kDiverging:
          svc_metrics_.add("svc.health.diverging");
          break;
        default: break;
      }
    }
    svc_metrics_.record("svc.health.running", running);
  }
  // Policy actions go through the public cancel() with no locks held —
  // it takes mu_ itself, and a queued job cancelled here settles
  // immediately just like a caller-issued cancel.
  for (const HealthReport& r : reports) {
    if (r.cancel_requested && cancel(r.job)) {
      std::lock_guard<std::mutex> lk(mu_);
      svc_metrics_.add("svc.health.auto_cancelled");
    }
  }
  // A stalled/diverging verdict triggers the job's post-mortem (once):
  // dumped before any auto-cancel completes, so the timeline shows what
  // the job was doing when the watchdog condemned it. File I/O happens
  // with no locks held; only the claim/publish steps take mu_.
  if (!options_.postmortem_dir.empty()) {
    for (const HealthReport& r : reports) {
      if (r.health != JobHealth::kStalled && r.health != JobHealth::kDiverging)
        continue;
      std::shared_ptr<Handle> h;
      {
        std::lock_guard<std::mutex> lk(mu_);
        h = find_locked(r.job);
        if (!h || !h->postmortem_path.empty()) continue;
        h->postmortem_path = options_.postmortem_dir + "/" + r.job +
                             ".postmortem.json";  // claimed: dump once
      }
      const std::string reason =
          "watchdog:" + std::string(to_string(r.health));
      const bool ok = h->recorder->dump_file(h->postmortem_path, r.job, reason);
      std::lock_guard<std::mutex> lk(mu_);
      if (ok) {
        svc_metrics_.add("svc.postmortems");
      } else {
        h->postmortem_path.clear();  // retry on the next verdict
      }
    }
  }
  return reports;
}

std::vector<std::string> Scheduler::write_postmortems(std::string_view reason) {
  std::vector<std::string> written;
  if (options_.postmortem_dir.empty()) return written;
  std::vector<std::shared_ptr<Handle>> handles;
  {
    std::lock_guard<std::mutex> lk(mu_);
    handles = jobs_;
  }
  for (const auto& h : handles) {
    if (h->recorder->total_recorded() == 0) continue;  // never dispatched
    const std::string path =
        options_.postmortem_dir + "/" + h->spec.id + ".postmortem.json";
    if (!h->recorder->dump_file(path, h->spec.id, reason)) continue;
    written.push_back(path);
    std::lock_guard<std::mutex> lk(mu_);
    h->postmortem_path = path;
    svc_metrics_.add("svc.postmortems");
  }
  return written;
}

bool Scheduler::all_settled() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_ == 0 && running_ == 0;
}

std::vector<Scheduler::LiveJob> Scheduler::jobs_snapshot() const {
  struct Row {
    std::string id;
    JobState state;
    std::shared_ptr<obs::JobProgress> progress;
    std::string postmortem;
  };
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lk(mu_);
    rows.reserve(jobs_.size());
    for (const auto& h : jobs_) {
      rows.push_back({h->spec.id, h->state, h->progress, h->postmortem_path});
    }
  }
  std::map<std::string, JobHealth> verdicts;
  {
    std::lock_guard<std::mutex> lk(wd_mu_);
    verdicts = last_health_;
  }
  const double now = board_.now();
  std::vector<LiveJob> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    LiveJob j;
    j.id = row.id;
    j.state = row.state;
    j.progress = row.progress->snapshot(now);
    j.postmortem = row.postmortem;
    // Watchdog verdict when one exists and the job is still live;
    // otherwise a sensible default so --watch reads right with the
    // watchdog off.
    switch (row.state) {
      case JobState::kQueued: j.health = JobHealth::kWaiting; break;
      case JobState::kRunning: j.health = JobHealth::kRunning; break;
      default: j.health = JobHealth::kFinished; break;
    }
    if (row.state == JobState::kRunning) {
      const auto it = verdicts.find(row.id);
      if (it != verdicts.end() && it->second != JobHealth::kFinished &&
          it->second != JobHealth::kWaiting) {
        j.health = it->second;
      }
    }
    out.push_back(std::move(j));
  }
  return out;
}

void Scheduler::watchdog_loop() {
  const auto interval =
      std::chrono::duration<double>(options_.watchdog.sample_interval_s);
  std::unique_lock<std::mutex> lk(wd_mu_);
  while (!wd_stop_) {
    wd_cv_.wait_for(lk, interval, [&] { return wd_stop_; });
    if (wd_stop_) return;
    lk.unlock();
    sample_health();
    lk.lock();
  }
}

std::shared_ptr<Scheduler::Handle> Scheduler::next_locked() {
  if (held_) return nullptr;
  std::shared_ptr<Handle> best;
  for (const auto& h : jobs_) {
    if (h->state != JobState::kQueued) continue;
    // Priority order, submit order within a priority (seq ascending —
    // jobs_ is already in seq order, so strict > keeps the first).
    if (!best || h->spec.priority > best->spec.priority) best = h;
  }
  return best;
}

std::shared_ptr<Scheduler::Handle> Scheduler::find_locked(
    const std::string& id) const {
  for (const auto& h : jobs_) {
    if (h->spec.id == id) return h;
  }
  return nullptr;
}

void Scheduler::runner_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    dispatch_.wait(lk, [&] { return stop_ || next_locked() != nullptr; });
    const std::shared_ptr<Handle> h = next_locked();
    if (!h) {
      if (stop_) return;
      continue;
    }
    h->state = JobState::kRunning;
    --queued_;
    ++running_;
    h->outcome.wait_s = seconds_since(h->submitted);
    svc_metrics_.record("svc.queue.depth", queued_);
    svc_metrics_.record("svc.lanes.occupied", running_ * lane_share_);
    lk.unlock();

    h->progress->mark_started(board_.now());
    execute(*h);  // fills h->outcome; h->state still kRunning for readers
    h->progress->mark_finished(board_.now());

    lk.lock();
    h->state = h->outcome.state;
    --running_;
    switch (h->outcome.state) {
      case JobState::kDone: svc_metrics_.add("svc.jobs.completed"); break;
      case JobState::kCancelled: svc_metrics_.add("svc.jobs.cancelled"); break;
      default: svc_metrics_.add("svc.jobs.failed"); break;
    }
    svc_metrics_.add("svc.iterations",
                     static_cast<std::uint64_t>(h->outcome.iterations));
    svc_metrics_.record("svc.lanes.share", h->outcome.lanes);
    // Wall-clock scheduling latencies (machine-dependent — the bench
    // reports them under its gate-ignored "real." keys) ...
    svc_metrics_.record("svc.job.wait_s", h->outcome.wait_s);
    svc_metrics_.record("svc.job.run_s", h->outcome.run_s);
    // ... and the deterministic per-job quantities the gate CAN pin:
    // virtual completion time and ledger-tracked peak bytes.
    svc_metrics_.record("svc.job.virtual_s", h->outcome.virtual_elapsed_s);
    svc_metrics_.record("svc.job.peak_bytes",
                         static_cast<double>(h->outcome.peak_bytes));
    settled_.notify_all();
  }
}

void Scheduler::execute(Handle& h) {
  const util::WallTimer run_wall;
  JobOutcome& out = h.outcome;
  out.id = h.spec.id;
  out.lanes = lane_share_;
  try {
    // Per-job sinks: this runner's obs::Context; pool lanes keep the
    // ledger and the recorder (the lane rule, obs/context.hpp).
    obs::MetricsRegistry job_metrics;
    obs::MemLedger job_ledger;
    const obs::ScopedContext sinks({.metrics = &job_metrics,
                                    .ledger = &job_ledger,
                                    .recorder = h.recorder.get()});
    par::ScopedLaneCap cap(lane_share_);

    sim::SimState sim(h.spec.cpu_only_machine
                          ? sim::summit_like_cpu_only(h.spec.nodes)
                          : sim::summit_like(h.spec.nodes));

    core::HipMclConfig config = h.spec.config;
    const std::function<bool()> user_stop = config.should_stop;
    std::atomic<bool>& cancel_flag = h.cancel_requested;
    config.should_stop = [&cancel_flag, user_stop] {
      return cancel_flag.load(std::memory_order_relaxed) ||
             (user_stop && user_stop());
    };

    // Live gauges: stage transitions and completed iterations land on
    // the job's board slot (this runner is the slot's single writer).
    // Installed unconditionally — the board is how the watchdog and the
    // status surfaces see the job, report file or not.
    obs::JobProgress& progress = *h.progress;
    const std::function<void(obs::RunStage)> user_stage = config.on_stage;
    config.on_stage = [&progress, user_stage](obs::RunStage s) {
      progress.set_stage(s);
      if (user_stage) user_stage(s);
    };
    const std::function<void(const core::IterationReport&)> progress_iter =
        config.on_iteration;
    config.on_iteration = [&progress, &job_ledger,
                           progress_iter](const core::IterationReport& it) {
      progress.record_iteration(static_cast<std::uint64_t>(it.iter), it.chaos,
                                it.nnz_after_prune,
                                static_cast<double>(it.elapsed));
      progress.set_ledger_bytes(
          static_cast<std::uint64_t>(job_ledger.total_current_bytes()));
      if (progress_iter) progress_iter(it);
    };

    // Streaming report: run_meta now, an iteration record per completed
    // iteration, metrics + run_summary after the run.
    std::ofstream stream;
    if (!h.spec.report_path.empty()) {
      stream.open(h.spec.report_path);
      if (!stream) {
        throw std::runtime_error("cannot write report " + h.spec.report_path);
      }
      obs::RunInfo info;
      info.workload = h.spec.workload;
      info.job_id = h.spec.id;
      info.config = h.spec.config_name;
      info.estimator = std::string(core::to_string(config.estimator));
      info.nodes = static_cast<std::uint64_t>(h.spec.nodes);
      info.nranks = static_cast<std::uint64_t>(sim.nranks());
      info.vertices = static_cast<std::uint64_t>(h.spec.graph.nrows());
      info.edges = h.spec.graph.nnz();
      info.threads = static_cast<std::uint64_t>(lane_share_);
      obs::write_record_jsonl(stream, obs::make_run_meta_record(info));
      stream.flush();
      const std::function<void(const core::IterationReport&)> user_iter =
          config.on_iteration;
      config.on_iteration = [&stream,
                             user_iter](const core::IterationReport& it) {
        obs::write_record_jsonl(stream, obs::make_iteration_record(it));
        stream.flush();
        if (user_iter) user_iter(it);
      };
    }

    const core::MclResult result =
        h.spec.checkpoint_path.empty()
            ? core::run_hipmcl(h.spec.graph, h.spec.params, config, sim)
            : core::run_hipmcl_checkpointed(h.spec.graph, h.spec.params,
                                            config, sim,
                                            h.spec.checkpoint_path,
                                            h.spec.checkpoint_every);

    if (stream.is_open()) {
      job_ledger.publish(job_metrics);
      obs::RunReport tail;
      obs::append_metrics_records(tail, job_metrics);
      for (const auto& r : tail.records()) obs::write_record_jsonl(stream, r);
      obs::write_record_jsonl(stream,
                              obs::make_run_summary_record(result));
      stream.flush();
    }

    out.labels = result.labels;
    out.num_clusters = result.num_clusters;
    out.iterations = result.iterations;
    out.converged = result.converged;
    out.virtual_elapsed_s = result.elapsed;
    out.peak_bytes = job_ledger.total_high_water_bytes();
    out.state = result.cancelled ? JobState::kCancelled : JobState::kDone;
  } catch (const std::exception& e) {
    out.state = JobState::kFailed;
    out.error = e.what();
  }
  out.run_s = run_wall.elapsed_s();
}

}  // namespace mclx::svc
