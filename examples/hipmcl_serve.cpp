// hipmcl_serve: clustering-as-a-service front end (docs/SERVICE.md).
//
// Reads a job manifest (one clustering request per line, see
// src/svc/manifest.hpp), submits every job to an mclx::svc::Scheduler
// running --max-concurrent jobs at once over the shared thread pool,
// and waits for all of them. Per-job JSONL reports stream while the
// jobs run (manifest `report=` key, tagged with the job id); the
// scheduler's own svc.* metrics can be written as a JSONL metrics
// report with --metrics-out.
//
// Live observability (docs/OBSERVABILITY.md "Live observability"):
// --status-out rewrites a Prometheus-text status file atomically every
// --status-interval-ms while jobs run; --status-port serves the same
// text at GET /metrics (plus GET /jobs as JSON) on loopback; --watch
// redraws an in-terminal job table per tick. --watchdog enables the
// stall watchdog (svc/health.hpp) — report-only unless
// --watchdog-cancel, which cancels stalled/diverging jobs through the
// scheduler's cooperative cancel.
//
// Post-mortems (docs/OBSERVABILITY.md "Post-mortems"):
// --postmortem-dir arms every job's flight recorder; the watchdog dumps
// `<dir>/<job>.postmortem.json` the first time it classifies a job
// stalled/diverging, and GET /jobs reports each job's dump path. SIGINT
// is a graceful shutdown: all jobs are cancelled cooperatively, the
// loop keeps running until they settle, every requested output
// (--metrics-out/--status-out) is still flushed, post-mortems for all
// in-flight jobs are written, and the exit status is 130.
//
//   ./hipmcl_serve --manifest jobs.manifest
//                  [--max-concurrent 2] [--out-dir .]
//                  [--metrics-out svc.jsonl] [--threads 0]
//                  [--status-out status.prom] [--status-port 0]
//                  [--status-interval-ms 500] [--status-linger-ms 0]
//                  [--watch] [--watchdog] [--watchdog-slow-s 10]
//                  [--watchdog-stall-s 60] [--watchdog-cancel]
//                  [--postmortem-dir dumps/]
//
// Exit code 0 when every job reached done or cancelled; 1 when any job
// failed (the per-job table shows the error); 130 on SIGINT.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "mclx.hpp"
#include "obs/expo.hpp"
#include "obs/json_writer.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

using namespace mclx;

// SIGINT → graceful shutdown: the live loop sees the flag, cancels all
// jobs once, and keeps polling until they settle. A handler may only
// touch lock-free state, so it just sets the flag.
std::atomic<bool> g_interrupted{false};
void on_sigint(int) { g_interrupted.store(true, std::memory_order_relaxed); }

/// The whole status document: scheduler svc.* metrics + live job gauges.
std::string status_text(svc::Scheduler& scheduler) {
  const obs::MetricsRegistry registry = scheduler.metrics_snapshot();
  const std::vector<obs::ProgressSnapshot> jobs = scheduler.board().snapshot();
  return obs::prometheus_text(&registry, &jobs);
}

/// GET /jobs: one object per submitted job, submit order.
std::string jobs_json(svc::Scheduler& scheduler) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_array();
  for (const auto& j : scheduler.jobs_snapshot()) {
    w.begin_object(obs::JsonWriter::Style::kCompact);
    w.field("id", j.id);
    w.field("state", svc::to_string(j.state));
    w.field("health", svc::to_string(j.health));
    w.field("stage", obs::to_string(j.progress.stage));
    w.field("iteration", j.progress.iteration);
    w.field("chaos", j.progress.chaos);
    w.field("live_nnz", j.progress.live_nnz);
    w.field("ledger_bytes", j.progress.ledger_bytes);
    w.field("virtual_s", j.progress.virtual_s);
    w.field("wall_s", j.progress.wall_s);
    w.field("postmortem", j.postmortem);
    w.end_object();
  }
  w.end_array();
  return os.str();
}

/// --watch: clear the terminal and redraw the live job table.
void draw_watch(svc::Scheduler& scheduler) {
  util::Table t("jobs (live)");
  t.header({"job", "state", "health", "stage", "iter", "chaos", "nnz",
            "virt s", "wall s"});
  for (const auto& j : scheduler.jobs_snapshot()) {
    t.row({j.id, std::string(svc::to_string(j.state)),
           std::string(svc::to_string(j.health)),
           std::string(obs::to_string(j.progress.stage)),
           std::to_string(j.progress.iteration),
           util::Table::fmt(j.progress.chaos, 4),
           std::to_string(j.progress.live_nnz),
           util::Table::fmt(j.progress.virtual_s, 1),
           util::Table::fmt(j.progress.wall_s, 1)});
  }
  std::cout << "\x1b[H\x1b[2J" << t.to_string() << std::flush;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const std::string manifest_path = cli.get("manifest", "",
      "job manifest file (required)");
  const int max_concurrent = static_cast<int>(cli.get_int("max-concurrent", 2,
      "jobs running at once"));
  const std::string out_dir = cli.get("out-dir", "",
      "directory for relative report/checkpoint paths");
  const std::string metrics_out = cli.get("metrics-out", "",
      "write the scheduler's svc.* metrics as JSONL here");
  const std::string status_out = cli.get("status-out", "",
      "rewrite a Prometheus-text status file here while jobs run");
  const int status_port = static_cast<int>(cli.get_int("status-port", -1,
      "serve GET /metrics + /jobs on 127.0.0.1:N (0 = ephemeral; -1 = off)"));
  const int status_interval_ms = static_cast<int>(cli.get_int(
      "status-interval-ms", 500, "status file / --watch refresh cadence"));
  const int status_linger_ms = static_cast<int>(cli.get_int(
      "status-linger-ms", 0, "keep the status endpoints up after the jobs"));
  const bool watch = cli.get_bool("watch", false,
      "redraw a live in-terminal job table per refresh");
  const bool watchdog = cli.get_bool("watchdog", false,
      "enable the stall watchdog (svc.health.* metrics)");
  const double watchdog_slow_s = cli.get_double("watchdog-slow-s", 10.0,
      "seconds without an iteration advance before a job is slow");
  const double watchdog_stall_s = cli.get_double("watchdog-stall-s", 60.0,
      "seconds without an iteration advance before a job is stalled");
  const bool watchdog_cancel = cli.get_bool("watchdog-cancel", false,
      "auto-cancel stalled/diverging jobs (default: report only)");
  const std::string postmortem_dir = cli.get("postmortem-dir", "",
      "write per-job flight-recorder dumps here on watchdog stall/diverge "
      "and on SIGINT");
  const std::string log_level = cli.get("log", "warn", "debug|info|warn|error");
  const int nthreads = par::register_threads_flag(cli);
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  cli.finish();
  util::set_log_level(util::parse_log_level(log_level));
  if (manifest_path.empty()) {
    std::cerr << "hipmcl_serve: --manifest is required (see --help)\n";
    return 1;
  }

  const std::vector<svc::JobSpec> specs =
      svc::load_manifest(manifest_path, out_dir);
  if (specs.empty()) {
    std::cerr << "hipmcl_serve: no jobs in " << manifest_path << "\n";
    return 1;
  }

  svc::SchedulerOptions options;
  options.max_concurrent = max_concurrent;
  options.watchdog.enabled = watchdog;
  options.watchdog.slow_after_s = watchdog_slow_s;
  options.watchdog.stall_after_s = watchdog_stall_s;
  options.watchdog.auto_cancel = watchdog_cancel;
  options.watchdog.sample_interval_s =
      std::max(0.1, status_interval_ms / 1000.0);
  options.postmortem_dir = postmortem_dir;
  svc::Scheduler scheduler(options);
  std::signal(SIGINT, on_sigint);
  if (!watch) {
    std::cout << "hipmcl_serve: " << specs.size() << " job"
              << (specs.size() == 1 ? "" : "s") << ", " << max_concurrent
              << " concurrent, " << scheduler.lane_share() << " of "
              << nthreads << " pool lanes per job\n";
  }

  std::unique_ptr<obs::StatusServer> server;
  if (status_port >= 0) {
    obs::StatusServer::Content content;
    content.metrics_text = [&scheduler] { return status_text(scheduler); };
    content.jobs_json = [&scheduler] { return jobs_json(scheduler); };
    server = std::make_unique<obs::StatusServer>(status_port, content);
    // Flushed: a CI harness backgrounds us and greps this line for the
    // ephemeral port before the run finishes.
    std::cout << "hipmcl_serve: status on http://127.0.0.1:" << server->port()
              << "/metrics" << std::endl;
  }

  for (svc::JobSpec spec : specs) scheduler.submit(std::move(spec));

  // Live loop: refresh the status surfaces until every job settles.
  // The status file is written before the first wait too, so even a
  // sub-interval run leaves a scrapable document behind. The loop always
  // runs (not just when a status surface is on) so SIGINT can be
  // observed between waits: the first observation cancels every job
  // cooperatively, then the loop continues until they settle and the
  // normal flush path below runs.
  const auto tick = std::chrono::milliseconds(std::max(10, status_interval_ms));
  bool interrupted = false;
  for (;;) {
    if (g_interrupted.load(std::memory_order_relaxed) && !interrupted) {
      interrupted = true;
      if (!watch) std::cout << "hipmcl_serve: SIGINT, cancelling jobs\n";
      for (const auto& j : scheduler.jobs_snapshot()) scheduler.cancel(j.id);
    }
    if (!status_out.empty()) {
      obs::write_file_atomic(status_out, status_text(scheduler));
    }
    if (watch) draw_watch(scheduler);
    if (scheduler.all_settled()) break;
    std::this_thread::sleep_for(tick);
  }

  const std::vector<svc::JobOutcome> outcomes = scheduler.drain();
  if (interrupted) {
    for (const std::string& path :
         scheduler.write_postmortems("signal:SIGINT")) {
      std::cout << "wrote post-mortem " << path << "\n";
    }
  }

  // Final rewrite so the file reflects the terminal states. One explicit
  // health sample first: a sub-interval run can settle before the
  // watchdog thread ever fires, and the svc.health.* families must still
  // appear in the terminal document.
  if (watchdog) scheduler.sample_health();
  if (!status_out.empty()) {
    obs::write_file_atomic(status_out, status_text(scheduler));
  }
  if (watch) draw_watch(scheduler);

  util::Table t("jobs");
  t.header({"job", "state", "iters", "clusters", "virtual s", "wait s",
            "run s"});
  bool any_failed = false;
  for (const auto& o : outcomes) {
    t.row({o.id, std::string(svc::to_string(o.state)),
           std::to_string(o.iterations), std::to_string(o.num_clusters),
           util::Table::fmt(o.virtual_elapsed_s, 1),
           util::Table::fmt(o.wait_s, 3), util::Table::fmt(o.run_s, 3)});
    if (o.state == svc::JobState::kFailed) {
      any_failed = true;
      std::cerr << "hipmcl_serve: job " << o.id << " failed: " << o.error
                << "\n";
    }
  }
  std::cout << t.to_string();

  if (!metrics_out.empty()) {
    const obs::MetricsRegistry registry = scheduler.metrics_snapshot();
    obs::make_metrics_report(registry).write_jsonl_file(metrics_out);
    std::cout << "wrote svc metrics to " << metrics_out << "\n";
  }
  if (server && status_linger_ms > 0) {
    // Leave the endpoints up for a scraper that started late (CI curls
    // the port after launching us in the background).
    std::this_thread::sleep_for(std::chrono::milliseconds(status_linger_ms));
  }
  if (interrupted) return 130;  // the shell's SIGINT convention
  return any_failed ? 1 : 0;
} catch (const std::exception& e) {
  std::cerr << "hipmcl_serve: " << e.what() << "\n";
  return 1;
}
