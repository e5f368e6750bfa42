// Prometheus-text-format exposition over the metrics registry and the
// live progress board (docs/OBSERVABILITY.md "Live observability").
//
// write_prometheus() maps the registry's two metric kinds onto the
// exposition format (https://prometheus.io/docs/instrumenting/exposition_formats/)
// with one family per sample name:
//
//   counter "svc.jobs.submitted" -> mclx_svc_jobs_submitted_total (counter)
//   histogram "merge.ways"       -> cumulative _bucket{le="2^e"} series +
//                                   _sum/_count (histogram),
//                                   _quantile{quantile="0.5|0.95|0.99"}
//                                   and _min/_max gauges
//
// write_prometheus_jobs() adds one gauge row per live job
// (mclx_job_iteration{job="x"}, mclx_job_chaos{...}, ...) from
// ProgressBoard snapshots. Iteration is via MetricsRegistry::for_each —
// name-sorted — so the text is deterministic for a given registry.
//
// StatusServer is the ~150-line live half: a minimal blocking loopback
// HTTP server answering GET /metrics (the exposition text) and GET /jobs
// (a JSON array of job snapshots), each rendered on demand by caller
// callbacks. hipmcl_serve wires both behind --status-out (atomic periodic
// file rewrite) and --status-port.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"

namespace mclx::obs {

struct ExpoOptions {
  /// Prepended to every metric name ("svc.jobs.submitted" ->
  /// "mclx_svc_jobs_submitted_total").
  std::string prefix = "mclx";
  /// Quantiles exported per histogram, as <name>_quantile gauges.
  std::vector<double> quantiles = {0.5, 0.95, 0.99};
};

/// Dots and any non-[a-zA-Z0-9_] become '_'; a leading digit gains a
/// '_' so the result is a legal Prometheus metric name.
std::string prometheus_name(std::string_view name, std::string_view prefix);

/// Escape a label value: backslash, double-quote and newline.
std::string prometheus_label_value(std::string_view value);

/// Export one registry as Prometheus text (# HELP/# TYPE + samples).
void write_prometheus(std::ostream& os, const MetricsRegistry& registry,
                      const ExpoOptions& options = {});

/// Export live job gauges, one labelled sample set per snapshot.
void write_prometheus_jobs(std::ostream& os,
                           const std::vector<ProgressSnapshot>& jobs,
                           const ExpoOptions& options = {});

/// Registry + live jobs in one exposition document (either part may be
/// null/empty).
std::string prometheus_text(const MetricsRegistry* registry,
                            const std::vector<ProgressSnapshot>* jobs,
                            const ExpoOptions& options = {});

/// Write `content` to `path` atomically: a scraper reading the file sees
/// either the previous complete document or the new one, never a torn
/// write. (tmp file + rename, same pattern as core::save_checkpoint.)
void write_file_atomic(const std::string& path, std::string_view content);

/// Minimal blocking loopback HTTP status endpoint. One accept loop on its
/// own thread, one request per connection, 127.0.0.1 only. GET /metrics
/// returns Content.metrics_text(), GET /jobs returns Content.jobs_json(),
/// and any other path is a 404. A request line that is not `GET <path>`
/// gets a 400, and one that has not arrived a second after the accept a
/// 408, so a silent client delays other requests and the destructor by
/// at most that second. Not a production web server — a scrape target.
class StatusServer {
 public:
  struct Content {
    std::function<std::string()> metrics_text;
    std::function<std::string()> jobs_json;
  };

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts
  /// serving. Throws std::runtime_error when the bind fails.
  StatusServer(int port, Content content);
  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;
  /// Stops the accept loop and joins the serving thread.
  ~StatusServer();

  /// The bound port (the kernel's pick when constructed with 0).
  int port() const { return port_; }

 private:
  void serve_loop();
  void handle(int fd);

  Content content_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace mclx::obs
