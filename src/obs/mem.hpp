// Memory ledger: byte accounting for the structures the cost model
// reasons about. Layers charge/release bytes under dot-scoped labels
// ("merge.resident.r3", "spgemm.hash_table", "dist.staging", ...); the
// ledger tracks current and high-water bytes per label, samples the
// process peak from /proc/self/status, and keeps an audit channel that
// joins the estimator's predictions (Cohen nnz, planner bytes) against
// measured actuals.
//
// Installed through the thread's obs::Context (obs/context.hpp):
// recording is off by default — instrumentation sites are a null check —
// and installing a ledger never changes what the pipeline computes.
// Unlike MetricsRegistry the ledger IS thread-safe: a laned hash_spgemm
// charges its accumulators from pool lanes (which keep the ledger), so
// every mutating entry point takes an internal mutex. Charges are per
// allocation (accumulator, chunk buffer, merge push), not per element,
// so the lock is far off the hot path.
//
// Label conventions and the full catalogue live in docs/OBSERVABILITY.md
// ("Memory observability").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/context.hpp"
#include "obs/histogram.hpp"

namespace mclx::obs {

class MetricsRegistry;

/// Per-label byte accounting: bytes resident now, the running maximum,
/// and how many charge() calls contributed.
struct MemLabelStats {
  std::uint64_t current_bytes = 0;
  std::uint64_t high_water_bytes = 0;
  std::uint64_t charges = 0;
};

/// Process-level memory as the OS sees it. On Linux this is VmRSS/VmHWM
/// from /proc/self/status; elsewhere the getrusage(RUSAGE_SELF) maximum
/// resident set is reported as both (and `available` says whether any
/// source responded).
struct ProcMemSample {
  std::uint64_t vm_rss_bytes = 0;
  std::uint64_t vm_hwm_bytes = 0;
  bool available = false;
};

/// Read the current process memory sample. Cheap enough to call at
/// checkpoints (per iteration / per report), not per allocation.
ProcMemSample read_proc_mem();

/// One point on a label's memory-over-time track, stamped by the
/// ledger's clock (virtual seconds when driven from the simulator).
/// Only recorded while the timeline is enabled (hipmcl_cli --trace-out).
struct MemTimelinePoint {
  double t = 0;
  std::string label;
  std::uint64_t current_bytes = 0;
};

/// A named process-peak checkpoint (see MemLedger::checkpoint()).
struct MemCheckpoint {
  std::string name;
  ProcMemSample proc;
};

class MemLedger {
 public:
  /// Charge `bytes` against `label`; updates the label's (and the
  /// process-wide) current/high-water. Thread-safe.
  void charge(std::string_view label, std::uint64_t bytes);

  /// Release previously charged bytes. Releasing more than is resident
  /// clamps to zero rather than underflowing (a site that frees a buffer
  /// it grew without telling us should not wrap the counter).
  void release(std::string_view label, std::uint64_t bytes);

  /// Stats for one label (zeros if never charged).
  MemLabelStats label_stats(std::string_view label) const;

  /// Copy of every label's stats, ordered by label.
  std::map<std::string, MemLabelStats> snapshot() const;

  /// Max / sum of high-water bytes over labels starting with `prefix`
  /// (e.g. prefix "merge.resident." folds the per-rank tracks).
  std::uint64_t prefix_high_water_max(std::string_view prefix) const;
  std::uint64_t prefix_high_water_sum(std::string_view prefix) const;

  /// Sum of current bytes across all labels, and the high-water of that
  /// sum (the ledger's view of total tracked footprint).
  std::uint64_t total_current_bytes() const;
  std::uint64_t total_high_water_bytes() const;

  /// Total charge() calls across all labels.
  std::uint64_t total_charges() const;

  /// Record a named process-peak checkpoint (reads /proc/self/status).
  /// Also drops a "proc.vm_rss" point on the timeline when enabled.
  void checkpoint(std::string_view name);
  std::vector<MemCheckpoint> checkpoints() const;

  /// Sample the process peak automatically every `every_charges` charge
  /// calls (0 disables, the default). Samples land as checkpoints named
  /// "auto" and on the timeline as "proc.vm_rss".
  void set_process_sample_interval(std::uint64_t every_charges);

  /// Enable memory-over-time recording, stamping points with `clock`
  /// (seconds; pass the simulator's elapsed() for tracks coherent with
  /// the event log). Disabled by default: charge/release only update
  /// the per-label stats.
  void enable_timeline(std::function<double()> clock);
  std::vector<MemTimelinePoint> timeline() const;
  bool timeline_enabled() const;

  // --- Estimator-audit channel -------------------------------------
  // Prediction sites (estimate/cohen.hpp, estimate/planner.cpp) record
  // what they expect; measurement sites (dist/summa.cpp) record what
  // actually happened. Entries join FIFO per channel name, and
  // publish() emits the joined relative errors as distributions.

  /// Record a predicted value on `channel` (e.g. "estimate.unpruned_nnz"
  /// predicted by Cohen sketches, "memory.phase_bytes" predicted by the
  /// planner).
  void predict(std::string_view channel, double value);

  /// Record a measured actual on `channel`; joins against the oldest
  /// unmatched prediction.
  void measure(std::string_view channel, double value);

  /// Joined (predicted, measured) pairs for one channel, in join order.
  std::vector<std::pair<double, double>> audit_pairs(
      std::string_view channel) const;

  // ------------------------------------------------------------------

  /// Fold the ledger into a MetricsRegistry (NOT thread-safe — call
  /// after parallel regions, from the reporting thread):
  ///   memory.charges                    counter: total charge() calls
  ///   memory.charge_bytes               histogram: per-charge sizes
  ///   memory.hwm_bytes                  histogram: per-label high-water
  ///   <channel>.rel_error               histogram per audit channel,
  ///                                     |pred-meas|/meas
  ///   <channel>.predicted / .measured   histograms of joined values
  void publish(MetricsRegistry& registry) const;

  void clear();

 private:
  void timeline_point_locked(std::string_view label, std::uint64_t current);
  void process_sample_locked();

  mutable std::mutex mu_;
  std::map<std::string, MemLabelStats, std::less<>> labels_;
  std::uint64_t total_current_ = 0;
  std::uint64_t total_high_water_ = 0;
  std::uint64_t total_charges_ = 0;
  Histogram charge_bytes_;
  std::vector<MemCheckpoint> checkpoints_;
  std::uint64_t sample_interval_ = 0;
  bool timeline_enabled_ = false;
  std::function<double()> clock_;
  std::vector<MemTimelinePoint> timeline_;
  struct AuditChannel {
    std::vector<double> predicted;
    std::vector<double> measured;
  };
  std::map<std::string, AuditChannel, std::less<>> audits_;
};

/// Instrumentation-site helpers: no-ops when no ledger is installed.
inline void mem_charge(std::string_view label, std::uint64_t bytes) {
  if (MemLedger* l = context().ledger) l->charge(label, bytes);
}
inline void mem_release(std::string_view label, std::uint64_t bytes) {
  if (MemLedger* l = context().ledger) l->release(label, bytes);
}
inline void mem_predict(std::string_view channel, double value) {
  if (MemLedger* l = context().ledger) l->predict(channel, value);
}
inline void mem_measure(std::string_view channel, double value) {
  if (MemLedger* l = context().ledger) l->measure(channel, value);
}

/// RAII charge: charges `bytes` against the installed ledger on
/// construction, releases exactly what it charged on destruction.
/// Snapshot of the sink at construction, so the scope stays balanced
/// even if the global ledger is swapped mid-scope. add() grows the
/// charge for buffers that expand after the scope opens.
class MemScope {
 public:
  MemScope(std::string_view label, std::uint64_t bytes)
      : ledger_(context().ledger), label_(label), bytes_(bytes) {
    if (ledger_ && bytes_) ledger_->charge(label_, bytes_);
  }
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;
  ~MemScope() {
    if (ledger_ && bytes_) ledger_->release(label_, bytes_);
  }
  void add(std::uint64_t bytes) {
    if (ledger_ && bytes) ledger_->charge(label_, bytes);
    bytes_ += bytes;
  }

 private:
  MemLedger* ledger_;
  std::string label_;
  std::uint64_t bytes_;
};

/// Lightweight element-counted handle for long-lived structures (merge
/// buffers) whose owner tracks elements, not bytes. Default-constructed
/// trackers are inert; summa hands mergers a bound tracker so per-rank
/// resident elements become "merge.resident.r<rank>" byte tracks.
class MemTracker {
 public:
  MemTracker() = default;
  MemTracker(MemLedger* ledger, std::string label, std::uint64_t bytes_per_elem)
      : ledger_(ledger),
        label_(std::move(label)),
        bytes_per_elem_(bytes_per_elem) {}

  void charge_elements(std::uint64_t n) {
    if (ledger_ && n) ledger_->charge(label_, n * bytes_per_elem_);
  }
  void release_elements(std::uint64_t n) {
    if (ledger_ && n) ledger_->release(label_, n * bytes_per_elem_);
  }
  explicit operator bool() const { return ledger_ != nullptr; }

 private:
  MemLedger* ledger_ = nullptr;
  std::string label_;
  std::uint64_t bytes_per_elem_ = 0;
};

}  // namespace mclx::obs
