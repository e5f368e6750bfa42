// Observability context: the sinks instrumented code reports into,
// without threading them through every call signature. One struct per
// thread, all null by default (a null check keeps instrumented hot paths
// cheap); install sinks around the region of interest with a
// ScopedContext and every layer's obs::count()/obs::record(),
// obs::mem_charge(), obs::fr_record() and timeline event lands in them.
//
// Thread-local, so concurrent service jobs (src/svc) each report into
// their own sinks from their own driver thread.
//
// The lane rule, applied by par::ThreadPool: every pool lane runs under
// the submitting thread's context with `metrics` and `events` cleared —
// inline, on the submitting thread or on a worker alike. Only the ledger
// and the recorder are thread-safe, so only they reach lanes; metrics
// and timeline events are recorded by the driver thread, after the join.
#pragma once

namespace mclx::sim {
class EventLog;
}

namespace mclx::obs {

class MetricsRegistry;
class MemLedger;
class FlightRecorder;

struct Context {
  MetricsRegistry* metrics = nullptr;  ///< counters and value metrics
  MemLedger* ledger = nullptr;         ///< byte accounting (thread-safe)
  sim::EventLog* events = nullptr;     ///< simulated timeline intervals
  FlightRecorder* recorder = nullptr;  ///< post-mortem rings (thread-safe)

  /// The context pool lanes run under: this one without the two sinks
  /// that are not thread-safe.
  Context lane() const { return {nullptr, ledger, nullptr, recorder}; }
};

/// The calling thread's sinks.
const Context& context();

/// RAII scope: installs a whole context, or swaps one sink of the
/// current one, and restores the previous context on destruction.
/// Scopes nest: end them in the reverse order they began.
class ScopedContext {
 public:
  explicit ScopedContext(const Context& next);
  explicit ScopedContext(MetricsRegistry& metrics);
  explicit ScopedContext(MemLedger& ledger);
  explicit ScopedContext(sim::EventLog& events);
  explicit ScopedContext(FlightRecorder& recorder);
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;
  ~ScopedContext();

 private:
  Context previous_;
};

/// The metrics-only spelling of the scope: `ScopedMetrics s(registry)`.
using ScopedMetrics = ScopedContext;

}  // namespace mclx::obs
