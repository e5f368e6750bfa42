// Always-on flight recorder: fixed-size lock-free per-thread ring
// buffers of compact trace events, recorded from the existing sink
// paths (stage transitions, kernel dispatches, iteration/chaos marks,
// allocation high-water crossings) at near-zero cost — one relaxed
// fetch_add, a 64-byte slot write, no locks, no allocation. Unlike the
// MetricsRegistry (aggregates, readable after the run) the recorder
// keeps the *last N raw events per thread*, so when a job stalls,
// diverges or crashes, the post-mortem answers "what was it doing, in
// order, right before" — the gap ISSUE 10 names: today a wedged
// hipmcl_serve job leaves nothing behind but a watchdog verdict.
//
// Concurrency contract: record() is wait-free for the writer and safe
// from any thread (each thread claims a ring on first use; overflow
// threads share rings, still safely — slot claims are atomic tickets,
// and the per-slot seq stamp lets readers detect torn slots). Readers
// (merged(), the dump functions) run concurrently with writers and drop
// slots whose seq changes mid-copy. Rings wrap: only the newest
// `ring_capacity` events per ring survive, which is the point — the
// recorder is sized for "the last few seconds", not the whole run.
//
// Signal safety: dump_fd() is async-signal-safe — atomic loads,
// hand-rolled number formatting into stack buffers, write(2) only; no
// malloc, no stdio, no locks. install_crash_dump() routes
// SIGSEGV/SIGABRT/SIGBUS/SIGFPE through it and then re-raises with the
// default disposition, so the process still dies with the right status
// (and core, where enabled) after the dump. The crash dump is written
// directly (no tmp+rename: rename needs a second syscall pair and the
// partial-file risk is acceptable mid-crash); the stall/on-demand path
// (dump_file) uses the atomic-rewrite idiom like every other exporter.
//
// Sizing (docs/OBSERVABILITY.md "Post-mortems"): a slot is
// 64 bytes (one cache line); the defaults — 16 rings × 1024 slots —
// cost 1 MiB per recorder, and a recorder per svc job at the default
// event rate (~4 events/iteration + per-kernel dispatches) retains on
// the order of the last hundred iterations.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.hpp"

namespace mclx::obs {

enum class FrEventKind : std::uint32_t {
  kStage = 0,    ///< run-stage transition; a = stage index
  kIteration,    ///< completed iteration; a = iteration, v = chaos, b = nnz
  kKernel,       ///< local-SpGEMM dispatch; name = kernel, a = flops
  kAllocHwm,     ///< ledger high-water power-of-2 crossing; a = bytes
  kMark,         ///< free-form caller mark
};

std::string_view to_string(FrEventKind kind);

/// One recorded event, as surfaced by merged(). `name` is a fixed-size,
/// NUL-padded label (kernel name, stage name, mark text) — fixed so a
/// slot write never allocates.
struct FrEvent {
  double t = 0;            ///< recorder-clock seconds
  double v = 0;            ///< kind-specific value (chaos, ...)
  std::uint64_t a = 0;     ///< kind-specific (iteration, flops, bytes)
  std::uint64_t b = 0;     ///< kind-specific (nnz, ...)
  std::uint64_t seq = 0;   ///< per-ring ticket (tie-break ordering key)
  std::uint32_t kind = 0;  ///< FrEventKind
  std::uint32_t tid = 0;   ///< process-wide thread index
  char name[16] = {};
};

class FlightRecorder {
 public:
  struct Options {
    /// Per-thread rings; threads beyond this share rings (tid mod).
    std::size_t num_rings = 16;
    /// Slots per ring; must be a power of two (rounded up otherwise).
    std::size_t ring_capacity = 1024;
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(Options options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// Timestamp source, seconds. Defaults to steady_clock seconds since
  /// construction; the svc scheduler injects its ProgressBoard clock so
  /// fake-clock stall tests stamp real timelines with zero sleeps. Set
  /// before recording starts (not synchronized against writers).
  void set_clock(std::function<double()> clock);

  /// Record one event. Wait-free; safe from any thread; never allocates.
  /// `name` is truncated to 15 bytes.
  void record(FrEventKind kind, std::string_view name, std::uint64_t a = 0,
              std::uint64_t b = 0, double v = 0);

  /// All currently-valid events, merged across rings, time-ordered
  /// (t, then tid, then ring ticket). Safe concurrently with writers;
  /// torn slots are dropped.
  std::vector<FrEvent> merged() const;

  /// Events ever recorded (monotone; survives ring wrap).
  std::uint64_t total_recorded() const;

  /// Post-mortem JSON document: {"job","reason","total_recorded",
  /// "retained","events":[...]} with events from merged(). Not
  /// signal-safe (allocates).
  std::string dump_json(std::string_view job, std::string_view reason) const;

  /// dump_json written via the atomic tmp+rename idiom. Returns false
  /// (never throws) when the write fails.
  bool dump_file(const std::string& path, std::string_view job,
                 std::string_view reason) const;

  /// Async-signal-safe dump of the same JSON schema to `fd` (events in
  /// per-ring order, unsorted — each carries t/tid/seq, so consumers
  /// sort offline). write(2) only; callable from a signal handler.
  void dump_fd(int fd, const char* job, const char* reason) const;

 private:
  struct Slot;
  struct Ring;

  Ring& ring_for_current_thread() const;
  double now() const;

  std::size_t num_rings_;
  std::size_t capacity_;  ///< power of two
  std::unique_ptr<Ring[]> rings_;
  mutable std::atomic<std::uint32_t> next_ring_{0};
  std::function<double()> clock_;
  double epoch_ = 0;
};

/// Instrumented layers record into the obs::Context's recorder through
/// fr_record(), a no-op (one TLS load + null check) when none is
/// installed.
inline void fr_record(FrEventKind kind, std::string_view name,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      double v = 0) {
  if (FlightRecorder* r = context().recorder) r->record(kind, name, a, b, v);
}

/// Install a process-wide fatal-signal handler (SIGSEGV, SIGABRT,
/// SIGBUS, SIGFPE) that dump_fd()s `recorder` to `path` and re-raises
/// with the default disposition. One recorder/path pair at a time
/// (re-installing replaces it); `path` is copied into a fixed buffer
/// (truncated past ~500 bytes). Returns false if sigaction failed.
bool install_crash_dump(FlightRecorder* recorder, const std::string& path);

/// Restore the previous dispositions and forget the recorder. Safe to
/// call when nothing is installed.
void uninstall_crash_dump();

}  // namespace mclx::obs
