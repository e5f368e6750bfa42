// Event log: optional recording of every timeline interval (rank,
// resource, stage, start, end) during a simulated run, exportable as
// Chrome tracing JSON (obs/chrome_trace.hpp; chrome://tracing, Perfetto)
// — the Fig 2 pipeline made visible: broadcasts marching along the CPU
// rows while multiplies fill the GPU rows, merges slotting into the gaps.
//
// Recording is off by default (the obs::Context sink keeps
// RankTimeline's hot path branch-cheap); install a log around the region
// of interest with obs::ScopedContext.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/stage.hpp"
#include "util/types.hpp"

namespace mclx::sim {

enum class Resource : std::uint8_t { kCpu = 0, kGpu = 1 };

struct Event {
  int rank = 0;
  Resource resource = Resource::kCpu;
  Stage stage = Stage::kOther;
  vtime_t start = 0;
  vtime_t end = 0;
};

class EventLog {
 public:
  void record(const Event& e) { events_.push_back(e); }
  /// Append every event of `other` (harnesses that trace runs into
  /// per-run logs for analysis, then fold them into one dump file).
  void append(const EventLog& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  }
  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }
  std::size_t size() const { return events_.size(); }

  /// Emit the Chrome tracing event list (duration + thread-name
  /// metadata events, comma-separated, no surrounding array) for
  /// obs::write_chrome_trace, which wraps it and can append the memory
  /// ledger's counter events. Virtual seconds are emitted as
  /// microseconds (the viewer's native unit); each rank appears as a
  /// process with a CPU and a GPU thread row. `first` carries comma
  /// state across calls.
  void write_trace_events(std::ostream& os, bool& first) const;

  /// Largest rank mentioned by any event, -1 when empty (combined
  /// exporters park extra tracks on pids above this).
  int max_rank() const;

 private:
  std::vector<Event> events_;
};

}  // namespace mclx::sim
