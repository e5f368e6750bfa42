#include "sim/eventlog.hpp"

#include <algorithm>
#include <ostream>

namespace mclx::sim {

void EventLog::write_trace_events(std::ostream& os, bool& first) const {
  for (const auto& e : events_) {
    if (!first) os << ',';
    first = false;
    // pid = rank; tid 0 = CPU, 1 = GPU; durations in microseconds.
    os << "{\"name\":\"" << stage_name(e.stage) << "\",\"ph\":\"X\",\"pid\":"
       << e.rank << ",\"tid\":" << (e.resource == Resource::kGpu ? 1 : 0)
       << ",\"ts\":" << e.start * 1e6 << ",\"dur\":"
       << (e.end - e.start) * 1e6 << "}";
  }
  // Thread name metadata so rows read "rank N cpu/gpu".
  for (int r = 0; r <= max_rank(); ++r) {
    for (int t = 0; t < 2; ++t) {
      if (!first) os << ',';
      first = false;
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << r
         << ",\"tid\":" << t << ",\"args\":{\"name\":\""
         << (t == 0 ? "cpu" : "gpu") << "\"}}";
    }
  }
}

int EventLog::max_rank() const {
  int max_rank = -1;
  for (const auto& e : events_) max_rank = std::max(max_rank, e.rank);
  return max_rank;
}

}  // namespace mclx::sim
