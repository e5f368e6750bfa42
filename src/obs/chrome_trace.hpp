// Combined Chrome/Perfetto trace export: the event log's duration
// events (one process per rank, CPU/GPU thread rows — Fig 2 made
// visible) plus the memory ledger's timeline as counter tracks, in one
// trace-event JSON document that loads directly in ui.perfetto.dev or
// chrome://tracing.
//
// Memory counters ride on a dedicated "memory" process (pid above every
// rank) with one named counter per ledger label; timestamps come from
// the ledger's clock, so when that clock is the simulator's elapsed()
// the counter steps line up under the stage bars they explain.
#pragma once

#include <iosfwd>
#include <string>

namespace mclx::sim {
class EventLog;
}

namespace mclx::obs {

class MemLedger;

/// Write the combined trace. `mem` may be null (duration events only);
/// its timeline must have been enabled for counter events to appear.
void write_chrome_trace(std::ostream& os, const sim::EventLog& events,
                        const MemLedger* mem);

void write_chrome_trace_file(const std::string& path,
                             const sim::EventLog& events,
                             const MemLedger* mem);

}  // namespace mclx::obs
