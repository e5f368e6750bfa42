#include "obs/context.hpp"

namespace mclx::obs {

namespace {
thread_local Context t_context;
}

const Context& context() { return t_context; }

ScopedContext::ScopedContext(const Context& next) : previous_(t_context) {
  t_context = next;
}
ScopedContext::ScopedContext(MetricsRegistry& metrics) : previous_(t_context) {
  t_context.metrics = &metrics;
}
ScopedContext::ScopedContext(MemLedger& ledger) : previous_(t_context) {
  t_context.ledger = &ledger;
}
ScopedContext::ScopedContext(sim::EventLog& events) : previous_(t_context) {
  t_context.events = &events;
}
ScopedContext::ScopedContext(FlightRecorder& recorder) : previous_(t_context) {
  t_context.recorder = &recorder;
}

ScopedContext::~ScopedContext() { t_context = previous_; }

}  // namespace mclx::obs
