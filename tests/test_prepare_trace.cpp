// The event-log / Chrome-trace export.
#include <gtest/gtest.h>

#include <sstream>

#include "dist/summa.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/context.hpp"
#include "sim/eventlog.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"
#include "sparse/convert.hpp"
#include "util/rng.hpp"

namespace {

using namespace mclx;
using T = sparse::Triples<vidx_t, val_t>;

// ---------------------------------------------------------------------------
// Event log.

TEST(EventLog, DisabledByDefault) {
  EXPECT_EQ(obs::context().events, nullptr);
  sim::RankTimeline tl;
  tl.cpu_run(sim::Stage::kOther, 1.0);  // must not crash or record
}

TEST(EventLog, RecordsTimelineIntervals) {
  sim::EventLog log;
  {
    obs::ScopedContext scope(log);
    sim::SimState s(sim::summit_like(4));
    s.rank(2).cpu_run(sim::Stage::kPrune, 1.5);
    s.rank(2).gpu_run(sim::Stage::kLocalSpGEMM, 2.0, 0.5);
  }
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].rank, 2);
  EXPECT_EQ(log.events()[0].resource, sim::Resource::kCpu);
  EXPECT_EQ(log.events()[0].stage, sim::Stage::kPrune);
  EXPECT_DOUBLE_EQ(log.events()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(log.events()[0].end, 1.5);
  EXPECT_EQ(log.events()[1].resource, sim::Resource::kGpu);
  EXPECT_DOUBLE_EQ(log.events()[1].start, 0.5);
  // Recording stops when the scope ends.
  EXPECT_EQ(obs::context().events, nullptr);
}

TEST(EventLog, ZeroDurationEventsSkipped) {
  sim::EventLog log;
  obs::ScopedContext scope(log);
  sim::RankTimeline tl;
  tl.cpu_run(sim::Stage::kOther, 0.0);
  EXPECT_EQ(log.size(), 0u);
}

TEST(EventLog, CapturesWholeSumma) {
  util::Xoshiro256 rng(61);
  T t(30, 30);
  for (int e = 0; e < 400; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(30)),
                     static_cast<vidx_t>(rng.bounded(30)),
                     rng.uniform_pos());
  }
  t.sort_and_combine();
  const dist::ProcGrid grid(4);
  const dist::DistMat a = dist::DistMat::from_triples(t, grid);
  sim::SimState s(sim::summit_like(4));

  sim::EventLog log;
  {
    obs::ScopedContext scope(log);
    dist::SummaOptions opt;
    opt.pipelined = true;
    opt.binary_merge = true;
    dist::summa_multiply(a, a, s, opt);
  }
  EXPECT_GT(log.size(), 20u);  // bcasts, multiplies, merges across 4 ranks
  bool has_gpu = false, has_bcast = false;
  for (const auto& e : log.events()) {
    has_gpu |= e.resource == sim::Resource::kGpu;
    has_bcast |= e.stage == sim::Stage::kSummaBcast;
    EXPECT_GE(e.end, e.start);
  }
  EXPECT_TRUE(has_gpu);
  EXPECT_TRUE(has_bcast);
}

TEST(EventLog, ChromeTraceIsWellFormedJson) {
  sim::EventLog log;
  log.record({0, sim::Resource::kCpu, sim::Stage::kMerge, 0.0, 1.0});
  log.record({1, sim::Resource::kGpu, sim::Stage::kLocalSpGEMM, 0.5, 2.0});
  std::ostringstream oss;
  obs::write_chrome_trace(oss, log, nullptr);
  const std::string json = oss.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("Merging"), std::string::npos);
  EXPECT_NE(json.find("Local SpGEMM"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  // Balanced braces (cheap sanity, the format is machine-generated).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(EventLog, ClearResets) {
  sim::EventLog log;
  log.record({0, sim::Resource::kCpu, sim::Stage::kOther, 0, 1});
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

}  // namespace
