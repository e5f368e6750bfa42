// Trace analytics on hand-built event logs with known answers: lane
// reconstruction, internal-gap idle attribution (Table V analog),
// CPU/GPU overlap efficiency (Table II analog), and the backward-walk
// critical path — plus the rendered tables and a real-run smoke test.
#include <gtest/gtest.h>

#include <sstream>

#include "core/hipmcl.hpp"
#include "gen/planted.hpp"
#include "obs/context.hpp"
#include "obs/trace_analysis.hpp"
#include "sim/eventlog.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"

namespace {

using namespace mclx;
using sim::Resource;
using sim::Stage;

constexpr std::size_t idx(Stage s) { return static_cast<std::size_t>(s); }

sim::Event ev(int rank, Resource res, Stage stage, double start, double end) {
  sim::Event e;
  e.rank = rank;
  e.resource = res;
  e.stage = stage;
  e.start = start;
  e.end = end;
  return e;
}

// The canonical pipelined-SUMMA miniature: two broadcasts feed one GPU
// multiply, the host then merges the result.
//
//   CPU:  [Bcast 0-2][Bcast 2-4]  (gap 4-6)  [Merge 6-7]
//   GPU:            [SpGEMM 2-6]
sim::EventLog pipeline_log() {
  sim::EventLog log;
  log.record(ev(0, Resource::kCpu, Stage::kSummaBcast, 0, 2));
  log.record(ev(0, Resource::kCpu, Stage::kSummaBcast, 2, 4));
  log.record(ev(0, Resource::kGpu, Stage::kLocalSpGEMM, 2, 6));
  log.record(ev(0, Resource::kCpu, Stage::kMerge, 6, 7));
  return log;
}

TEST(TraceAnalysis, EmptyLog) {
  const obs::TraceAnalysis a = obs::analyze_trace(sim::EventLog{});
  EXPECT_EQ(a.nevents, 0u);
  EXPECT_EQ(a.nranks, 0);
  EXPECT_TRUE(a.lanes.empty());
  EXPECT_TRUE(a.critical_path.empty());
  EXPECT_DOUBLE_EQ(a.overlap_efficiency, 0.0);

  std::ostringstream os;
  obs::print_trace_analysis(os, a);
  EXPECT_NE(os.str().find("empty event log"), std::string::npos);
}

TEST(TraceAnalysis, LaneProfilesAndBusyTimes) {
  const obs::TraceAnalysis a = obs::analyze_trace(pipeline_log());
  EXPECT_EQ(a.nevents, 4u);
  EXPECT_EQ(a.nranks, 1);
  EXPECT_DOUBLE_EQ(a.t_begin, 0.0);
  EXPECT_DOUBLE_EQ(a.makespan, 7.0);

  ASSERT_EQ(a.lanes.size(), 2u);  // CPU lane first, then GPU
  const obs::LaneProfile& cpu = a.lanes[0];
  const obs::LaneProfile& gpu = a.lanes[1];
  EXPECT_EQ(cpu.resource, Resource::kCpu);
  EXPECT_EQ(gpu.resource, Resource::kGpu);

  EXPECT_DOUBLE_EQ(cpu.busy, 5.0);  // 2 + 2 + 1
  EXPECT_DOUBLE_EQ(cpu.busy_by_stage[idx(Stage::kSummaBcast)], 4.0);
  EXPECT_DOUBLE_EQ(cpu.busy_by_stage[idx(Stage::kMerge)], 1.0);
  EXPECT_DOUBLE_EQ(gpu.busy, 4.0);
  EXPECT_DOUBLE_EQ(gpu.busy_by_stage[idx(Stage::kLocalSpGEMM)], 4.0);

  EXPECT_DOUBLE_EQ(a.cpu_busy_total, 5.0);
  EXPECT_DOUBLE_EQ(a.gpu_busy_total, 4.0);
}

TEST(TraceAnalysis, IdleIsInternalGapsAttributedToFollowingStage) {
  const obs::TraceAnalysis a = obs::analyze_trace(pipeline_log());

  // The CPU's only internal gap is 4-6, spent waiting to start the
  // merge; the GPU has no internal gap (its lead-in before t=2 is not
  // idle by the inside-the-pipeline accounting).
  EXPECT_DOUBLE_EQ(a.cpu_idle, 2.0);
  EXPECT_DOUBLE_EQ(a.cpu_idle_by_stage[idx(Stage::kMerge)], 2.0);
  EXPECT_DOUBLE_EQ(a.cpu_idle_by_stage[idx(Stage::kSummaBcast)], 0.0);
  EXPECT_DOUBLE_EQ(a.gpu_idle, 0.0);
}

TEST(TraceAnalysis, OverlapIsPerRankBusyIntersection) {
  const obs::TraceAnalysis a = obs::analyze_trace(pipeline_log());

  // CPU busy [0,4]+[6,7] vs GPU busy [2,6]: intersection is [2,4].
  EXPECT_DOUBLE_EQ(a.overlap_s, 2.0);
  // Efficiency normalizes by the lighter resource (GPU, 4s busy).
  EXPECT_DOUBLE_EQ(a.overlap_efficiency, 0.5);
}

TEST(TraceAnalysis, CriticalPathChainsLatestFinishingPredecessor) {
  const obs::TraceAnalysis a = obs::analyze_trace(pipeline_log());

  // Merge[6,7] <- SpGEMM[2,6] (ends exactly at the start, beating
  // Bcast[2,4]) <- Bcast[0,2].
  ASSERT_EQ(a.critical_path.size(), 3u);
  EXPECT_EQ(a.critical_path[0].stage, Stage::kSummaBcast);
  EXPECT_DOUBLE_EQ(a.critical_path[0].end, 2.0);
  EXPECT_EQ(a.critical_path[1].stage, Stage::kLocalSpGEMM);
  EXPECT_EQ(a.critical_path[1].resource, Resource::kGpu);
  EXPECT_EQ(a.critical_path[2].stage, Stage::kMerge);

  for (const auto& seg : a.critical_path) {
    EXPECT_DOUBLE_EQ(seg.wait_before, 0.0);
  }
  EXPECT_DOUBLE_EQ(a.critical_busy, 7.0);  // path covers the makespan
  EXPECT_DOUBLE_EQ(a.critical_wait, 0.0);
  EXPECT_DOUBLE_EQ(a.critical_by_stage[idx(Stage::kSummaBcast)], 2.0);
  EXPECT_DOUBLE_EQ(a.critical_by_stage[idx(Stage::kLocalSpGEMM)], 4.0);
  EXPECT_DOUBLE_EQ(a.critical_by_stage[idx(Stage::kMerge)], 1.0);
}

TEST(TraceAnalysis, CriticalWaitWhenNothingRuns) {
  // A hole no event covers: the walk must surface it as wait_before.
  sim::EventLog log;
  log.record(ev(0, Resource::kCpu, Stage::kPrune, 0, 1));
  log.record(ev(0, Resource::kCpu, Stage::kMerge, 3, 5));
  const obs::TraceAnalysis a = obs::analyze_trace(log);

  ASSERT_EQ(a.critical_path.size(), 2u);
  EXPECT_DOUBLE_EQ(a.critical_path[1].wait_before, 2.0);
  EXPECT_DOUBLE_EQ(a.critical_wait, 2.0);
  EXPECT_DOUBLE_EQ(a.critical_busy, 3.0);
}

TEST(TraceAnalysis, MultiRankOverlapSumsPerRank) {
  sim::EventLog log;
  for (int r = 0; r < 2; ++r) {
    log.record(ev(r, Resource::kCpu, Stage::kSummaBcast, 0, 2));
    log.record(ev(r, Resource::kGpu, Stage::kLocalSpGEMM, 1, 3));
  }
  const obs::TraceAnalysis a = obs::analyze_trace(log);

  EXPECT_EQ(a.nranks, 2);
  ASSERT_EQ(a.lanes.size(), 4u);
  // Lanes come out rank-major, CPU before GPU.
  EXPECT_EQ(a.lanes[0].rank, 0);
  EXPECT_EQ(a.lanes[0].resource, Resource::kCpu);
  EXPECT_EQ(a.lanes[1].rank, 0);
  EXPECT_EQ(a.lanes[1].resource, Resource::kGpu);
  EXPECT_EQ(a.lanes[2].rank, 1);

  // [1,2] of overlap on each rank.
  EXPECT_DOUBLE_EQ(a.overlap_s, 2.0);
  EXPECT_DOUBLE_EQ(a.overlap_efficiency, 0.5);
}

TEST(TraceAnalysis, TablesRenderTheNumbers) {
  const obs::TraceAnalysis a = obs::analyze_trace(pipeline_log());
  std::ostringstream os;
  obs::print_trace_analysis(os, a);
  const std::string text = os.str();

  // All three tables, with the stage rows that matter.
  EXPECT_NE(text.find("Overlap efficiency"), std::string::npos);
  EXPECT_NE(text.find("Idle-time attribution"), std::string::npos);
  EXPECT_NE(text.find("Critical path"), std::string::npos);
  EXPECT_NE(text.find("SUMMA broadcast"), std::string::npos);
  EXPECT_NE(text.find("Local SpGEMM"), std::string::npos);
}

TEST(TraceAnalysis, RealRunProducesConsistentAnalysis) {
  gen::PlantedParams gp;
  gp.n = 150;
  gp.seed = 91;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;

  sim::EventLog trace;
  sim::SimState sim(sim::summit_like(4));
  {
    obs::ScopedContext scope(trace);
    core::run_hipmcl(g.edges, params, core::HipMclConfig::optimized(), sim);
  }
  ASSERT_GT(trace.size(), 0u);

  const obs::TraceAnalysis a = obs::analyze_trace(trace);
  EXPECT_EQ(a.nevents, trace.size());
  EXPECT_EQ(a.nranks, sim.nranks());
  EXPECT_GT(a.makespan, a.t_begin);
  EXPECT_GT(a.cpu_busy_total, 0.0);
  EXPECT_GT(a.gpu_busy_total, 0.0);  // optimized config uses the device

  // Overlap can never exceed what the lighter resource did.
  EXPECT_GE(a.overlap_efficiency, 0.0);
  EXPECT_LE(a.overlap_efficiency, 1.0 + 1e-12);
  EXPECT_LE(a.overlap_s,
            std::min(a.cpu_busy_total, a.gpu_busy_total) + 1e-9);

  // The critical path is time-ordered, gap-free in accounting terms
  // (busy + wait spans from its first start to the makespan), and never
  // longer than the makespan.
  ASSERT_FALSE(a.critical_path.empty());
  for (std::size_t i = 1; i < a.critical_path.size(); ++i) {
    EXPECT_LE(a.critical_path[i - 1].end,
              a.critical_path[i].start + 1e-9);
  }
  EXPECT_NEAR(a.critical_busy + a.critical_wait,
              a.makespan - a.critical_path.front().start, 1e-6);
}

}  // namespace
