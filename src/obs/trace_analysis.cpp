#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <string>
#include <utility>

namespace mclx::obs {

namespace {

using sim::Event;
using sim::Resource;
using sim::Stage;

std::size_t stage_index(Stage s) { return static_cast<std::size_t>(s); }

/// Merge a lane's (sorted, sequential) events into maximal busy
/// intervals — consecutive events that touch are coalesced so the
/// overlap sweep sees contiguous busy stretches.
std::vector<std::pair<double, double>> busy_intervals(
    const std::vector<const Event*>& events) {
  std::vector<std::pair<double, double>> out;
  for (const Event* e : events) {
    if (!out.empty() && e->start <= out.back().second) {
      out.back().second = std::max(out.back().second, e->end);
    } else {
      out.emplace_back(e->start, e->end);
    }
  }
  return out;
}

/// Total time two interval lists are simultaneously active.
double intersection_seconds(const std::vector<std::pair<double, double>>& a,
                            const std::vector<std::pair<double, double>>& b) {
  double total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

}  // namespace

TraceAnalysis analyze_trace(const sim::EventLog& log) {
  TraceAnalysis a;
  a.nevents = log.size();
  if (log.events().empty()) return a;

  // Bucket events into lanes; a map keyed (rank, resource) gives the
  // rank-major / CPU-first ordering the struct promises.
  std::map<std::pair<int, int>, std::vector<const Event*>> lanes;
  a.t_begin = log.events().front().start;
  for (const Event& e : log.events()) {
    lanes[{e.rank, static_cast<int>(e.resource)}].push_back(&e);
    a.nranks = std::max(a.nranks, e.rank + 1);
    a.t_begin = std::min(a.t_begin, e.start);
    a.makespan = std::max(a.makespan, e.end);
  }
  for (auto& [key, events] : lanes) {
    std::stable_sort(events.begin(), events.end(),
                     [](const Event* x, const Event* y) {
                       return x->start < y->start;
                     });
  }

  // Lane profiles: per-stage busy time plus internal-gap idle, each gap
  // attributed to the stage of the event that follows it.
  for (const auto& [key, events] : lanes) {
    LaneProfile lane;
    lane.rank = key.first;
    lane.resource = static_cast<Resource>(key.second);
    lane.first_start = events.front()->start;
    lane.last_end = events.front()->end;
    double prev_end = events.front()->start;
    for (const Event* e : events) {
      lane.last_end = std::max(lane.last_end, e->end);
      lane.busy += e->end - e->start;
      lane.busy_by_stage[stage_index(e->stage)] += e->end - e->start;
      if (e->start > prev_end) {
        const double gap = e->start - prev_end;
        lane.idle += gap;
        lane.idle_by_stage[stage_index(e->stage)] += gap;
      }
      prev_end = std::max(prev_end, e->end);
    }
    const bool gpu = lane.resource == Resource::kGpu;
    // StageTimes is a std::array alias, so sim's operator+= is not found
    // by ADL from this namespace — qualify it.
    sim::operator+=(gpu ? a.gpu_busy : a.cpu_busy, lane.busy_by_stage);
    sim::operator+=(gpu ? a.gpu_idle_by_stage : a.cpu_idle_by_stage,
                    lane.idle_by_stage);
    (gpu ? a.gpu_idle : a.cpu_idle) += lane.idle;
    (gpu ? a.gpu_busy_total : a.cpu_busy_total) += lane.busy;
    a.lanes.push_back(std::move(lane));
  }

  // Overlap: per rank, intersect the CPU lane's busy intervals with the
  // GPU lane's.
  for (int r = 0; r < a.nranks; ++r) {
    const auto cpu = lanes.find({r, static_cast<int>(Resource::kCpu)});
    const auto gpu = lanes.find({r, static_cast<int>(Resource::kGpu)});
    if (cpu == lanes.end() || gpu == lanes.end()) continue;
    a.overlap_s += intersection_seconds(busy_intervals(cpu->second),
                                        busy_intervals(gpu->second));
  }
  const double lighter = std::min(a.cpu_busy_total, a.gpu_busy_total);
  a.overlap_efficiency = lighter > 0 ? a.overlap_s / lighter : 0;

  // Critical path: walk backward from the event with the latest end.
  // The predecessor of an event is the latest-finishing event that had
  // completed by its start — the thing it was plausibly blocked on.
  // Ties prefer the same lane (the natural sequential dependency), then
  // the same rank, then the lowest rank / CPU, keeping the walk
  // deterministic for a given log.
  std::vector<const Event*> by_end;
  by_end.reserve(log.events().size());
  for (const Event& e : log.events()) by_end.push_back(&e);
  std::stable_sort(by_end.begin(), by_end.end(),
                   [](const Event* x, const Event* y) {
                     return x->end < y->end;
                   });
  const double eps = 1e-12 * std::max(1.0, a.makespan);
  auto better_pred = [&](const Event* cand, const Event* best,
                         const Event* cur) {
    if (!best) return true;
    if (cand->end != best->end) return cand->end > best->end;
    const auto lane_score = [&](const Event* e) {
      if (e->rank == cur->rank && e->resource == cur->resource) return 0;
      if (e->rank == cur->rank) return 1;
      return 2;
    };
    if (lane_score(cand) != lane_score(best)) {
      return lane_score(cand) < lane_score(best);
    }
    if (cand->rank != best->rank) return cand->rank < best->rank;
    return cand->resource == Resource::kCpu && best->resource == Resource::kGpu;
  };

  // Terminal event: latest end; ties resolve to the lowest rank, CPU
  // before GPU, so the walk is deterministic for a given log.
  const Event* cur = by_end.back();
  for (auto it = by_end.rbegin();
       it != by_end.rend() && (*it)->end >= cur->end - eps; ++it) {
    const Event* e = *it;
    if (e->rank < cur->rank ||
        (e->rank == cur->rank && e->resource == Resource::kCpu &&
         cur->resource == Resource::kGpu)) {
      cur = e;
    }
  }

  std::vector<CriticalSegment> path;
  std::size_t guard = 0;
  while (cur && guard++ <= a.nevents) {
    CriticalSegment seg;
    seg.rank = cur->rank;
    seg.resource = cur->resource;
    seg.stage = cur->stage;
    seg.start = cur->start;
    seg.end = cur->end;
    // Predecessor search: binary search for the last event with
    // end <= cur->start + eps, then scan the tied tail.
    const Event* best = nullptr;
    auto it = std::upper_bound(
        by_end.begin(), by_end.end(), cur->start + eps,
        [](double t, const Event* e) { return t < e->end; });
    if (it != by_end.begin()) {
      const double best_end = (*std::prev(it))->end;
      for (auto scan = std::prev(it);; --scan) {
        const Event* cand = *scan;
        if (cand->end < best_end - eps) break;
        if (cand != cur && better_pred(cand, best, cur)) best = cand;
        if (scan == by_end.begin()) break;
      }
    }
    if (best) seg.wait_before = std::max(0.0, cur->start - best->end);
    path.push_back(seg);
    cur = best;
  }
  std::reverse(path.begin(), path.end());
  for (const CriticalSegment& seg : path) {
    a.critical_by_stage[stage_index(seg.stage)] += seg.end - seg.start;
    a.critical_busy += seg.end - seg.start;
    a.critical_wait += seg.wait_before;
  }
  a.critical_path = std::move(path);
  return a;
}

util::Table overlap_table(const TraceAnalysis& a) {
  util::Table t("Overlap efficiency (trace-reconstructed, Table II analog; "
                "mean virtual s over ranks)");
  t.header({"SpGEMM", "bcast", "merge", "span", "span/SpGEMM",
            "overlap eff"});
  const double n = a.nranks > 0 ? static_cast<double>(a.nranks) : 1;
  const double spgemm =
      (a.cpu_busy[stage_index(Stage::kLocalSpGEMM)] +
       a.gpu_busy[stage_index(Stage::kLocalSpGEMM)]) /
      n;
  const double bcast = (a.cpu_busy[stage_index(Stage::kSummaBcast)] +
                        a.gpu_busy[stage_index(Stage::kSummaBcast)]) /
                       n;
  const double merge = (a.cpu_busy[stage_index(Stage::kMerge)] +
                        a.gpu_busy[stage_index(Stage::kMerge)]) /
                       n;
  const double span = a.makespan - a.t_begin;
  t.row({util::Table::fmt(spgemm, 2), util::Table::fmt(bcast, 2),
         util::Table::fmt(merge, 2), util::Table::fmt(span, 2),
         util::Table::fmt(spgemm > 0 ? span / spgemm : 0, 2),
         util::Table::fmt(a.overlap_efficiency, 2)});
  t.note("overlap eff = time CPU and GPU are simultaneously busy / busy "
         "time of the lighter resource (1.0 = fully hidden)");
  return t;
}

util::Table idle_attribution_table(const TraceAnalysis& a) {
  util::Table t("Idle-time attribution (trace-reconstructed, Table V "
                "analog; mean virtual s over ranks)");
  t.header({"waiting to start", "CPU idle", "GPU idle"});
  const double n = a.nranks > 0 ? static_cast<double>(a.nranks) : 1;
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    if (a.cpu_idle_by_stage[s] == 0 && a.gpu_idle_by_stage[s] == 0) continue;
    t.row({std::string(sim::kStageNames[s]),
           util::Table::fmt(a.cpu_idle_by_stage[s] / n, 2),
           util::Table::fmt(a.gpu_idle_by_stage[s] / n, 2)});
  }
  t.row({"total", util::Table::fmt(a.cpu_idle / n, 2),
         util::Table::fmt(a.gpu_idle / n, 2)});
  t.note("gaps between a lane's events, attributed to the stage of the "
         "event that follows; lead-in/lead-out excluded");
  return t;
}

util::Table critical_path_table(const TraceAnalysis& a) {
  util::Table t("Critical path through the stage DAG");
  t.header({"stage", "segments", "busy (s)", "wait (s)", "% of makespan"});
  const double span = a.makespan - a.t_begin;
  std::array<std::size_t, sim::kNumStages> segments{};
  std::array<double, sim::kNumStages> waits{};
  for (const CriticalSegment& seg : a.critical_path) {
    ++segments[static_cast<std::size_t>(seg.stage)];
    waits[static_cast<std::size_t>(seg.stage)] += seg.wait_before;
  }
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    if (segments[s] == 0) continue;
    t.row({std::string(sim::kStageNames[s]),
           util::Table::fmt_int(static_cast<long long>(segments[s])),
           util::Table::fmt(a.critical_by_stage[s], 2),
           util::Table::fmt(waits[s], 2),
           util::Table::fmt_pct(
               span > 0 ? 100.0 * (a.critical_by_stage[s] + waits[s]) / span
                        : 0,
               1)});
  }
  t.note("path: " + std::to_string(a.critical_path.size()) + " segments, " +
         util::Table::fmt(a.critical_busy, 2) + "s busy + " +
         util::Table::fmt(a.critical_wait, 2) + "s wait of " +
         util::Table::fmt(span, 2) + "s makespan");
  return t;
}

void print_trace_analysis(std::ostream& os, const TraceAnalysis& a) {
  if (a.nevents == 0) {
    os << "trace analysis: empty event log (was one installed with "
          "obs::ScopedContext around the run?)\n";
    return;
  }
  overlap_table(a).print(os);
  idle_attribution_table(a).print(os);
  critical_path_table(a).print(os);
}

}  // namespace mclx::obs
