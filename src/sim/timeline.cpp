#include "sim/timeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/context.hpp"
#include "sim/eventlog.hpp"

namespace mclx::sim {

void RankTimeline::cpu_run(Stage stage, vtime_t dur) {
  if (dur < 0) throw std::invalid_argument("cpu_run: negative duration");
  if (EventLog* log = obs::context().events; log && dur > 0) {
    log->record({rank_, Resource::kCpu, stage, cpu_now_, cpu_now_ + dur});
  }
  cpu_now_ += dur;
  stage_times_[static_cast<std::size_t>(stage)] += dur;
}

void RankTimeline::cpu_wait_until(vtime_t t) {
  if (t > cpu_now_) {
    cpu_idle_ += t - cpu_now_;
    cpu_now_ = t;
  }
}

void RankTimeline::cpu_skew_to(vtime_t t) {
  if (t > cpu_now_) cpu_now_ = t;
}

void RankTimeline::gpu_skew_to(vtime_t t) {
  if (t > gpu_now_) gpu_now_ = t;
}

vtime_t RankTimeline::gpu_run(Stage stage, vtime_t dur, vtime_t ready) {
  if (dur < 0) throw std::invalid_argument("gpu_run: negative duration");
  const vtime_t start = std::max(gpu_now_, ready);
  if (EventLog* log = obs::context().events; log && dur > 0) {
    log->record({rank_, Resource::kGpu, stage, start, start + dur});
  }
  gpu_idle_ += start - gpu_now_;
  gpu_now_ = start + dur;
  stage_times_[static_cast<std::size_t>(stage)] += dur;
  return gpu_now_;
}

void RankTimeline::join() {
  if (cpu_now_ < gpu_now_) {
    cpu_idle_ += gpu_now_ - cpu_now_;
    cpu_now_ = gpu_now_;
  } else if (gpu_now_ < cpu_now_) {
    gpu_idle_ += cpu_now_ - gpu_now_;
    gpu_now_ = cpu_now_;
  }
}

SimState::SimState(MachineConfig machine) : machine_(machine) {
  machine_.validate();
  ranks_.resize(static_cast<std::size_t>(machine_.total_ranks()));
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].set_rank(static_cast<int>(r));
  }
}

void SimState::barrier() {
  vtime_t mx = 0;
  for (const auto& r : ranks_) mx = std::max(mx, r.now());
  for (auto& r : ranks_) {
    r.cpu_skew_to(mx);
  }
}

vtime_t SimState::elapsed() const {
  vtime_t mx = 0;
  for (const auto& r : ranks_) mx = std::max(mx, r.now());
  return mx;
}

StageTimes SimState::critical_stage_times() const {
  StageTimes out{};
  for (const auto& r : ranks_) {
    for (std::size_t s = 0; s < kNumStages; ++s)
      out[s] = std::max(out[s], r.stage_times()[s]);
  }
  return out;
}

StageTimes SimState::mean_stage_times() const {
  StageTimes out{};
  for (const auto& r : ranks_) {
    for (std::size_t s = 0; s < kNumStages; ++s)
      out[s] += r.stage_times()[s];
  }
  for (auto& x : out) x /= static_cast<double>(ranks_.size());
  return out;
}

vtime_t SimState::mean_cpu_idle() const {
  vtime_t sum = 0;
  for (const auto& r : ranks_) sum += r.cpu_idle();
  return sum / static_cast<double>(ranks_.size());
}

vtime_t SimState::mean_gpu_idle() const {
  vtime_t sum = 0;
  for (const auto& r : ranks_) sum += r.gpu_idle();
  return sum / static_cast<double>(ranks_.size());
}

SimSnapshot snapshot(const SimState& sim) {
  SimSnapshot s;
  s.critical_stages = sim.critical_stage_times();
  s.mean_stages = sim.mean_stage_times();
  s.elapsed = sim.elapsed();
  s.mean_cpu_idle = sim.mean_cpu_idle();
  s.mean_gpu_idle = sim.mean_gpu_idle();
  return s;
}

SimSnapshot diff(const SimSnapshot& later, const SimSnapshot& earlier) {
  SimSnapshot d;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    d.critical_stages[i] = later.critical_stages[i] - earlier.critical_stages[i];
    d.mean_stages[i] = later.mean_stages[i] - earlier.mean_stages[i];
  }
  d.elapsed = later.elapsed - earlier.elapsed;
  d.mean_cpu_idle = later.mean_cpu_idle - earlier.mean_cpu_idle;
  d.mean_gpu_idle = later.mean_gpu_idle - earlier.mean_gpu_idle;
  return d;
}

}  // namespace mclx::sim
