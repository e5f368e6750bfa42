// Per-rank virtual timelines.
//
// Each simulated rank carries two clocks: a CPU timeline (the MPI rank's
// host threads) and a GPU timeline (its devices, treated as one pipelined
// resource fed by column-splitting — §III-A). Work is *executed for real*
// elsewhere; this module only advances virtual time and attributes it to
// stages, which is what the paper's Figures 1/5/8 and Tables II/V report.
//
// Idle accounting follows the paper's definitions for pipelined SUMMA:
// GPU idle = time the device spends waiting for inputs (broadcasts not
// done); CPU idle = time the host spends waiting on device results.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/machine.hpp"
#include "sim/stage.hpp"
#include "util/types.hpp"

namespace mclx::sim {

class RankTimeline {
 public:
  vtime_t cpu_now() const { return cpu_now_; }
  vtime_t gpu_now() const { return gpu_now_; }

  /// Run `dur` seconds of CPU work attributed to `stage`.
  void cpu_run(Stage stage, vtime_t dur);

  /// Block the CPU until virtual time `t` (e.g. waiting on a device
  /// result); the gap counts as CPU idle.
  void cpu_wait_until(vtime_t t);

  /// Advance the CPU clock without attributing busy time (collective skew).
  void cpu_skew_to(vtime_t t);

  /// Advance the GPU clock without charging idle. Used at SUMMA entry so
  /// the device's idleness during non-expansion stages (pruning,
  /// inflation, estimation) does not pollute the pipelined-SUMMA idle
  /// accounting of Table V.
  void gpu_skew_to(vtime_t t);

  /// Schedule `dur` seconds of GPU work attributed to `stage`; the device
  /// cannot start before `ready` (input transfer completion). Any gap
  /// between the device's previous completion and the start is GPU idle.
  /// Returns the completion time.
  vtime_t gpu_run(Stage stage, vtime_t dur, vtime_t ready);

  /// Join the two clocks (end of a pipelined region): both advance to the
  /// max; the laggard's wait counts as its idle time.
  void join();

  const StageTimes& stage_times() const { return stage_times_; }
  vtime_t cpu_idle() const { return cpu_idle_; }
  vtime_t gpu_idle() const { return gpu_idle_; }

  /// Furthest point reached by either resource.
  vtime_t now() const { return cpu_now_ > gpu_now_ ? cpu_now_ : gpu_now_; }

  /// Rank id for event-log attribution (set by SimState).
  void set_rank(int rank) { rank_ = rank; }
  int rank() const { return rank_; }

 private:
  int rank_ = -1;
  vtime_t cpu_now_ = 0;
  vtime_t gpu_now_ = 0;
  vtime_t cpu_idle_ = 0;
  vtime_t gpu_idle_ = 0;
  StageTimes stage_times_{};
};

/// The whole simulated job: one timeline per rank plus snapshot/diff
/// helpers so a caller can measure a region (one MCL iteration, one SUMMA
/// call) in isolation.
class SimState {
 public:
  explicit SimState(MachineConfig machine);

  const MachineConfig& machine() const { return machine_; }
  int nranks() const { return static_cast<int>(ranks_.size()); }
  RankTimeline& rank(int r) { return ranks_[static_cast<std::size_t>(r)]; }
  const RankTimeline& rank(int r) const {
    return ranks_[static_cast<std::size_t>(r)];
  }

  /// Bulk-synchronous barrier: all CPU clocks advance to the global max
  /// (unattributed skew).
  void barrier();

  /// Elapsed virtual time: max over ranks of either clock.
  vtime_t elapsed() const;

  /// Max over ranks of per-stage attributed time — the "critical rank"
  /// view used for reporting (matches how per-stage times are plotted).
  StageTimes critical_stage_times() const;

  /// Mean over ranks of per-stage attributed time.
  StageTimes mean_stage_times() const;

  /// Mean over ranks of CPU / GPU idle seconds (Table V reports these).
  vtime_t mean_cpu_idle() const;
  vtime_t mean_gpu_idle() const;

 private:
  MachineConfig machine_;
  std::vector<RankTimeline> ranks_;
};

/// Snapshot of aggregate counters; subtract two to measure a region.
struct SimSnapshot {
  StageTimes critical_stages{};
  StageTimes mean_stages{};
  vtime_t elapsed = 0;
  vtime_t mean_cpu_idle = 0;
  vtime_t mean_gpu_idle = 0;
};

SimSnapshot snapshot(const SimState& sim);
SimSnapshot diff(const SimSnapshot& later, const SimSnapshot& earlier);

}  // namespace mclx::sim
