// Roofline audit: joins a hardware-counter window with the cost model's
// memory-traffic prediction for the kernel that ran in it, in the same
// .predicted/.measured/.rel_error audit-channel idiom as the Cohen
// estimator (`estimate.unpruned_nnz`) and the phase planner
// (`memory.phase_bytes`). The measured side is counter-derived DRAM
// traffic — LLC misses × cache-line bytes — per flop; the predicted
// side is a frozen per-kernel constant documented in docs/COSTMODEL.md
// ("Roofline audit" table). A drifting traffic constant shows up as a
// growing `prof.hw.<kernel>.bytes_per_flop.rel_error` in the perf
// baseline, instead of being invisible behind wall time.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/prof/hw_counters.hpp"

namespace mclx::obs {

class MetricsRegistry;

/// x86-64 / AArch64 cache-line size assumed when converting LLC misses
/// to bytes of DRAM traffic.
inline constexpr double kCacheLineBytes = 64.0;

/// The cost model's frozen bytes-per-flop prediction for a local SpGEMM
/// kernel (COSTMODEL.md "Roofline audit"). `known` is false for kernels
/// the model carries no traffic constant for (GPU-library kernels, whose
/// traffic happens on a device we do not count, and cpu-heap, whose
/// product runs on the hash accumulator).
struct RooflinePrediction {
  double bytes_per_flop = 0;
  bool known = false;
};

RooflinePrediction predicted_bytes_per_flop(std::string_view kernel);

/// Publish the audit channels for one counter window over one kernel
/// dispatch of `flops` useful flops:
///   prof.hw.<kernel>.bytes_per_flop.predicted   (always, when known)
///   prof.hw.<kernel>.bytes_per_flop.measured    (counters available)
///   prof.hw.<kernel>.bytes_per_flop.rel_error   (both sides present)
///   prof.hw.<kernel>.cycles_per_flop            (counters available)
///   prof.hw.<kernel>.l1d_miss_rate              (misses/instruction)
/// All are value metrics (obs::MetricsRegistry::record), so the perf
/// baseline records mean/min/max across windows.
void publish_roofline(MetricsRegistry& m, std::string_view kernel,
                      std::uint64_t flops, const HwCounterValues& v);

}  // namespace mclx::obs
