#include "obs/prof/roofline.hpp"

#include <cmath>
#include <string>

#include "obs/metrics.hpp"

namespace mclx::obs {

RooflinePrediction predicted_bytes_per_flop(std::string_view kernel) {
  // Frozen constants, calibrated on the bench_micro_kernels hub workload
  // (planted_matrix(2): the L2-spilling regime where DRAM traffic is the
  // story) and documented in docs/COSTMODEL.md "Roofline audit".
  if (kernel == "cpu-hash") return {0.48, true};
  if (kernel == "cpu-spa") return {0.95, true};  // dense accumulator sweeps
  // GPU-library kernels: traffic is on a device we don't count. cpu-heap:
  // its window measures the row accumulator, not a heap, so a heap's
  // traffic would be wrong by construction.
  return {};
}

void publish_roofline(MetricsRegistry& m, std::string_view kernel,
                      std::uint64_t flops, const HwCounterValues& v) {
  if (flops == 0) return;
  const RooflinePrediction pred = predicted_bytes_per_flop(kernel);
  const std::string prefix = "prof.hw." + std::string(kernel) + ".";
  if (pred.known) {
    m.record(prefix + "bytes_per_flop.predicted", pred.bytes_per_flop);
  }
  if (!v.available) return;
  const double fl = static_cast<double>(flops);
  const double measured =
      static_cast<double>(v.llc_misses) * kCacheLineBytes / fl;
  m.record(prefix + "bytes_per_flop.measured", measured);
  if (pred.known) {
    // Same convention as estimate.unpruned_nnz.rel_error: relative to
    // the measured truth, guarded against a zero-traffic window (tiny
    // multiply fully resident in cache).
    const double denom = measured > 0 ? measured : pred.bytes_per_flop;
    if (denom > 0) {
      m.record(prefix + "bytes_per_flop.rel_error",
                std::abs(pred.bytes_per_flop - measured) / denom);
    }
  }
  m.record(prefix + "cycles_per_flop", static_cast<double>(v.cycles) / fl);
  if (v.instructions > 0) {
    m.record(prefix + "l1d_miss_rate",
              static_cast<double>(v.l1d_misses) /
                  static_cast<double>(v.instructions));
  }
}

}  // namespace mclx::obs
