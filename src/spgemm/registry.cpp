#include "spgemm/registry.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "sparse/ops.hpp"
#include "spgemm/hash.hpp"
#include "spgemm/spa.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace mclx::spgemm {

namespace {

/// Metrics hook: which kernel ran and the hybrid-policy decision inputs
/// (the flops/cf pair §VII-B selects on), so a run report shows *why*
/// each kernel was chosen, not just how often.
void report_selection(KernelKind kind, std::uint64_t flops,
                      double cf_estimate) {
  if (!obs::context().metrics) return;
  obs::count(std::string("spgemm.kernel.") + std::string(kernel_name(kind)));
  obs::record("spgemm.select.flops", static_cast<double>(flops));
  if (cf_estimate > 0) obs::record("spgemm.select.cf", cf_estimate);
}

}  // namespace

KernelKind HybridPolicy::select(std::uint64_t flops, double cf_estimate,
                                bool gpu_available) const {
  const double cf = cf_estimate > 0 ? cf_estimate : 8.0;  // neutral default
  if (!gpu_available || flops < min_gpu_flops) {
    return cf < cpu_cf_threshold ? KernelKind::kCpuHeap
                                 : KernelKind::kCpuHash;
  }
  return cf >= gpu_cf_threshold ? KernelKind::kGpuNsparse
                                : KernelKind::kGpuRmerge2;
}

LocalMultiplier::LocalMultiplier(const sim::CostModel& model,
                                 KernelPolicy policy)
    : model_(model), policy_(policy) {
  const auto& m = model_.machine();
  devices_.reserve(static_cast<std::size_t>(m.gpus_per_rank));
  for (int g = 0; g < m.gpus_per_rank; ++g) devices_.emplace_back(m.gpu_mem);
}

LocalSpgemmResult LocalMultiplier::run_cpu(KernelKind kind, const CscD& a,
                                           const CscD& b,
                                           std::uint64_t flops) {
  LocalSpgemmResult r;
  r.used = kind;
  r.flops = flops;
  // The registry wrapper is the one per-kernel instrumentation point:
  // every dispatch leaves a flight-recorder event. It never touches the
  // multiply's inputs or outputs, preserving bit-identity with the
  // recorder off (tests/test_prof.cpp pins this).
  obs::fr_record(obs::FrEventKind::kKernel, kernel_name(kind), flops);
  switch (kind) {
    case KernelKind::kCpuHeap:
    case KernelKind::kCpuHash:
      // Both kinds fold in the one order (docs/KERNELS.md, "Fold order"),
      // so the heap's character lives in its cost row alone. Lanes are an
      // execution detail: the product is bitwise the same at any count,
      // so neither the kind nor the cost below sees them.
      r.c = hash_spgemm(a, b, flops >= kMinLaneFlops ? par::effective_lanes()
                                                     : 1);
      break;
    case KernelKind::kCpuSpa:
      r.c = spa_spgemm(a, b);
      break;
    default:
      throw std::invalid_argument("run_cpu: not a CPU kernel");
  }
  r.cf = sparse::compression_factor(flops, r.c.nnz());
  const double width = b.ncols() == 0
                           ? 0.0
                           : static_cast<double>(b.nnz()) /
                                 static_cast<double>(b.ncols());
  r.cpu_time = model_.local_spgemm(kind, flops, r.cf, width);
  return r;
}

LocalSpgemmResult LocalMultiplier::multiply(const CscD& a, const CscD& b,
                                            double cf_estimate) {
  const std::uint64_t flops = sparse::spgemm_flops(a, b);
  const KernelKind kind =
      policy_.fixed ? *policy_.fixed
                    : policy_.hybrid.select(flops, cf_estimate,
                                            !devices_.empty());
  report_selection(kind, flops, cf_estimate);

  if (!is_gpu_kernel(kind)) return run_cpu(kind, a, b, flops);

  if (devices_.empty()) {
    // A GPU kernel was requested on a GPU-less rank: honest fallback.
    LocalSpgemmResult r = run_cpu(KernelKind::kCpuHash, a, b, flops);
    r.gpu_fallback = true;
    obs::count("spgemm.gpu_fallbacks");
    return r;
  }

  try {
    gpuk::MultiGpuResult g = gpuk::multi_gpu_spgemm(kind, a, b, devices_,
                                                    model_);
    LocalSpgemmResult r;
    r.c = std::move(g.c);
    r.used = kind;
    r.flops = g.flops;
    r.cf = g.cf;
    r.device_cost = g.cost;
    return r;
  } catch (const gpuk::GpuOom& oom) {
    util::log_debug("gpu oom (", oom.requested(), " > ", oom.available(),
                    " bytes); falling back to cpu-hash");
    LocalSpgemmResult r = run_cpu(KernelKind::kCpuHash, a, b, flops);
    r.gpu_fallback = true;
    obs::count("spgemm.gpu_fallbacks");
    return r;
  }
}

}  // namespace mclx::spgemm
