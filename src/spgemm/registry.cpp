#include "spgemm/registry.hpp"

#include "obs/metrics.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "sparse/ops.hpp"
#include "spgemm/hash.hpp"
#include "util/log.hpp"

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

bool LocalMultiplier::may_use_devices() const {
  return !devices_.empty() && (!policy_.fixed || is_gpu_kernel(*policy_.fixed));
}

LocalSpgemmResult LocalMultiplier::charge_cpu(KernelKind kind,
                                              const MultiplyCounts& counts) {
  // The registry is the one per-kernel instrumentation point: every CPU
  // dispatch leaves a flight-recorder event. It never touches a product,
  // preserving bit-identity with the recorder off (tests/test_prof.cpp
  // pins this).
  obs::fr_record(obs::FrEventKind::kKernel, kernel_name(kind), counts.flops);
  LocalSpgemmResult r;
  r.used = kind;
  r.flops = counts.flops;
  r.cf = sparse::compression_factor(counts.flops, counts.c_nnz);
  const double width = counts.b_ncols == 0
                           ? 0.0
                           : static_cast<double>(counts.b_nnz) /
                                 static_cast<double>(counts.b_ncols);
  r.cpu_time = model_.local_spgemm(kind, counts.flops, r.cf, width);
  return r;
}

LocalSpgemmResult LocalMultiplier::charge(const MultiplyCounts& counts,
                                          double cf_estimate) {
  const KernelKind kind =
      policy_.fixed ? *policy_.fixed
                    : policy_.hybrid.select(counts.flops, cf_estimate,
                                            !devices_.empty());
  report_selection(kind, counts.flops, cf_estimate);

  if (!is_gpu_kernel(kind)) return charge_cpu(kind, counts);

  const auto fall_back = [&] {
    LocalSpgemmResult r = charge_cpu(KernelKind::kCpuHash, counts);
    r.gpu_fallback = true;
    obs::count("spgemm.gpu_fallbacks");
    return r;
  };
  // A GPU kernel requested on a GPU-less rank: honest fallback.
  if (devices_.empty()) return fall_back();

  try {
    LocalSpgemmResult r;
    r.device_cost = gpuk::charge_slices(kind, counts.a_nrows, counts.a_bytes,
                                        counts.slices, devices_, model_);
    r.used = kind;
    r.flops = counts.flops;
    r.cf = sparse::compression_factor(counts.flops, counts.c_nnz);
    return r;
  } catch (const gpuk::GpuOom& oom) {
    util::log_debug("gpu oom (", oom.requested(), " > ", oom.available(),
                    " bytes); falling back to cpu-hash");
    return fall_back();
  }
}

LocalSpgemmResult LocalMultiplier::multiply(const CscD& a, const CscD& b,
                                            double cf_estimate) {
  // Every kind multiplies on hash_spgemm's row accumulator, so the
  // product does not wait for the selection.
  const std::uint64_t flops = sparse::spgemm_flops(a, b);
  CscD c = hash_spgemm(a, b);
  std::vector<gpuk::SliceCounts> slices;
  if (may_use_devices()) slices = gpuk::count_slices(a, b, c, num_devices());
  MultiplyCounts counts;
  counts.a_nrows = a.nrows();
  counts.a_bytes = a.bytes();
  counts.b_ncols = b.ncols();
  counts.b_nnz = b.nnz();
  counts.flops = flops;
  counts.c_nnz = c.nnz();
  counts.slices = slices;
  LocalSpgemmResult r = charge(counts, cf_estimate);
  r.c = std::move(c);
  return r;
}

}  // namespace mclx::spgemm
