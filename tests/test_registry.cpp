// Hybrid kernel policy and the LocalMultiplier dispatcher: selection by
// flops and cf, GPU fallback on OOM / GPU-less machines, consistency of
// the reported cost components, and every kind's product pinned bitwise
// to the SPA reference (the one fold order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/spa.hpp"
#include "util/rng.hpp"

namespace {

using namespace mclx;
using spgemm::KernelKind;
using C = sparse::Csc<vidx_t, val_t>;
using T = sparse::Triples<vidx_t, val_t>;

C random_csc(vidx_t n, double density, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(n, n);
  const auto entries = static_cast<std::uint64_t>(
      density * static_cast<double>(n) * static_cast<double>(n));
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(n)),
                     static_cast<vidx_t>(rng.bounded(n)), rng.uniform_pos());
  }
  t.sort_and_combine();
  return sparse::csc_from_triples(std::move(t));
}

/// Operands for the fold-order pins: every entry of A·B sums at least
/// three products of non-negative magnitudes spread over 2^-60 … 1, so
/// adding them in any other order than B's column order changes bits.
C spread_csc(vidx_t n, double density, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(n, n);
  const auto entries = static_cast<std::uint64_t>(
      density * static_cast<double>(n) * static_cast<double>(n));
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(n)),
                     static_cast<vidx_t>(rng.bounded(n)),
                     std::exp2(-60.0 * rng.uniform()));
  }
  t.sort_and_combine();
  return sparse::csc_from_triples(std::move(t));
}

/// Fewest products behind any stored entry of A·B.
std::uint64_t min_contributions(const C& a, const C& b) {
  std::uint64_t fewest = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> count(static_cast<std::size_t>(a.nrows()));
  for (vidx_t j = 0; j < b.ncols(); ++j) {
    std::fill(count.begin(), count.end(), 0);
    for (const vidx_t k : b.col_rows(j)) {
      for (const vidx_t r : a.col_rows(k)) ++count[static_cast<std::size_t>(r)];
    }
    for (const std::uint64_t c : count) {
      if (c > 0) fewest = std::min(fewest, c);
    }
  }
  return fewest;
}

/// Same structure and the same value bits (operator== holds -0.0 ==
/// +0.0, memcmp does not).
void expect_bitwise(const C& got, const C& want, spgemm::KernelKind kind) {
  EXPECT_EQ(got, want) << spgemm::kernel_name(kind);
  ASSERT_EQ(got.vals().size(), want.vals().size());
  EXPECT_EQ(std::memcmp(got.vals().data(), want.vals().data(),
                        want.vals().size() * sizeof(val_t)),
            0)
      << spgemm::kernel_name(kind);
}

TEST(HybridPolicy, SmallFlopsStaysOnCpu) {
  spgemm::HybridPolicy p;
  EXPECT_EQ(p.select(100, 50.0, true), KernelKind::kCpuHash);
  EXPECT_EQ(p.select(100, 0.5, true), KernelKind::kCpuHeap);
}

TEST(HybridPolicy, LargeFlopsGoesToGpuByCf) {
  spgemm::HybridPolicy p;
  const std::uint64_t big = p.min_gpu_flops * 10;
  EXPECT_EQ(p.select(big, 50.0, true), KernelKind::kGpuNsparse);
  EXPECT_EQ(p.select(big, 1.5, true), KernelKind::kGpuRmerge2);
}

TEST(HybridPolicy, NoGpuMeansCpu) {
  spgemm::HybridPolicy p;
  const std::uint64_t big = p.min_gpu_flops * 10;
  EXPECT_EQ(p.select(big, 50.0, false), KernelKind::kCpuHash);
}

TEST(HybridPolicy, UnknownCfUsesNeutralDefault) {
  spgemm::HybridPolicy p;
  // Neutral default cf (8) is above both thresholds: hash on CPU,
  // nsparse on GPU.
  EXPECT_EQ(p.select(10, -1, false), KernelKind::kCpuHash);
  EXPECT_EQ(p.select(p.min_gpu_flops * 2, -1, true),
            KernelKind::kGpuNsparse);
}

TEST(HybridPolicy, ThresholdBoundaries) {
  spgemm::HybridPolicy p;
  EXPECT_EQ(p.select(p.min_gpu_flops, p.gpu_cf_threshold, true),
            KernelKind::kGpuNsparse);  // >= on both
  EXPECT_EQ(p.select(p.min_gpu_flops - 1, p.cpu_cf_threshold, true),
            KernelKind::kCpuHash);
}

TEST(LocalMultiplier, FixedCpuKernelsMatchReference) {
  // Every kind folds in B's column order (docs/KERNELS.md, "Fold
  // order"), so each one reproduces SPA — which shares no code with the
  // accumulator — bit for bit.
  const sim::CostModel model(sim::summit_like(4));
  const C a = spread_csc(48, 1.0, 1);
  const C b = spread_csc(48, 1.0, 2);
  ASSERT_GE(min_contributions(a, b), 3u);
  const C ref = spgemm::spa_spgemm(a, b);
  for (const auto kind :
       {KernelKind::kCpuHeap, KernelKind::kCpuHash}) {
    spgemm::LocalMultiplier mult(model,
                                 spgemm::KernelPolicy::fixed_kernel(kind));
    const auto r = mult.multiply(a, b);
    EXPECT_EQ(r.used, kind);
    expect_bitwise(r.c, ref, kind);
    EXPECT_GT(r.cpu_time, 0.0);
    EXPECT_EQ(r.device_cost.kernel, 0.0);
    EXPECT_FALSE(r.gpu_fallback);
  }
}

TEST(LocalMultiplier, FixedGpuKernelsMatchReference) {
  const sim::CostModel model(sim::summit_like(4));
  const C a = spread_csc(48, 1.0, 3);
  const C b = spread_csc(48, 1.0, 4);
  ASSERT_GE(min_contributions(a, b), 3u);
  const C ref = spgemm::spa_spgemm(a, b);
  for (const auto kind :
       {KernelKind::kGpuNsparse, KernelKind::kGpuBhsparse,
        KernelKind::kGpuRmerge2}) {
    spgemm::LocalMultiplier mult(model,
                                 spgemm::KernelPolicy::fixed_kernel(kind));
    const auto r = mult.multiply(a, b);
    EXPECT_EQ(r.used, kind);
    EXPECT_FALSE(r.gpu_fallback) << spgemm::kernel_name(kind);
    expect_bitwise(r.c, ref, kind);
    EXPECT_GT(r.device_cost.kernel, 0.0);
    EXPECT_GT(r.device_cost.h2d, 0.0);
  }
}

TEST(LocalMultiplier, GpuRequestOnCpuOnlyMachineFallsBack) {
  const sim::CostModel model(sim::summit_like_cpu_only(4));
  spgemm::LocalMultiplier mult(
      model, spgemm::KernelPolicy::fixed_kernel(KernelKind::kGpuNsparse));
  EXPECT_EQ(mult.num_devices(), 0);
  const C a = random_csc(32, 0.2, 5);
  const auto r = mult.multiply(a, a);
  EXPECT_TRUE(r.gpu_fallback);
  EXPECT_EQ(r.used, KernelKind::kCpuHash);
  EXPECT_TRUE(sparse::approx_equal(spgemm::spa_spgemm(a, a), r.c));
}

TEST(LocalMultiplier, GpuOomFallsBackToCpu) {
  auto machine = sim::summit_like(4);
  machine.gpu_mem = 256;  // starve the device
  const sim::CostModel model(machine);
  spgemm::LocalMultiplier mult(
      model, spgemm::KernelPolicy::fixed_kernel(KernelKind::kGpuBhsparse));
  const C a = random_csc(64, 0.25, 6);
  const auto r = mult.multiply(a, a);
  EXPECT_TRUE(r.gpu_fallback);
  EXPECT_TRUE(sparse::approx_equal(spgemm::spa_spgemm(a, a), r.c));
}

TEST(LocalMultiplier, HybridUsesEstimatedCf) {
  const sim::CostModel model(sim::summit_like(4));
  spgemm::LocalMultiplier mult(model, spgemm::KernelPolicy::hybrid_policy());
  const C a = random_csc(80, 0.2, 7);  // flops well above min_gpu_flops
  const auto hi = mult.multiply(a, a, /*cf_estimate=*/40.0);
  EXPECT_EQ(hi.used, KernelKind::kGpuNsparse);
  const auto lo = mult.multiply(a, a, /*cf_estimate=*/1.2);
  EXPECT_EQ(lo.used, KernelKind::kGpuRmerge2);
}

TEST(LocalMultiplier, ReportsFlopsAndCf) {
  const sim::CostModel model(sim::summit_like(4));
  spgemm::LocalMultiplier mult(
      model, spgemm::KernelPolicy::fixed_kernel(KernelKind::kCpuHash));
  const C a = random_csc(40, 0.2, 8);
  const auto r = mult.multiply(a, a);
  EXPECT_EQ(r.flops, sparse::spgemm_flops(a, a));
  EXPECT_NEAR(r.cf,
              sparse::compression_factor(r.flops, r.c.nnz()), 1e-12);
}

TEST(KernelNames, AreStable) {
  EXPECT_EQ(spgemm::kernel_name(KernelKind::kCpuHash), "cpu-hash");
  EXPECT_EQ(spgemm::kernel_name(KernelKind::kCpuHeap), "cpu-heap");
  EXPECT_EQ(spgemm::kernel_name(KernelKind::kGpuNsparse), "nsparse");
  EXPECT_EQ(spgemm::kernel_name(KernelKind::kGpuBhsparse), "bhsparse");
  EXPECT_EQ(spgemm::kernel_name(KernelKind::kGpuRmerge2), "rmerge2");
  EXPECT_TRUE(spgemm::is_gpu_kernel(KernelKind::kGpuNsparse));
  EXPECT_FALSE(spgemm::is_gpu_kernel(KernelKind::kCpuHeap));
}

}  // namespace
