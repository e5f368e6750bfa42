// Simulated-GPU tests: the three device kinds' products pinned bitwise to
// the SPA reference (parameterized), device-memory accounting and OOM,
// the dispatcher's cost reporting on one device, and multi-GPU column
// splitting pinned bitwise to a per-slice reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gpuk/device.hpp"
#include "gpuk/multigpu.hpp"
#include "sim/costmodel.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "spgemm/hash.hpp"
#include "spgemm/spa.hpp"
#include "util/rng.hpp"

namespace {

using namespace mclx;
using C = sparse::Csc<vidx_t, val_t>;
using T = sparse::Triples<vidx_t, val_t>;

C random_csc(vidx_t nrows, vidx_t ncols, double density, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  T t(nrows, ncols);
  const auto entries = static_cast<std::uint64_t>(
      density * static_cast<double>(nrows) * static_cast<double>(ncols));
  for (std::uint64_t e = 0; e < entries; ++e) {
    t.push_unchecked(static_cast<vidx_t>(rng.bounded(nrows)),
                     static_cast<vidx_t>(rng.bounded(ncols)),
                     rng.uniform() * 2 - 1);
  }
  t.sort_and_combine();
  return sparse::csc_from_triples(std::move(t));
}

sim::CostModel model() { return sim::CostModel(sim::summit_like(4)); }

struct Case {
  std::string name;
  vidx_t m, k, n;
  double da, db;
  std::uint64_t seed;
};

/// The product a one-device multiply with library `kind` returns.
C device_product(spgemm::KernelKind kind, const C& a, const C& b) {
  const auto m = model();
  std::vector<gpuk::GpuDevice> dev(1, gpuk::GpuDevice(m.machine().gpu_mem));
  return gpuk::multi_gpu_spgemm(kind, a, b, dev, m).c;
}

class GpuKernelEquivalence : public testing::TestWithParam<Case> {};

TEST_P(GpuKernelEquivalence, EscMatchesSpa) {
  const auto& c = GetParam();
  const C a = random_csc(c.m, c.k, c.da, c.seed);
  const C b = random_csc(c.k, c.n, c.db, c.seed + 1);
  EXPECT_EQ(device_product(spgemm::KernelKind::kGpuBhsparse, a, b),
            spgemm::spa_spgemm(a, b));
}

TEST_P(GpuKernelEquivalence, RmergeMatchesSpa) {
  const auto& c = GetParam();
  const C a = random_csc(c.m, c.k, c.da, c.seed);
  const C b = random_csc(c.k, c.n, c.db, c.seed + 1);
  EXPECT_EQ(device_product(spgemm::KernelKind::kGpuRmerge2, a, b),
            spgemm::spa_spgemm(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GpuKernelEquivalence,
    testing::Values(Case{"small", 20, 20, 20, 0.2, 0.2, 1},
                    Case{"dense", 50, 50, 50, 0.3, 0.3, 2},
                    Case{"sparse", 200, 200, 200, 0.01, 0.01, 3},
                    Case{"rect", 60, 30, 90, 0.1, 0.15, 4},
                    Case{"one_col", 40, 40, 1, 0.2, 0.6, 5},
                    Case{"empty", 30, 30, 30, 0.0, 0.1, 6}),
    [](const testing::TestParamInfo<Case>& info) { return info.param.name; });

TEST(GpuDevice, AllocFreeAccounting) {
  gpuk::GpuDevice dev(1000);
  dev.alloc(400);
  EXPECT_EQ(dev.used(), 400u);
  EXPECT_EQ(dev.available(), 600u);
  dev.free(150);
  EXPECT_EQ(dev.used(), 250u);
}

TEST(GpuDevice, OomThrowsWithDetail) {
  gpuk::GpuDevice dev(100);
  dev.alloc(80);
  try {
    dev.alloc(50);
    FAIL() << "expected GpuOom";
  } catch (const gpuk::GpuOom& oom) {
    EXPECT_EQ(oom.requested(), 50u);
    EXPECT_EQ(oom.available(), 20u);
  }
}

TEST(GpuDevice, ReservationIsRaii) {
  gpuk::GpuDevice dev(1000);
  {
    gpuk::GpuDevice::Reservation r(dev, 600);
    EXPECT_EQ(dev.used(), 600u);
  }
  EXPECT_EQ(dev.used(), 0u);
}

TEST(GpuDevice, FreeClampsAtZero) {
  gpuk::GpuDevice dev(100);
  dev.alloc(10);
  dev.free(500);  // over-free must not wrap
  EXPECT_EQ(dev.used(), 0u);
}

TEST(GpuDispatch, ComputesCorrectProductAndCosts) {
  const C a = random_csc(40, 40, 0.2, 7);
  const C b = random_csc(40, 40, 0.2, 8);
  std::vector<gpuk::GpuDevice> dev(
      1, gpuk::GpuDevice(sim::summit_like(4).gpu_mem));
  const auto m = model();
  const auto r = gpuk::multi_gpu_spgemm(spgemm::KernelKind::kGpuNsparse, a,
                                        b, dev, m);
  EXPECT_TRUE(sparse::approx_equal(spgemm::spa_spgemm(a, b), r.c));
  EXPECT_GT(r.flops, 0u);
  EXPECT_GE(r.cf, 1.0);
  EXPECT_EQ(r.devices_used, 1);
  EXPECT_GT(r.cost.h2d, 0.0);
  EXPECT_GT(r.cost.kernel, 0.0);
  EXPECT_GT(r.cost.d2h, 0.0);
  EXPECT_EQ(r.cost.bytes_in, a.bytes() + b.bytes());
  EXPECT_EQ(r.cost.bytes_out, r.c.bytes());
  // Reservation released after the call.
  EXPECT_EQ(dev[0].used(), 0u);
}

TEST(GpuDispatch, RejectsCpuKernel) {
  const C a = random_csc(10, 10, 0.2, 9);
  std::vector<gpuk::GpuDevice> dev(1, gpuk::GpuDevice(1 << 20));
  const auto m = model();
  EXPECT_THROW(
      gpuk::multi_gpu_spgemm(spgemm::KernelKind::kCpuHash, a, a, dev, m),
      std::invalid_argument);
}

TEST(GpuDispatch, TinyDeviceOoms) {
  const C a = random_csc(100, 100, 0.3, 10);
  std::vector<gpuk::GpuDevice> dev(1, gpuk::GpuDevice(64));  // nothing fits
  const auto m = model();
  EXPECT_THROW(
      gpuk::multi_gpu_spgemm(spgemm::KernelKind::kGpuBhsparse, a, a, dev, m),
      gpuk::GpuOom);
  EXPECT_EQ(dev[0].used(), 0u);  // failed reservation leaves no leak
}

TEST(GpuDispatch, EscWorkspaceLargerThanHash) {
  // ESC materializes all intermediate products; its working set must
  // exceed nsparse's for the same multiply.
  const C a = random_csc(60, 60, 0.3, 11);
  const std::uint64_t flops = sparse::spgemm_flops(a, a);
  const auto esc = gpuk::gpu_working_set_bytes(
      spgemm::KernelKind::kGpuBhsparse, 2 * a.bytes(), flops, flops / 4);
  const auto ns = gpuk::gpu_working_set_bytes(
      spgemm::KernelKind::kGpuNsparse, 2 * a.bytes(), flops, flops / 4);
  EXPECT_GT(esc, ns);
}

/// What a g-device multiply reports when every device multiplies its own
/// copy of its B slice and the slices are concatenated: the definition
/// multi_gpu_spgemm's single product must reproduce bit for bit. Every
/// library folds in the one order, so each slice's product is
/// hash_spgemm's; the kind shows in the working set and the cost. Throws
/// GpuOom for the first slice whose working set exceeds `capacity`.
gpuk::MultiGpuResult per_slice_reference(spgemm::KernelKind kind, const C& a,
                                         const C& b, int g,
                                         const sim::CostModel& m,
                                         bytes_t capacity) {
  gpuk::MultiGpuResult out;
  std::vector<C> pieces;
  const vidx_t per = (b.ncols() + g - 1) / g;
  for (vidx_t d = 0; d < g; ++d) {
    const vidx_t j0 = std::min(d * per, b.ncols());
    const vidx_t j1 = std::min(j0 + per, b.ncols());
    if (j0 == j1) continue;
    const C bs = sparse::csc_col_slice(b, j0, j1);
    const std::uint64_t flops = sparse::spgemm_flops(a, bs);
    const std::uint64_t out_bound = std::min<std::uint64_t>(
        flops, static_cast<std::uint64_t>(a.nrows()) *
                   static_cast<std::uint64_t>(bs.ncols()));
    const bytes_t need = gpuk::gpu_working_set_bytes(
        kind, a.bytes() + bs.bytes(), flops, out_bound);
    if (need > capacity) throw gpuk::GpuOom(need, capacity);
    C cs = spgemm::hash_spgemm(a, bs);
    const double cf = sparse::compression_factor(flops, cs.nnz());
    const double width =
        static_cast<double>(bs.nnz()) / static_cast<double>(bs.ncols());
    out.flops += flops;
    out.cost.h2d = std::max(out.cost.h2d, m.h2d(a.bytes() + bs.bytes()));
    out.cost.kernel =
        std::max(out.cost.kernel, m.local_spgemm(kind, flops, cf, width));
    out.cost.d2h = std::max(out.cost.d2h, m.d2h(cs.bytes()));
    out.cost.bytes_in = std::max(out.cost.bytes_in, a.bytes() + bs.bytes());
    out.cost.bytes_out = std::max(out.cost.bytes_out, cs.bytes());
    pieces.push_back(std::move(cs));
    ++out.devices_used;
  }
  out.c = pieces.empty() ? C(a.nrows(), b.ncols()) : sparse::csc_hcat(pieces);
  out.cf = pieces.empty() ? 1.0
                          : sparse::compression_factor(out.flops, out.c.nnz());
  return out;
}

struct SplitCase {
  spgemm::KernelKind kind;
  int devices;
  vidx_t b_cols;
};

class DeviceSplit : public testing::TestWithParam<SplitCase> {};

TEST_P(DeviceSplit, MatchesPerSliceReference) {
  const auto& p = GetParam();
  const C a = random_csc(70, 50, 0.12, 31);
  const C b = random_csc(50, p.b_cols, 0.15, 32);
  const auto m = model();
  const bytes_t cap = m.machine().gpu_mem;
  std::vector<gpuk::GpuDevice> devs(static_cast<std::size_t>(p.devices),
                                    gpuk::GpuDevice(cap));
  const auto ref = per_slice_reference(p.kind, a, b, p.devices, m, cap);
  const auto r = gpuk::multi_gpu_spgemm(p.kind, a, b, devs, m);
  EXPECT_EQ(r.c, ref.c);  // bitwise, not approx
  EXPECT_EQ(r.flops, ref.flops);
  EXPECT_EQ(r.cf, ref.cf);
  EXPECT_EQ(r.devices_used, ref.devices_used);
  EXPECT_EQ(r.cost.h2d, ref.cost.h2d);
  EXPECT_EQ(r.cost.kernel, ref.cost.kernel);
  EXPECT_EQ(r.cost.d2h, ref.cost.d2h);
  EXPECT_EQ(r.cost.bytes_in, ref.cost.bytes_in);
  EXPECT_EQ(r.cost.bytes_out, ref.cost.bytes_out);
  for (const auto& d : devs) EXPECT_EQ(d.used(), 0u);
}

TEST_P(DeviceSplit, OomMatchesPerSliceReference) {
  // A device too small for the largest slice: the same slice must fail
  // first, with the same requested and available bytes.
  const auto& p = GetParam();
  const C a = random_csc(70, 50, 0.12, 33);
  const C b = random_csc(50, p.b_cols, 0.15, 34);
  const auto m = model();
  // Raise the capacity to each failing request until every slice fits:
  // the last value is the largest slice's working set.
  bytes_t largest = 64;
  for (;;) {
    try {
      per_slice_reference(p.kind, a, b, p.devices, m, largest);
      break;
    } catch (const gpuk::GpuOom& oom) {
      largest = oom.requested();
    }
  }
  for (const bytes_t cap : {bytes_t{64}, largest - 1}) {
    std::vector<gpuk::GpuDevice> devs(static_cast<std::size_t>(p.devices),
                                      gpuk::GpuDevice(cap));
    bytes_t want_req = 0, want_avail = 0, got_req = 0, got_avail = 0;
    try {
      per_slice_reference(p.kind, a, b, p.devices, m, cap);
    } catch (const gpuk::GpuOom& oom) {
      want_req = oom.requested();
      want_avail = oom.available();
    }
    try {
      gpuk::multi_gpu_spgemm(p.kind, a, b, devs, m);
    } catch (const gpuk::GpuOom& oom) {
      got_req = oom.requested();
      got_avail = oom.available();
    }
    ASSERT_GT(want_req, 0u) << "capacity " << cap;
    EXPECT_EQ(got_req, want_req) << "capacity " << cap;
    EXPECT_EQ(got_avail, want_avail) << "capacity " << cap;
    for (const auto& d : devs) EXPECT_EQ(d.used(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndDevices, DeviceSplit,
    testing::Values(SplitCase{spgemm::KernelKind::kGpuNsparse, 1, 45},
                    SplitCase{spgemm::KernelKind::kGpuNsparse, 4, 45},
                    SplitCase{spgemm::KernelKind::kGpuNsparse, 6, 45},
                    SplitCase{spgemm::KernelKind::kGpuNsparse, 6, 4},
                    SplitCase{spgemm::KernelKind::kGpuRmerge2, 1, 45},
                    SplitCase{spgemm::KernelKind::kGpuRmerge2, 4, 45},
                    SplitCase{spgemm::KernelKind::kGpuRmerge2, 6, 45},
                    SplitCase{spgemm::KernelKind::kGpuRmerge2, 6, 4},
                    SplitCase{spgemm::KernelKind::kGpuBhsparse, 1, 45},
                    SplitCase{spgemm::KernelKind::kGpuBhsparse, 4, 45},
                    SplitCase{spgemm::KernelKind::kGpuBhsparse, 6, 45},
                    SplitCase{spgemm::KernelKind::kGpuBhsparse, 6, 4}),
    [](const testing::TestParamInfo<SplitCase>& info) {
      return std::string(spgemm::kernel_name(info.param.kind)) + "_g" +
             std::to_string(info.param.devices) + "_n" +
             std::to_string(info.param.b_cols);
    });

TEST(MultiGpu, MatchesSingleDeviceResult) {
  const C a = random_csc(50, 50, 0.15, 12);
  const C b = random_csc(50, 50, 0.15, 13);
  const auto m = model();
  std::vector<gpuk::GpuDevice> devs(6, gpuk::GpuDevice(m.machine().gpu_mem));
  const auto r =
      gpuk::multi_gpu_spgemm(spgemm::KernelKind::kGpuNsparse, a, b, devs, m);
  EXPECT_TRUE(sparse::approx_equal(spgemm::spa_spgemm(a, b), r.c));
  EXPECT_EQ(r.devices_used, 6);
  EXPECT_EQ(r.flops, sparse::spgemm_flops(a, b));
}

TEST(MultiGpu, FewerColumnsThanDevices) {
  const C a = random_csc(30, 30, 0.3, 14);
  const C b = random_csc(30, 2, 0.8, 15);
  const auto m = model();
  std::vector<gpuk::GpuDevice> devs(6, gpuk::GpuDevice(m.machine().gpu_mem));
  const auto r =
      gpuk::multi_gpu_spgemm(spgemm::KernelKind::kGpuRmerge2, a, b, devs, m);
  EXPECT_TRUE(sparse::approx_equal(spgemm::spa_spgemm(a, b), r.c));
  EXPECT_LE(r.devices_used, 2);
}

TEST(MultiGpu, CostIsMaxNotSum) {
  // With g devices splitting columns evenly, aggregate kernel time must be
  // close to a single device's time on 1/g of the work — far below the
  // single-device time for the whole multiply.
  const C a = random_csc(80, 80, 0.2, 16);
  const C b = random_csc(80, 80, 0.2, 17);
  const auto m = model();
  std::vector<gpuk::GpuDevice> one(1, gpuk::GpuDevice(m.machine().gpu_mem));
  std::vector<gpuk::GpuDevice> four(4, gpuk::GpuDevice(m.machine().gpu_mem));
  const auto r1 =
      gpuk::multi_gpu_spgemm(spgemm::KernelKind::kGpuNsparse, a, b, one, m);
  const auto r4 =
      gpuk::multi_gpu_spgemm(spgemm::KernelKind::kGpuNsparse, a, b, four, m);
  EXPECT_LT(r4.cost.kernel, r1.cost.kernel);
}

TEST(MultiGpu, NoDevicesThrows) {
  const C a = random_csc(10, 10, 0.2, 18);
  const auto m = model();
  std::vector<gpuk::GpuDevice> none;
  EXPECT_THROW(
      gpuk::multi_gpu_spgemm(spgemm::KernelKind::kGpuNsparse, a, a, none, m),
      std::invalid_argument);
}

TEST(CostModel, GpuEfficiencyCurvesCrossover) {
  // nsparse must dominate at high cf; rmerge2 must win at cf ~ 1 (§VII-B).
  const auto m = model();
  const double ns_hi = m.gpu_efficiency(spgemm::KernelKind::kGpuNsparse, 64);
  const double rm_hi = m.gpu_efficiency(spgemm::KernelKind::kGpuRmerge2, 64);
  const double bh_hi = m.gpu_efficiency(spgemm::KernelKind::kGpuBhsparse, 64);
  EXPECT_GT(ns_hi, bh_hi);
  EXPECT_GT(bh_hi, rm_hi);
  const double ns_lo = m.gpu_efficiency(spgemm::KernelKind::kGpuNsparse, 1);
  const double rm_lo = m.gpu_efficiency(spgemm::KernelKind::kGpuRmerge2, 1);
  EXPECT_GT(rm_lo, ns_lo);
}

}  // namespace
