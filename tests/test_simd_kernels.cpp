// SIMD kernel suite: the fixed-lane primitive specs (util/simd.hpp).
// The central contract under test is *bit identity*: every backend
// (AVX2/NEON/scalar) implements the same fixed-lane algorithm, so
// results must be bitwise equal whether MCLX_SIMD is ON or OFF and at
// any thread count. The only tolerance-based test is the
// documented reassociation bound of simd::sum against a plain
// sequential sum (docs/PERFORMANCE.md "SIMD and floating point").
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace {

using namespace mclx;

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform() * 2 - 1;  // mixed signs
  return v;
}

/// The 4-lane strided-sum spec, written independently of util/simd.hpp:
/// element i feeds lane i%4, lanes fold as (s0+s1)+(s2+s3).
double spec_sum(const std::vector<double>& v) {
  double s[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < v.size(); ++i) s[i % 4] += v[i];
  return (s[0] + s[1]) + (s[2] + s[3]);
}

// ---------------------------------------------------------------------------
// Primitive specs: every backend computes the same fixed-lane algorithm.

TEST(SimdPrimitives, BackendReportsConsistently) {
  // Whichever backend compiled in, the metadata must agree with itself.
  if (simd::vectorized()) {
    EXPECT_NE(simd::backend(), "scalar");
    EXPECT_GT(simd::hw_lanes(), 1);
  } else {
    EXPECT_EQ(simd::backend(), "scalar");
    EXPECT_EQ(simd::hw_lanes(), 1);
  }
}

TEST(SimdPrimitives, SumMatchesFixedLaneSpecBitwise) {
  // Sweep lengths around the vector-width boundaries so every tail
  // length 0..7 is exercised.
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 15u, 16u, 17u, 1000u, 1003u}) {
    const auto v = random_values(n, 40 + n);
    EXPECT_EQ(simd::sum(v.data(), v.size()), spec_sum(v)) << "n=" << n;
  }
}

TEST(SimdPrimitives, SumReassociationWithinDocumentedBound) {
  // The 4-lane sum reassociates relative to a sequential sum; the
  // documented tolerance (docs/PERFORMANCE.md) is n·eps·Σ|v|.
  const auto v = random_values(10'000, 99);
  double seq = 0, abs_sum = 0;
  for (const double x : v) {
    seq += x;
    abs_sum += std::abs(x);
  }
  const double bound = static_cast<double>(v.size()) *
                       std::numeric_limits<double>::epsilon() * abs_sum;
  EXPECT_LE(std::abs(simd::sum(v.data(), v.size()) - seq), bound);
}

TEST(SimdPrimitives, HadamardPowSquaresExactly) {
  auto v = random_values(1001, 7);
  const auto ref = v;
  simd::hadamard_pow(v.data(), v.size(), 2.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], ref[i] * ref[i]);  // x·x in every backend, not pow
  }
}

TEST(SimdPrimitives, HadamardPowGeneralMatchesStdPow) {
  auto v = random_values(257, 8);
  for (auto& x : v) x = std::abs(x) + 0.01;  // keep pow real
  const auto ref = v;
  simd::hadamard_pow(v.data(), v.size(), 1.7);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], std::pow(ref[i], 1.7));
  }
}

TEST(SimdPrimitives, DivByIsExactIeeeDivision) {
  auto v = random_values(1003, 9);
  const auto ref = v;
  simd::div_by(v.data(), v.size(), 3.7);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], ref[i] / 3.7);
  }
}

TEST(SimdPrimitives, ThresholdFlagsMatchScalarPredicate) {
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 999u}) {
    auto v = random_values(n, 100 + n);
    if (n >= 4) {
      v[0] = 0.0;   // boundary values
      v[1] = 0.25;  // exactly the cutoff: kept (>=)
      v[2] = -0.25;
      v[3] = -0.0;
    }
    std::vector<char> flags(n, 2);  // poisoned, must be overwritten
    const auto kept = simd::threshold_flags(v.data(), n, 0.25, flags.data());
    std::uint64_t expect_kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const char want = std::abs(v[i]) >= 0.25 ? 1 : 0;
      EXPECT_EQ(flags[i], want) << "i=" << i;
      expect_kept += want;
    }
    EXPECT_EQ(kept, expect_kept);
  }
}

}  // namespace
