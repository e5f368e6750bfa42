// Log-bucketed histogram: the one value metric of the registry — a
// streaming count / sum / min / max / stddev plus the distribution.
// Values land in power-of-two buckets (2^(e-1), 2^e], so a fixed, tiny
// footprint covers everything the pipeline observes — virtual seconds
// around 1e-6, merge widths in the tens, broadcast payloads in the
// gigabytes — and quantiles come out with bounded relative error
// (a factor of 2^(1/count-in-bucket) geometric interpolation inside the
// winning bucket, clamped to the exact observed min/max).
//
// Deterministic by construction: bucket placement and quantile
// interpolation use only the recorded values, never wall clocks, so
// histogram percentiles are legitimate fields for BENCH_regression.json
// and the perf gate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

namespace mclx::obs {

class Histogram {
 public:
  /// Feed one value. Non-finite values are dropped (they carry no
  /// distributional information and would poison sum/min/max);
  /// zero/negative values are counted in a dedicated underflow bucket
  /// represented at min(value series, 0).
  void record(double value) {
    if (!std::isfinite(value)) return;
    ++count_;
    sum_ += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
    // Welford update, with both means derived from the (single source of
    // truth) running sum: m2 += (v - mean_before) * (v - mean_after).
    const double mean_after = sum_ / static_cast<double>(count_);
    const double mean_before =
        count_ > 1 ? (sum_ - value) / static_cast<double>(count_ - 1) : value;
    m2_ += (value - mean_before) * (value - mean_after);
    if (value > 0) {
      ++buckets_[bucket_exponent(value)];
    } else {
      ++nonpositive_;
    }
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0; }
  /// Population variance / standard deviation (0 until two values).
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_) : 0;
  }
  double stddev() const { return std::sqrt(variance()); }
  bool empty() const { return count_ == 0; }

  /// Nearest-rank quantile with geometric interpolation inside the
  /// winning bucket, clamped to the observed [min, max]. q outside [0,1]
  /// is clamped; an empty histogram reports 0.
  double quantile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (rank == 0) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t below = 0;
    if (nonpositive_) {
      below += nonpositive_;
      if (rank <= below) return std::min(min_, 0.0);
    }
    for (const auto& [e, c] : buckets_) {
      if (rank <= below + c) {
        const double lo = std::ldexp(1.0, e - 1);
        const double frac =
            static_cast<double>(rank - below) / static_cast<double>(c);
        return std::clamp(lo * std::exp2(frac), min_, max_);
      }
      below += c;
    }
    return max_;  // unreachable unless counts drifted
  }

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Exponent e of the bucket (2^(e-1), 2^e] holding `value` (> 0).
  static int bucket_exponent(double value) {
    int e = static_cast<int>(std::ceil(std::log2(value)));
    // log2+ceil can land one off at exact powers of two under FP noise;
    // nudge until the half-open invariant holds.
    while (std::ldexp(1.0, e) < value) ++e;
    while (e > std::numeric_limits<double>::min_exponent &&
           std::ldexp(1.0, e - 1) >= value) {
      --e;
    }
    return e;
  }

  static double bucket_lo(int e) { return std::ldexp(1.0, e - 1); }
  static double bucket_hi(int e) { return std::ldexp(1.0, e); }

  /// Fold another histogram into this one. Buckets add; min/max/sum and
  /// counts combine as if every value had been recorded here, and m2
  /// by Chan et al.'s pairwise rule. Used to move privately accumulated
  /// distributions (e.g. the MemLedger's per-charge sizes, built under
  /// its own mutex) into a registry.
  void merge(const Histogram& other) {
    if (other.count_ == 0) return;
    const double n = static_cast<double>(count_);
    const double m = static_cast<double>(other.count_);
    const double delta = other.mean() - mean();
    m2_ += other.m2_ + delta * delta * n * m / (n + m);
    count_ += other.count_;
    nonpositive_ += other.nonpositive_;
    sum_ += other.sum_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    for (const auto& [e, c] : other.buckets_) buckets_[e] += c;
  }

  /// Positive-value buckets, exponent -> count (ordered; for tests and
  /// ad-hoc dumps). The underflow bucket is `nonpositive()`.
  const std::map<int, std::uint64_t>& buckets() const { return buckets_; }
  std::uint64_t nonpositive() const { return nonpositive_; }

  void clear() { *this = Histogram{}; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t nonpositive_ = 0;
  double sum_ = 0;
  double m2_ = 0;  ///< sum of squared deviations from the mean (Welford)
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::map<int, std::uint64_t> buckets_;
};

}  // namespace mclx::obs
