// Unit tests for util: RNG determinism and distribution sanity, statistics
// helpers, the table printer, and the CLI parser.
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mclx::util;

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedRespectsBound) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedZeroIsZero) {
  Xoshiro256 rng(13);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
  Xoshiro256 rng(17);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) ++hits[rng.bounded(8)];
  for (const int h : hits) EXPECT_GT(h, 500);
}

TEST(Rng, BoundedRejectsBiasForHugeBound) {
  // bound = 3 * 2^62: a bare multiply-shift maps two of every four
  // 64-bit draws onto the residues divisible by 3, so half the draws
  // would land there. The rejection step restores the uniform third.
  Xoshiro256 rng(19);
  const std::uint64_t bound = 3ull << 62;
  const int n = 30000;
  int div3 = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = rng.bounded(bound);
    ASSERT_LT(x, bound);
    if (x % 3 == 0) ++div3;
  }
  EXPECT_NEAR(static_cast<double>(div3) / n, 1.0 / 3.0, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Xoshiro256 rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);  // mean of Exp(2) is 1/2
}

TEST(Rng, ExponentialIsPositive) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  Xoshiro256 rng(29);
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(Rng, DeriveSeedDistinctStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(5, 3), derive_seed(5, 3));
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, EmptyVectorsAreZero) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(stddev({}), 0.0);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(min_of({}), 0.0);
  EXPECT_EQ(max_of({}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 12.5), 5.0);
}

TEST(Stats, RelativeErrorPct) {
  EXPECT_DOUBLE_EQ(relative_error_pct(110, 100), 10.0);
  EXPECT_DOUBLE_EQ(relative_error_pct(90, 100), 10.0);
  EXPECT_DOUBLE_EQ(relative_error_pct(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(relative_error_pct(5, 0), 100.0);
}

TEST(Stats, GeomeanAndErrors) {
  EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12);
  EXPECT_THROW(geomean({1, 0}), std::invalid_argument);
}

TEST(Stats, ParallelEfficiency) {
  // Perfect scaling: 2x nodes, half the time -> efficiency 1.
  EXPECT_DOUBLE_EQ(parallel_efficiency(10, 100, 5, 200), 1.0);
  // No speedup: 2x nodes, same time -> 0.5.
  EXPECT_DOUBLE_EQ(parallel_efficiency(10, 100, 10, 200), 0.5);
}

TEST(Stats, Summarize) {
  const Summary s = summarize({2, 4, 6});
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.median, 4.0);
}

TEST(Table, AlignsAndPrints) {
  Table t("Demo");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"bb", "22"});
  t.note("footnote");
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("* footnote"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_int(42), "42");
  EXPECT_EQ(Table::fmt_pct(12.3, 0), "12%");
  EXPECT_EQ(Table::fmt_speedup(2.5, 1), "2.5x");
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=x"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get("beta", ""), "x");
  cli.finish();
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_EQ(cli.get_double("missing2", 1.5), 1.5);
  EXPECT_TRUE(cli.get_bool("missing3", true));
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, UnknownFlagRejectedByFinish) {
  const char* argv[] = {"prog", "--typo", "1"};
  Cli cli(3, const_cast<char**>(argv));
  cli.get_int("real", 0);
  EXPECT_THROW(cli.finish(), std::invalid_argument);
}

TEST(Cli, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_TRUE(cli.help_requested());
}

TEST(Cli, PositionalArgumentRejected) {
  const char* argv[] = {"prog", "--alpha", "1", "input.mtx", "extra"};
  EXPECT_THROW(Cli(5, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Cli, UsageListsRegisteredFlagsWithDefaultsAndHelp) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, const_cast<char**>(argv));
  cli.get_int("nodes", 4, "simulated nodes");
  cli.get("input", "");
  EXPECT_EQ(cli.usage(),
            "usage: prog [flags]\n"
            "  --nodes (default: 4)  simulated nodes\n"
            "  --input (default: )\n");
}

/// Restores the global log threshold and std::cerr after a test.
class LogCapture {
 public:
  LogCapture() : level_(log_level()), old_(std::cerr.rdbuf(buf_.rdbuf())) {}
  ~LogCapture() {
    std::cerr.rdbuf(old_);
    set_log_level(level_);
  }
  std::string text() const { return buf_.str(); }

 private:
  LogLevel level_;
  std::ostringstream buf_;
  std::streambuf* old_;
};

TEST(Log, ParseLevelIsCaseInsensitiveAndFallsBackToWarn) {
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("none"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("Off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("verbose"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level(""), LogLevel::kWarn);
}

TEST(Log, MessagesBelowTheThresholdAreDropped) {
  LogCapture capture;
  set_log_level(LogLevel::kInfo);
  EXPECT_EQ(log_level(), LogLevel::kInfo);
  log_debug("hidden ", 1);
  log_info("shown ", 2);
  log_warn("warned ", 3.5);
  log_error("failed");
  EXPECT_EQ(capture.text(),
            "[mclx INFO ] shown 2\n"
            "[mclx WARN ] warned 3.5\n"
            "[mclx ERROR] failed\n");

  set_log_level(LogLevel::kOff);
  log_error("silenced");
  EXPECT_EQ(capture.text().find("silenced"), std::string::npos);
}

}  // namespace
