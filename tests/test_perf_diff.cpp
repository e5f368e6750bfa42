// The perf gate: JSON flattening, per-field direction/tolerance policy,
// the three verdict outcomes (equal / improved / regressed) the CI step
// depends on, and the file-based flow mclx_perfdiff wraps.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/perf_diff.hpp"

namespace {

using namespace mclx;
using obs::Verdict;

// ------------------------------------------------------------- flattening

TEST(FlattenJson, NestedObjectsAndArraysBecomeDottedPaths) {
  const obs::FlatDoc doc = obs::flatten_json(R"({
    "schema_version": 2,
    "workload": {"generator": "planted_partition", "vertices": 480},
    "clustering": {"converged": true, "f1": 0.875},
    "iters": [{"chaos": 0.5}, {"chaos": 0.25}],
    "nothing": null
  })");

  ASSERT_TRUE(doc.count("schema_version"));
  EXPECT_EQ(doc.at("schema_version").kind, obs::FlatValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(doc.at("schema_version").number, 2.0);

  EXPECT_EQ(doc.at("workload.generator").kind,
            obs::FlatValue::Kind::kString);
  EXPECT_EQ(doc.at("workload.generator").text, "planted_partition");
  EXPECT_DOUBLE_EQ(doc.at("workload.vertices").number, 480.0);

  EXPECT_EQ(doc.at("clustering.converged").kind,
            obs::FlatValue::Kind::kBool);
  EXPECT_DOUBLE_EQ(doc.at("clustering.converged").number, 1.0);

  EXPECT_DOUBLE_EQ(doc.at("iters.0.chaos").number, 0.5);
  EXPECT_DOUBLE_EQ(doc.at("iters.1.chaos").number, 0.25);
  EXPECT_EQ(doc.at("nothing").kind, obs::FlatValue::Kind::kNull);
}

TEST(FlattenJson, RejectsMalformedInput) {
  EXPECT_THROW(obs::flatten_json("{"), std::runtime_error);
  EXPECT_THROW(obs::flatten_json("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(obs::flatten_json("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(obs::flatten_json("nope"), std::runtime_error);
  EXPECT_THROW(obs::flatten_json_file("/nonexistent/report.json"),
               std::runtime_error);
}

TEST(FlattenJson, DecodesStringEscapesFalseAndEmptyContainers) {
  const obs::FlatDoc doc = obs::flatten_json(R"({
    "s": "q\"b\\s\/n\nr\rt\tb\bf\f",
    "u": "\u0041\u00e9\u00C9",
    "off": false,
    "empty_obj": {},
    "empty_arr": [],
    "k": 1
  })");
  EXPECT_EQ(doc.at("s").text, "q\"b\\s/n\nr\rt\tb\bf\f");
  EXPECT_EQ(doc.at("u").text, std::string("A\xe9\xc9"));
  EXPECT_EQ(doc.at("off").kind, obs::FlatValue::Kind::kBool);
  EXPECT_DOUBLE_EQ(doc.at("off").number, 0.0);
  EXPECT_EQ(doc.at("off").text, "false");
  // Empty containers contribute no leaves.
  EXPECT_EQ(doc.count("empty_obj"), 0u);
  EXPECT_EQ(doc.count("empty_arr"), 0u);
  EXPECT_EQ(doc.size(), 4u);
}

TEST(FlattenJson, RejectsMalformedEscapes) {
  for (const char* bad : {
           R"({"a": "\q"})",      // unknown escape
           R"({"a": "\u00g1"})",  // non-hex digit
           R"({"a": "\u0100"})",  // beyond latin-1
           R"({"a": "\u00)",      // truncated escape
           R"({"a": "open)",      // unterminated string
           R"({"a": fals})",      // bad literal
       }) {
    EXPECT_THROW(obs::flatten_json(bad), std::runtime_error) << bad;
  }
}

// ---------------------------------------------------- hostile input corpus

/// Flattens `text`: "" when it parses, else the error, which must be a
/// named perf_diff error.
std::string flatten_error(const std::string& text, obs::FlatDoc* out = nullptr) {
  try {
    obs::FlatDoc doc = obs::flatten_json(text);
    if (out) *out = std::move(doc);
    return "";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("perf_diff: JSON offset ", 0), 0u) << what;
    return what;
  }
}

std::string nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') + "1" +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(FlattenJsonCorpus, EveryCaseIsANamedErrorOrACorrectParse) {
  struct Case {
    std::string text;
    const char* error;  ///< substring of the error; nullptr: parses
    std::vector<std::pair<std::string, double>> leaves;  ///< when it parses
  };
  const std::vector<Case> cases = {
      // NaN and infinities are not JSON numbers.
      {R"({"a": NaN})", "expected a value", {}},
      {R"({"a": nan})", "bad literal", {}},
      {R"({"a": Infinity})", "expected a value", {}},
      {R"({"a": -Infinity})", "bad number '-'", {}},
      {R"({"a": inf})", "expected a value", {}},
      // Huge exponents overflow or underflow a double.
      {R"({"a": 1e400})", "bad number '1e400'", {}},
      {R"({"a": -1e400})", "bad number '-1e400'", {}},
      {R"({"a": 1e-400})", "bad number '1e-400'", {}},
      {R"({"a": 1e99999999999999999999})", "bad number", {}},
      {R"({"a": 1e308, "b": -2.5e-300})", nullptr, {{"a", 1e308}, {"b", -2.5e-300}}},
      // CRLF line ends are whitespace.
      {"{\r\n  \"a\": 1,\r\n  \"b\": [2, 3]\r\n}\r\n", nullptr,
       {{"a", 1}, {"b.0", 2}, {"b.1", 3}}},
      // Trailing garbage.
      {R"({"a": 1} x)", "trailing characters after document", {}},
      {R"({"a": 1}})", "trailing characters after document", {}},
      {R"({"a": 1}{"b": 2})", "trailing characters after document", {}},
      {std::string("{\"a\": 1}\0", 9), "trailing characters after document", {}},
      {R"({"a": 1.5x})", "expected '}'", {}},
      {R"({"a": 1.2.3})", "bad number '1.2.3'", {}},
      {R"({"a": +1})", "bad number '+1'", {}},
      // Truncation.
      {"", "unexpected end of input", {}},
      {R"({"a": [1, 2)", "unexpected end of input", {}},
      {R"({"a": "b)", "unexpected end of input", {}},
      {R"({"a": tr)", "bad literal", {}},
      // Deep nesting: 64 levels parse, the 65th is named.
      {nested(64), nullptr, {{[] {
                                std::string path = "0";
                                for (int d = 1; d < 64; ++d) path += ".0";
                                return path;
                              }(),
                              1}}},
      {nested(65), "nesting deeper than 64 levels", {}},
      {std::string(100000, '['), "nesting deeper than 64 levels", {}},
      {[] {
         std::string deep;
         for (int d = 0; d < 100000; ++d) deep += "{\"k\":";
         return deep;
       }(),
       "nesting deeper than 64 levels", {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text.substr(0, 60));
    obs::FlatDoc doc;
    const std::string error = flatten_error(c.text, &doc);
    if (c.error) {
      EXPECT_NE(error.find(c.error), std::string::npos) << error;
      continue;
    }
    ASSERT_EQ(error, "");
    EXPECT_EQ(doc.size(), c.leaves.size());
    for (const auto& [path, value] : c.leaves) {
      ASSERT_TRUE(doc.count(path)) << path;
      EXPECT_EQ(doc.at(path).number, value) << path;
    }
  }
}

/// A BENCH-like document whose keys differ in more than one bit, so no
/// single flip makes two keys equal.
constexpr const char* kCorpusDoc = R"({
  "schema_version": 10,
  "workload": {"generator": "planted", "vertices": 480, "seed": 7},
  "clustering": {"converged": true, "f1": 0.9375, "extra": null},
  "iters": [{"chaos": 0.5, "nnz": 1200}, {"chaos": -2.5e-3, "nnz": 64}]
})";

TEST(FlattenJsonCorpus, EveryTruncationIsANamedError) {
  const std::string doc = kCorpusDoc;
  for (std::size_t n = 0; n < doc.size(); ++n) {
    SCOPED_TRACE("first " + std::to_string(n) + " bytes");
    EXPECT_NE(flatten_error(doc.substr(0, n)), "");
  }
}

TEST(FlattenJsonCorpus, EveryBitFlipIsANamedErrorOrAParseOfTheSameShape) {
  // A flip that keeps the text valid JSON changes a digit, a string
  // character or whitespace, never the structure: the parse keeps every
  // leaf, and its numbers stay finite.
  const std::string doc = kCorpusDoc;
  const std::size_t leaves = obs::flatten_json(doc).size();
  int parsed = 0;
  for (std::size_t byte = 0; byte < doc.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = doc;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      obs::FlatDoc flat;
      if (!flatten_error(bad, &flat).empty()) continue;
      ++parsed;
      EXPECT_EQ(flat.size(), leaves);
      for (const auto& [path, v] : flat) {
        EXPECT_TRUE(std::isfinite(v.number)) << path;
      }
    }
  }
  EXPECT_GT(parsed, 0);
}

// ------------------------------------------------------- verdict policy

obs::FlatDoc baseline_doc() {
  return obs::flatten_json(R"({
    "virtual": {"elapsed_s": 100.0, "cpu_idle_s": 10.0},
    "clustering": {"iterations": 12, "f1": 0.9, "modularity": 0.5},
    "memory": {"merge_peak_elements_max": 5000},
    "estimator": {"mean_rel_error": 0.05},
    "real_wall_s": 3.2
  })");
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  text.replace(text.find(from), from.size(), to);
  return text;
}

const obs::FieldDiff* field(const obs::DiffResult& d,
                            const std::string& path) {
  for (const auto& f : d.fields) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

TEST(PerfDiff, IdenticalReportsPass) {
  const obs::DiffResult d = obs::diff_reports(baseline_doc(), baseline_doc());
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.count(Verdict::kRegressed), 0u);
  EXPECT_EQ(d.count(Verdict::kImproved), 0u);
  // real_wall_s is policy-ignored even when equal.
  ASSERT_NE(field(d, "real_wall_s"), nullptr);
  EXPECT_EQ(field(d, "real_wall_s")->verdict, Verdict::kIgnored);
  EXPECT_NE(obs::summarize(d).find("OK"), std::string::npos);
}

TEST(PerfDiff, TimeIncreaseRegressesTimeDecreaseImproves) {
  obs::FlatDoc slower = baseline_doc();
  slower["virtual.elapsed_s"].number = 110.0;
  obs::DiffResult d = obs::diff_reports(baseline_doc(), slower);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(field(d, "virtual.elapsed_s")->verdict, Verdict::kRegressed);
  EXPECT_NE(obs::summarize(d).find("REGRESSED"), std::string::npos);

  obs::FlatDoc faster = baseline_doc();
  faster["virtual.elapsed_s"].number = 90.0;
  d = obs::diff_reports(baseline_doc(), faster);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(field(d, "virtual.elapsed_s")->verdict, Verdict::kImproved);
}

TEST(PerfDiff, DirectionalFamilies) {
  // idle: lower is better.
  obs::FlatDoc c = baseline_doc();
  c["virtual.cpu_idle_s"].number = 5.0;
  EXPECT_EQ(field(obs::diff_reports(baseline_doc(), c),
                  "virtual.cpu_idle_s")->verdict,
            Verdict::kImproved);

  // quality: higher is better.
  c = baseline_doc();
  c["clustering.f1"].number = 0.95;
  EXPECT_EQ(field(obs::diff_reports(baseline_doc(), c),
                  "clustering.f1")->verdict,
            Verdict::kImproved);
  c["clustering.f1"].number = 0.8;
  EXPECT_EQ(field(obs::diff_reports(baseline_doc(), c),
                  "clustering.f1")->verdict,
            Verdict::kRegressed);

  // memory and estimator error: lower is better.
  c = baseline_doc();
  c["memory.merge_peak_elements_max"].number = 4000;
  EXPECT_EQ(field(obs::diff_reports(baseline_doc(), c),
                  "memory.merge_peak_elements_max")->verdict,
            Verdict::kImproved);
  c = baseline_doc();
  c["estimator.mean_rel_error"].number = 0.10;
  EXPECT_EQ(field(obs::diff_reports(baseline_doc(), c),
                  "estimator.mean_rel_error")->verdict,
            Verdict::kRegressed);
}

TEST(PerfDiff, NeutralFieldAnyChangeRegresses) {
  // Iteration counts are deterministic: moving in *either* direction is
  // a behavior change the gate must flag.
  obs::FlatDoc c = baseline_doc();
  c["clustering.iterations"].number = 11;
  EXPECT_EQ(field(obs::diff_reports(baseline_doc(), c),
                  "clustering.iterations")->verdict,
            Verdict::kRegressed);
  c["clustering.iterations"].number = 13;
  EXPECT_EQ(field(obs::diff_reports(baseline_doc(), c),
                  "clustering.iterations")->verdict,
            Verdict::kRegressed);
}

TEST(PerfDiff, ToleranceAbsorbsFloatNoise) {
  obs::FlatDoc c = baseline_doc();
  c["virtual.elapsed_s"].number = 100.0 * (1 + 1e-12);
  obs::DiffResult d = obs::diff_reports(baseline_doc(), c);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(field(d, "virtual.elapsed_s")->verdict,
            Verdict::kWithinTolerance);

  // A loosened gate (the CI step passes --rel-tol 1e-6) lets bigger
  // drift through.
  obs::DiffOptions loose;
  loose.rel_tol = 1e-6;
  c["virtual.elapsed_s"].number = 100.0 * (1 + 1e-7);
  EXPECT_TRUE(obs::diff_reports(baseline_doc(), c, loose).ok());
}

TEST(PerfDiff, RealWallIgnoredByDefaultComparableOnRequest) {
  obs::FlatDoc c = baseline_doc();
  c["real_wall_s"].number = 1000.0;  // wildly slower machine
  EXPECT_TRUE(obs::diff_reports(baseline_doc(), c).ok());

  obs::DiffOptions opt;
  opt.ignore_real_wall = false;
  const obs::DiffResult d = obs::diff_reports(baseline_doc(), c, opt);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(field(d, "real_wall_s")->verdict, Verdict::kRegressed);
}

TEST(PerfDiff, RemovedAndAddedFieldsAreSkippedByDefault) {
  // Baseline-only field: reported as removed, does not fail the gate.
  obs::FlatDoc missing = baseline_doc();
  missing.erase("clustering.f1");
  obs::DiffResult d = obs::diff_reports(baseline_doc(), missing);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(field(d, "clustering.f1")->verdict, Verdict::kRemoved);
  EXPECT_EQ(d.count(Verdict::kMissing), 0u);

  // Candidate-only field: reported as added, does not fail.
  obs::FlatDoc added = baseline_doc();
  added["distributions.merge.ways.p99"] = {obs::FlatValue::Kind::kNumber,
                                           8.0, "8.0"};
  d = obs::diff_reports(baseline_doc(), added);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.count(Verdict::kAdded), 1u);
}

TEST(PerfDiff, StrictMissingFailsOnBaselineOnlyFields) {
  obs::FlatDoc missing = baseline_doc();
  missing.erase("clustering.f1");
  obs::DiffOptions strict;
  strict.strict_missing = true;
  const obs::DiffResult d =
      obs::diff_reports(baseline_doc(), missing, strict);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(field(d, "clustering.f1")->verdict, Verdict::kMissing);
}

TEST(PerfDiff, SchemaSkewBetweenReportVersionsDiffsCleanly) {
  // A v3-shaped baseline against a v4-shaped candidate: the candidate
  // gains ledger-backed memory fields and new distributions, and (for
  // the sake of the reverse direction) we also drop a baseline field.
  // Neither side's exclusive fields may fail the gate — only shared
  // fields gate, and schema_version itself is a neutral field the
  // baseline regeneration flow keeps in sync.
  const obs::FlatDoc v3 = obs::flatten_json(R"({
    "schema_version": 3,
    "memory": {"merge_peak_elements_max": 5000, "legacy_only_field": 1},
    "virtual": {"elapsed_s": 100.0}
  })");
  const obs::FlatDoc v4 = obs::flatten_json(R"({
    "schema_version": 3,
    "memory": {"merge_peak_elements_max": 5000,
               "peak_merge_resident_bytes_max": 80000,
               "ledger_charges": 1234},
    "distributions": {"memory.charge_bytes": {"count": 40, "p95": 4096.0}},
    "virtual": {"elapsed_s": 100.0}
  })");

  const obs::DiffResult d = obs::diff_reports(v3, v4);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(field(d, "memory.legacy_only_field")->verdict, Verdict::kRemoved);
  EXPECT_EQ(field(d, "memory.peak_merge_resident_bytes_max")->verdict,
            Verdict::kAdded);
  EXPECT_EQ(field(d, "distributions.memory.charge_bytes.p95")->verdict,
            Verdict::kAdded);
  EXPECT_EQ(field(d, "memory.merge_peak_elements_max")->verdict,
            Verdict::kEqual);
  const std::string summary = obs::summarize(d);
  EXPECT_NE(summary.find("removed"), std::string::npos);
  EXPECT_NE(summary.find("OK"), std::string::npos);

  // Same skew under --strict-missing: the removed field now gates.
  obs::DiffOptions strict;
  strict.strict_missing = true;
  EXPECT_FALSE(obs::diff_reports(v3, v4, strict).ok());
}

TEST(PerfDiff, RelErrorDistributionFieldsAreLowerBetter) {
  // contains_component matching: percentile paths under a rel_error
  // histogram ("distributions.estimate.rel_error.p95") are directional
  // like the plain mean/max fields.
  obs::FlatDoc b = obs::flatten_json(
      R"({"distributions": {"estimate.rel_error": {"p95": 0.10}}})");
  obs::FlatDoc c = obs::flatten_json(
      R"({"distributions": {"estimate.rel_error": {"p95": 0.05}}})");
  EXPECT_EQ(field(obs::diff_reports(b, c),
                  "distributions.estimate.rel_error.p95")->verdict,
            Verdict::kImproved);
  EXPECT_EQ(field(obs::diff_reports(c, b),
                  "distributions.estimate.rel_error.p95")->verdict,
            Verdict::kRegressed);
}

TEST(PerfDiff, TypeFlipAndStringChangeRegress) {
  obs::FlatDoc c = obs::flatten_json(
      R"({"workload": {"config": "optimized"}, "flag": true})");
  obs::FlatDoc b = c;

  c["workload.config"].text = "original";
  EXPECT_FALSE(obs::diff_reports(b, c).ok());

  c = b;
  c["flag"] = {obs::FlatValue::Kind::kNumber, 1.0, "1"};
  EXPECT_FALSE(obs::diff_reports(b, c).ok());
}

TEST(PerfDiff, IgnoredPrefixes) {
  obs::FlatDoc c = baseline_doc();
  c["estimator.mean_rel_error"].number = 0.5;
  obs::DiffOptions opt;
  opt.ignored_prefixes.push_back("estimator.");
  const obs::DiffResult d = obs::diff_reports(baseline_doc(), c, opt);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(field(d, "estimator.mean_rel_error")->verdict,
            Verdict::kIgnored);
}

// The candidate re-parsed from text, so rendered values carry the new
// token (a FlatValue edited in place keeps its old text).
obs::DiffResult slower_elapsed_diff() {
  const std::string text = R"({
    "virtual": {"elapsed_s": 100.0, "cpu_idle_s": 10.0},
    "clustering": {"iterations": 12, "f1": 0.9, "modularity": 0.5},
    "memory": {"merge_peak_elements_max": 5000},
    "estimator": {"mean_rel_error": 0.05},
    "real_wall_s": 3.2
  })";
  return obs::diff_reports(obs::flatten_json(text),
                           obs::flatten_json(replaced(text, "100.0", "110.0")));
}

TEST(PerfDiff, VerdictTableListsChangedFieldsUnlessAll) {
  const obs::DiffResult d = slower_elapsed_diff();
  const std::string brief = obs::verdict_table(d).to_string();
  EXPECT_NE(brief.find("virtual.elapsed_s"), std::string::npos);
  EXPECT_NE(brief.find("REGRESSED"), std::string::npos);
  EXPECT_NE(brief.find("110.0"), std::string::npos);
  // |110 - 100| / 110 as a percentage.
  EXPECT_NE(brief.find("9.0909%"), std::string::npos);
  EXPECT_EQ(brief.find("clustering.f1"), std::string::npos);
  // Six equal fields and the ignored wall clock are hidden and counted.
  EXPECT_NE(brief.find("7 equal / within-tolerance / ignored fields hidden"),
            std::string::npos);

  const std::string full = obs::verdict_table(d, true).to_string();
  EXPECT_NE(full.find("clustering.f1"), std::string::npos);
  EXPECT_NE(full.find("ignored"), std::string::npos);
  EXPECT_EQ(full.find("hidden"), std::string::npos);
}

TEST(PerfDiff, DiffJsonCountsEveryVerdictAndListsChangedFields) {
  const obs::DiffResult d = slower_elapsed_diff();
  std::ostringstream brief;
  obs::write_diff_json(brief, d);
  const obs::FlatDoc j = obs::flatten_json(brief.str());
  EXPECT_EQ(j.at("ok").text, "false");
  // Every verdict has a count, zero or not, so CI can read any of them.
  for (const char* name : {"equal", "within-tol", "IMPROVED", "REGRESSED",
                           "MISSING", "removed", "added", "ignored"}) {
    EXPECT_EQ(j.count(std::string("counts.") + name), 1u) << name;
  }
  EXPECT_DOUBLE_EQ(j.at("counts.equal").number, 6.0);
  EXPECT_DOUBLE_EQ(j.at("counts.REGRESSED").number, 1.0);
  EXPECT_DOUBLE_EQ(j.at("counts.ignored").number, 1.0);
  EXPECT_EQ(j.at("fields.0.path").text, "virtual.elapsed_s");
  EXPECT_EQ(j.at("fields.0.verdict").text, "REGRESSED");
  EXPECT_EQ(j.at("fields.0.baseline").text, "100.0");
  EXPECT_EQ(j.at("fields.0.candidate").text, "110.0");
  EXPECT_NEAR(j.at("fields.0.rel_delta").number, 10.0 / 110.0, 1e-12);
  EXPECT_EQ(j.count("fields.1.path"), 0u);

  std::ostringstream full;
  obs::write_diff_json(full, d, true);
  const obs::FlatDoc all = obs::flatten_json(full.str());
  EXPECT_EQ(all.count("fields.7.path"), 1u);
  EXPECT_EQ(all.count("fields.8.path"), 0u);
}

// ---------------------------------------------------- file-based (golden)

TEST(PerfDiffFiles, GateFlowOverFiles) {
  // What CI does: flatten two files, diff, act on ok(). An identical
  // copy passes; a perturbed deterministic field fails.
  const std::string base_path = testing::TempDir() + "/gate_base.json";
  const std::string same_path = testing::TempDir() + "/gate_same.json";
  const std::string worse_path = testing::TempDir() + "/gate_worse.json";

  const std::string text = R"({
    "virtual": {"elapsed_s": 100.0},
    "clustering": {"iterations": 12},
    "real_wall_s": 3.2
  })";
  std::ofstream(base_path) << text;
  std::ofstream(same_path) << text;
  std::ofstream(worse_path)
      << replaced(replaced(text, "100.0", "120.0"), "3.2", "99.0");

  const obs::FlatDoc base = obs::flatten_json_file(base_path);
  EXPECT_TRUE(
      obs::diff_reports(base, obs::flatten_json_file(same_path)).ok());

  const obs::DiffResult d =
      obs::diff_reports(base, obs::flatten_json_file(worse_path));
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(field(d, "virtual.elapsed_s")->verdict, Verdict::kRegressed);
  // The wall-clock change alone must not fail anything.
  EXPECT_EQ(field(d, "real_wall_s")->verdict, Verdict::kIgnored);
}

}  // namespace
