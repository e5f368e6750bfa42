// The observability layer: metrics registry semantics, RunReport JSONL
// round trips, schema stability (the contract BENCH_regression.json and
// every future perf PR reports against), and the hipmcl_cli-style flow
// of --metrics-out / --trace-out on a real run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/hipmcl.hpp"
#include "gen/planted.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json_writer.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_diff.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "obs/run_report.hpp"
#include "sim/eventlog.hpp"
#include "sim/machine.hpp"
#include "sim/timeline.hpp"

namespace {

using namespace mclx;

// ---------------------------------------------------------------- metrics

TEST(Metrics, CountersAndValueMetrics) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("never.bumped"), 0u);
  EXPECT_EQ(reg.histogram("never.recorded"), nullptr);

  reg.add("a", 2);
  reg.add("a");
  reg.add("b", 7);
  EXPECT_EQ(reg.counter("a"), 3u);
  EXPECT_EQ(reg.counter("b"), 7u);

  reg.record("x", 1.5);
  reg.record("x", -0.5);
  reg.record("x", 4.0);
  const obs::Histogram* h = reg.histogram("x");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 5.0);
  EXPECT_DOUBLE_EQ(h->min(), -0.5);
  EXPECT_DOUBLE_EQ(h->max(), 4.0);
  EXPECT_DOUBLE_EQ(h->mean(), 5.0 / 3.0);

  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(Metrics, HistogramStddevIsWelfordExact) {
  obs::MetricsRegistry reg;
  // Classic textbook set: mean 5, population variance 4, stddev 2.
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    reg.record("x", v);
  }
  const obs::Histogram* h = reg.histogram("x");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->mean(), 5.0);
  EXPECT_NEAR(h->variance(), 4.0, 1e-12);
  EXPECT_NEAR(h->stddev(), 2.0, 1e-12);

  // Degenerate counts: no samples and one sample both report 0 spread.
  const obs::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
  reg.record("one", 42.0);
  EXPECT_DOUBLE_EQ(reg.histogram("one")->stddev(), 0.0);

  // Welford stays finite and accurate with a large offset, where the
  // naive sum-of-squares formulation loses all significant digits.
  for (const double v : {1e9 + 1, 1e9 + 2, 1e9 + 3}) reg.record("big", v);
  EXPECT_NEAR(reg.histogram("big")->variance(), 2.0 / 3.0, 1e-6);

  // Non-finite values are dropped from the spread like everywhere else.
  reg.record("x", std::numeric_limits<double>::quiet_NaN());
  EXPECT_NEAR(reg.histogram("x")->stddev(), 2.0, 1e-12);
}

TEST(Metrics, HistogramMergeCombinesSpread) {
  // Merging two halves gives the spread of recording everything in one
  // histogram (Chan et al.'s pairwise combination of Welford's m2).
  const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  obs::Histogram all, lo, hi, into_empty;
  for (int i = 0; i < 8; ++i) {
    all.record(values[i]);
    (i < 3 ? lo : hi).record(values[i]);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), all.count());
  EXPECT_DOUBLE_EQ(lo.sum(), all.sum());
  EXPECT_NEAR(lo.variance(), all.variance(), 1e-12);
  EXPECT_NEAR(lo.stddev(), 2.0, 1e-12);

  // An empty side changes nothing, in either direction.
  into_empty.merge(all);
  EXPECT_DOUBLE_EQ(into_empty.stddev(), all.stddev());
  all.merge(obs::Histogram{});
  EXPECT_DOUBLE_EQ(all.stddev(), into_empty.stddev());
}

TEST(Metrics, HistogramBucketsAndStats) {
  obs::Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  h.record(3.0);   // (2,4]
  h.record(4.0);   // (2,4] — boundary stays in its bucket
  h.record(5.0);   // (4,8]
  h.record(0.0);   // underflow
  h.record(-2.0);  // underflow
  h.record(std::numeric_limits<double>::infinity());  // dropped
  h.record(std::numeric_limits<double>::quiet_NaN()); // dropped

  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.nonpositive(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  ASSERT_EQ(h.buckets().size(), 2u);
  EXPECT_EQ(h.buckets().at(2), 2u);  // (2,4]
  EXPECT_EQ(h.buckets().at(3), 1u);  // (4,8]

  h.clear();
  EXPECT_TRUE(h.empty());
}

TEST(Metrics, HistogramBucketExponentInvariant) {
  // Every bucket is (2^(e-1), 2^e]: exact powers of two sit at the top
  // of their bucket, one ulp above starts the next.
  for (const double v : {1e-6, 0.5, 1.0, 2.0, 3.0, 1024.0, 1e9}) {
    const int e = obs::Histogram::bucket_exponent(v);
    EXPECT_GT(v, obs::Histogram::bucket_lo(e)) << v;
    EXPECT_LE(v, obs::Histogram::bucket_hi(e)) << v;
  }
  EXPECT_EQ(obs::Histogram::bucket_exponent(1.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_exponent(2.0), 1);
  EXPECT_EQ(obs::Histogram::bucket_exponent(2.0000001), 2);
}

TEST(Metrics, HistogramQuantilesBoundedByBuckets) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));

  // Nearest-rank with log-bucket interpolation: the quantile must land
  // inside the bucket holding that rank, and within the observed range.
  const double p50 = h.p50();
  EXPECT_GT(p50, obs::Histogram::bucket_lo(6));  // rank 50 is in (32,64]
  EXPECT_LE(p50, obs::Histogram::bucket_hi(6));
  const double p99 = h.p99();
  EXPECT_GT(p99, 64.0);  // rank 99 is in (64,128], clamped to max=100
  EXPECT_LE(p99, 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.quantile(1e-9));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);  // max clamp

  // Monotone in q.
  double prev = 0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }

  // All-nonpositive series: every quantile reports min(min, 0).
  obs::Histogram neg;
  neg.record(-5.0);
  neg.record(-1.0);
  EXPECT_DOUBLE_EQ(neg.p50(), -5.0);
}

TEST(Metrics, HistogramEdgeCases) {
  // Empty: every statistic reports 0, no crash.
  obs::Histogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.p50(), 0.0);
  EXPECT_DOUBLE_EQ(empty.p99(), 0.0);

  // Single sample: every quantile is that sample (clamped to min=max).
  obs::Histogram one;
  one.record(42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.p50(), 42.0);
  EXPECT_DOUBLE_EQ(one.p95(), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 42.0);

  // A lone zero lands in the underflow bucket and reports as 0.
  obs::Histogram zero;
  zero.record(0.0);
  EXPECT_EQ(zero.count(), 1u);
  EXPECT_EQ(zero.nonpositive(), 1u);
  EXPECT_TRUE(zero.buckets().empty());
  EXPECT_DOUBLE_EQ(zero.p50(), 0.0);
  EXPECT_DOUBLE_EQ(zero.p99(), 0.0);

  // Values past any reasonable bucket: DBL_MAX sits in the top log2
  // bucket (exponent 1024) and quantiles stay finite, clamped to the
  // observed max rather than the bucket's 2^e upper edge (infinite).
  EXPECT_EQ(obs::Histogram::bucket_exponent(
                std::numeric_limits<double>::max()),
            1024);
  obs::Histogram sat;
  sat.record(1.0);
  sat.record(std::numeric_limits<double>::max());
  EXPECT_EQ(sat.count(), 2u);
  EXPECT_TRUE(std::isfinite(sat.p99()));
  EXPECT_DOUBLE_EQ(sat.p99(), std::numeric_limits<double>::max());
  EXPECT_DOUBLE_EQ(sat.p50(), 1.0);
}

TEST(Metrics, HistogramQuantilePins) {
  // Deterministic pins for the percentile fields the perf gate reads.
  // Nine 1.0s and one 1024.0: ranks 1-9 hit the e=0 bucket (clamped to
  // min 1.0), rank 10 hits the e=10 bucket (clamped to max 1024.0).
  obs::Histogram h;
  for (int i = 0; i < 9; ++i) h.record(1.0);
  h.record(1024.0);
  EXPECT_DOUBLE_EQ(h.p50(), 1.0);
  EXPECT_DOUBLE_EQ(h.p95(), 1024.0);  // rank ceil(9.5)=10
  EXPECT_DOUBLE_EQ(h.p99(), 1024.0);

  // All-identical series: quantiles pin to the value exactly.
  obs::Histogram flat;
  for (int i = 0; i < 10; ++i) flat.record(8.0);
  EXPECT_DOUBLE_EQ(flat.p50(), 8.0);
  EXPECT_DOUBLE_EQ(flat.p95(), 8.0);
  EXPECT_DOUBLE_EQ(flat.p99(), 8.0);
}

TEST(Metrics, HistogramMergeFoldsCounts) {
  obs::Histogram a, b;
  a.record(2.0);
  a.record(3.0);
  b.record(100.0);
  b.record(0.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.nonpositive(), 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 105.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);

  // Merging an empty histogram changes nothing (min/max stay intact).
  a.merge(obs::Histogram{});
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);

  // Registry-side entry point used by MemLedger::publish.
  obs::MetricsRegistry reg;
  reg.merge_histogram("memory.charge_bytes", a);
  reg.merge_histogram("memory.charge_bytes", b);
  const obs::Histogram* h = reg.histogram("memory.charge_bytes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 6u);
}

TEST(Metrics, RegistryRecordFeedsHistograms) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.histogram("never.recorded"), nullptr);
  reg.record("width", 8.0);
  reg.record("width", 16.0);
  const obs::Histogram* h = reg.histogram("width");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_FALSE(reg.empty());
  reg.clear();
  EXPECT_TRUE(reg.empty());

  // Global helper: no-op without a sink, recorded with one.
  obs::record("dropped", 1.0);
  {
    obs::ScopedMetrics scope(reg);
    obs::record("seen", 3.0);
  }
  EXPECT_EQ(reg.histogram("dropped"), nullptr);
  ASSERT_NE(reg.histogram("seen"), nullptr);
}

TEST(Metrics, NamesAndForEachIterateSortedAndComplete) {
  obs::MetricsRegistry reg;
  reg.add("z.counter");
  reg.add("a.counter", 2);
  reg.record("m.hist", 4.0);
  // The same name as both a counter and a histogram dedups in names()
  // but visits once per kind in for_each.
  reg.add("m.hist");

  const std::vector<std::string> names = reg.names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"a.counter", "m.hist", "z.counter"}));

  std::vector<std::string> counters, hists;
  reg.for_each(
      [&](std::string_view n, std::uint64_t v) {
        counters.emplace_back(n);
        if (n == "a.counter") {
          EXPECT_EQ(v, 2u);
        }
      },
      [&](std::string_view n, const obs::Histogram& h) {
        hists.emplace_back(n);
        EXPECT_EQ(h.count(), 1u);
      });
  EXPECT_EQ(counters, (std::vector<std::string>{"a.counter", "m.hist",
                                                "z.counter"}));
  EXPECT_EQ(hists, (std::vector<std::string>{"m.hist"}));

  // Null callbacks skip that kind rather than crashing — exporters that
  // only care about one kind pass just that one.
  std::size_t count_only = 0;
  reg.for_each([&](std::string_view, std::uint64_t) { ++count_only; },
               nullptr);
  EXPECT_EQ(count_only, 3u);
}

TEST(Metrics, GlobalSinkIsScopedAndNestable) {
  EXPECT_EQ(obs::context().metrics, nullptr);
  obs::count("dropped.on.floor");  // no registry installed: no-op

  obs::MetricsRegistry outer, inner;
  {
    obs::ScopedMetrics outer_scope(outer);
    obs::count("seen");
    {
      obs::ScopedMetrics inner_scope(inner);
      obs::count("seen");
      obs::record("val", 2.0);
    }
    obs::count("seen");  // back to outer
  }
  EXPECT_EQ(obs::context().metrics, nullptr);
  EXPECT_EQ(outer.counter("seen"), 2u);
  EXPECT_EQ(inner.counter("seen"), 1u);
  ASSERT_NE(inner.histogram("val"), nullptr);
  EXPECT_EQ(outer.histogram("val"), nullptr);
}

TEST(Context, ScopesSwapOneSinkOrInstallAWholeContext) {
  obs::MetricsRegistry reg_a, reg_b;
  obs::MemLedger ledger_a, ledger_b;
  sim::EventLog log_a, log_b;
  obs::FlightRecorder rec_a, rec_b;
  const obs::Context all_a{&reg_a, &ledger_a, &log_a, &rec_a};
  const auto is = [](const obs::Context& want) {
    const obs::Context& c = obs::context();
    return c.metrics == want.metrics && c.ledger == want.ledger &&
           c.events == want.events && c.recorder == want.recorder;
  };
  EXPECT_TRUE(is({}));
  {
    obs::ScopedContext whole(all_a);
    EXPECT_TRUE(is(all_a));
    {
      // A one-sink scope swaps its sink and keeps the other three.
      obs::ScopedContext m(reg_b);
      EXPECT_TRUE(is({&reg_b, &ledger_a, &log_a, &rec_a}));
      obs::ScopedContext l(ledger_b);
      EXPECT_TRUE(is({&reg_b, &ledger_b, &log_a, &rec_a}));
      obs::ScopedContext e(log_b);
      obs::ScopedContext r(rec_b);
      EXPECT_TRUE(is({&reg_b, &ledger_b, &log_b, &rec_b}));
    }
    EXPECT_TRUE(is(all_a));  // nested scopes restore in order
    {
      // A whole context replaces every sink, nulls included.
      obs::ScopedContext partial({.metrics = &reg_b});
      EXPECT_TRUE(is({.metrics = &reg_b}));
    }
    EXPECT_TRUE(is(all_a));

    // The lane view keeps exactly the thread-safe sinks.
    const obs::Context lane = obs::context().lane();
    EXPECT_EQ(lane.metrics, nullptr);
    EXPECT_EQ(lane.ledger, &ledger_a);
    EXPECT_EQ(lane.events, nullptr);
    EXPECT_EQ(lane.recorder, &rec_a);
  }
  EXPECT_TRUE(is({}));
}

// ------------------------------------------------------------ json basics

TEST(RunReportJson, NumberAndStringEncoding) {
  // Doubles always carry a type marker so the reader can reconstruct the
  // field type from the token alone.
  EXPECT_EQ(obs::json_number(5.0), "5.0");
  EXPECT_EQ(obs::json_number(-1.0), "-1.0");
  EXPECT_NE(obs::json_number(0.1).find('.'), std::string::npos);
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "0.0");

  EXPECT_EQ(obs::json_escaped("plain"), "plain");
  EXPECT_EQ(obs::json_escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escaped(std::string(1, '\x01')), "\\u0001");
}

TEST(RunReportJson, RoundTripsEveryValueType) {
  obs::Record r;
  r.type = "probe";
  r.add("flag", true);
  r.add("off", false);
  r.add("count", std::uint64_t{18446744073709551615ull});
  r.add("ratio", 0.30000000000000004);
  r.add("neg", -1.0);
  r.add("tiny", 4.9e-324);
  r.add("label", std::string("quote \" slash \\ nl \n tab \t"));

  obs::RunReport report;
  report.add(r);
  std::stringstream ss;
  report.write_jsonl(ss);

  const obs::RunReport back = obs::RunReport::read_jsonl(ss);
  ASSERT_EQ(back.records().size(), 1u);
  const obs::Record& b = back.records()[0];
  EXPECT_EQ(b.type, "probe");
  ASSERT_EQ(b.fields.size(), r.fields.size());
  for (std::size_t i = 0; i < r.fields.size(); ++i) {
    EXPECT_EQ(b.fields[i].first, r.fields[i].first);
    EXPECT_EQ(b.fields[i].second, r.fields[i].second)
        << "field " << r.fields[i].first;
  }
}

TEST(RunReportJson, RejectsMalformedLines) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return obs::RunReport::read_jsonl(ss);
  };
  EXPECT_THROW(parse("{\"no_type\":1}"), std::runtime_error);
  EXPECT_THROW(parse("{\"type\":\"x\",\"bad\":}"), std::runtime_error);
  EXPECT_THROW(parse("{\"type\":\"x\"} trailing"), std::runtime_error);
  EXPECT_THROW(parse("not json at all"), std::runtime_error);
}

TEST(RunReportJson, EveryByteValueRoundTripsThroughAStringField) {
  // Workload names come from file paths and job ids from manifests, so a
  // string field must survive any byte: control characters as escapes,
  // the rest verbatim.
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  obs::Record r;
  r.type = "probe";
  r.add("bytes", all);
  std::stringstream ss;
  obs::write_record_jsonl(ss, r);
  const std::string line = ss.str();
  EXPECT_EQ(line.find('\r'), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);

  const obs::RunReport back = obs::RunReport::read_jsonl(ss);
  ASSERT_EQ(back.records().size(), 1u);
  const obs::Value* v = back.records()[0].find("bytes");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(std::get<std::string>(*v), all);
}

TEST(RunReportJson, ReadsEscapesOtherWritersEmit) {
  // Escapes json_escaped never writes but other JSON writers do.
  std::stringstream ss(
      R"({"type":"x","s":"a\/b\bc\fd\re\u00e9\u00C9\u0041"})");
  const obs::RunReport back = obs::RunReport::read_jsonl(ss);
  ASSERT_EQ(back.records().size(), 1u);
  EXPECT_EQ(std::get<std::string>(*back.records()[0].find("s")),
            "a/b\bc\fd\re\xe9\xc9" "A");
}

TEST(RunReportJson, RejectsBadEscapesLiteralsAndTypeTags) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return obs::RunReport::read_jsonl(ss);
  };
  EXPECT_THROW(parse(R"({"type":"x","s":"\q"})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"type":"x","s":"\u00zz"})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"type":"x","s":"\u0100"})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"type":"x","s":"\u00)"), std::runtime_error);
  EXPECT_THROW(parse(R"({"type":"x","b":tru})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"type":"x","b":fals})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"type":7})"), std::runtime_error);
}

TEST(RunReportSchema, MismatchReasonNamesTheOffendingField) {
  const auto& schema = obs::counter_schema();
  std::string why;

  obs::Record ok;
  ok.type = "counter";
  ok.add("name", std::string("spgemm.calls"));
  ok.add("value", std::uint64_t{3});
  EXPECT_TRUE(obs::matches_schema(ok, schema, &why));

  obs::Record short_rec;
  short_rec.type = "counter";
  short_rec.add("name", std::string("spgemm.calls"));
  EXPECT_FALSE(obs::matches_schema(short_rec, schema, &why));
  EXPECT_EQ(why, "counter: expected 2 fields, got 1");

  obs::Record renamed = ok;
  renamed.fields[1].first = "count";
  EXPECT_FALSE(obs::matches_schema(renamed, schema, &why));
  EXPECT_EQ(why, "counter: field 1 is 'count', expected 'value'");

  obs::Record retyped = ok;
  retyped.fields[1].second = 3.0;
  EXPECT_FALSE(obs::matches_schema(retyped, schema, &why));
  EXPECT_EQ(why, "counter: field 'value' has type double, expected uint");

  retyped.fields[0].second = true;
  EXPECT_FALSE(obs::matches_schema(retyped, schema));  // why is optional
  EXPECT_EQ(obs::field_type_name(obs::FieldType::kBool), "bool");
  EXPECT_EQ(obs::field_type_name(obs::FieldType::kString), "string");
}

// ------------------------------------------------------------ json writer

TEST(JsonWriter, PrettyDocumentLayout) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("name", "run \"a\"");
  w.field("n", std::uint64_t{3});
  w.begin_object("inner");
  w.field("ok", true);
  w.end_object();
  w.begin_array("empty");
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"run \\\"a\\\"\",\n"
            "  \"n\": 3,\n"
            "  \"inner\": {\n"
            "    \"ok\": true\n"
            "  },\n"
            "  \"empty\": []\n"
            "}\n");
}

TEST(JsonWriter, CompactnessIsInheritedByNestedContainers) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.begin_array("iters", obs::JsonWriter::Style::kCompact);
  w.begin_object();  // pretty by default, but inside a compact array
  w.field("i", 0);
  w.field("chaos", 0.5);
  w.end_object();
  w.begin_object();
  w.field("i", 1);
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"iters\": [{\"i\": 0, \"chaos\": 0.5}, {\"i\": 1}]\n"
            "}\n");
}

TEST(JsonWriter, ArrayElementsOfEveryTypeReadBack) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_array(obs::JsonWriter::Style::kCompact);
  w.value(true);
  w.value(false);
  w.value(std::uint64_t{18446744073709551615ull});
  w.value(std::int64_t{-5});
  w.value(7);
  w.value(2.5);
  w.value(1.0);
  w.value(std::string_view("q\"s"));
  w.end_array();
  EXPECT_EQ(os.str(),
            "[true, false, 18446744073709551615, -5, 7, 2.5, 1.0, "
            "\"q\\\"s\"]\n");

  const obs::FlatDoc doc = obs::flatten_json(os.str());
  ASSERT_EQ(doc.size(), 8u);
  EXPECT_EQ(doc.at("0").kind, obs::FlatValue::Kind::kBool);
  EXPECT_EQ(doc.at("1").text, "false");
  EXPECT_EQ(doc.at("2").text, "18446744073709551615");
  EXPECT_DOUBLE_EQ(doc.at("3").number, -5.0);
  EXPECT_DOUBLE_EQ(doc.at("6").number, 1.0);
  EXPECT_EQ(doc.at("7").kind, obs::FlatValue::Kind::kString);
  EXPECT_EQ(doc.at("7").text, "q\"s");
}

TEST(JsonWriter, IndentWidthIsConfigurable) {
  std::ostringstream os;
  obs::JsonWriter w(os, 4);
  w.begin_object();
  w.begin_array("xs");
  w.value(1);
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), "{\n    \"xs\": [\n        1\n    ]\n}\n");
}

TEST(JsonWriter, MisplacedContainersThrow) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    EXPECT_THROW(w.begin_object("key_at_root"), std::logic_error);
  }
  {
    obs::JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.begin_array("key_in_array"), std::logic_error);
  }
  {
    obs::JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.begin_object(), std::logic_error);
    EXPECT_THROW(w.begin_array(), std::logic_error);
  }
  {
    obs::JsonWriter w(os);
    EXPECT_THROW(w.end_object(), std::logic_error);
    EXPECT_THROW(w.end_array(), std::logic_error);
  }
}

TEST(JsonWriter, StringLiteralElementIsAString) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_array(obs::JsonWriter::Style::kCompact);
  w.value("text");
  w.end_array();
  EXPECT_EQ(os.str(), "[\"text\"]\n");
}

TEST(JsonWriter, MismatchedCloseThrowsAndWritesNoBracket) {
  const auto message = [](auto&& misnest) {
    try {
      misnest();
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  std::ostringstream arr;
  obs::JsonWriter wa(arr);
  wa.begin_array();
  wa.value(1);
  EXPECT_EQ(message([&] { wa.end_object(); }),
            "json_writer: end_object closes an array");
  EXPECT_EQ(arr.str().find('}'), std::string::npos);

  std::ostringstream obj;
  obs::JsonWriter wo(obj);
  wo.begin_object();
  wo.field("a", 1);
  EXPECT_EQ(message([&] { wo.end_array(); }),
            "json_writer: end_array closes an object");
  EXPECT_EQ(obj.str().find(']'), std::string::npos);
}

// ------------------------------------------------- full-run report schema

core::MclResult small_run(sim::SimState& sim, obs::MetricsRegistry* registry,
                          sim::EventLog* trace) {
  gen::PlantedParams gp;
  gp.n = 150;
  gp.seed = 91;
  const auto g = gen::planted_partition(gp);
  core::MclParams params;
  params.prune.select_k = 25;
  const obs::ScopedContext sinks({.metrics = registry, .events = trace});
  return core::run_hipmcl(g.edges, params, core::HipMclConfig::optimized(),
                          sim);
}

TEST(RunReportSchema, OneSchemaValidRecordPerIteration) {
  obs::MetricsRegistry registry;
  sim::SimState sim(sim::summit_like(4));
  const core::MclResult result = small_run(sim, &registry, nullptr);
  ASSERT_GT(result.iterations, 1);

  obs::RunInfo info;
  info.workload = "planted:150";
  info.config = "optimized";
  info.estimator = "probabilistic";
  info.nodes = 4;
  info.nranks = static_cast<std::uint64_t>(sim.nranks());
  const obs::RunReport report =
      obs::make_run_report(result, info, &registry);

  std::string why;
  const auto metas = report.records_of("run_meta");
  ASSERT_EQ(metas.size(), 1u);
  EXPECT_TRUE(obs::matches_schema(*metas[0], obs::run_meta_schema(), &why))
      << why;
  EXPECT_EQ(std::get<std::uint64_t>(*metas[0]->find("schema_version")),
            obs::kReportSchemaVersion);

  const auto iters = report.records_of("iteration");
  ASSERT_EQ(iters.size(), static_cast<std::size_t>(result.iterations));
  for (const auto* rec : iters) {
    EXPECT_TRUE(obs::matches_schema(*rec, obs::iteration_schema(), &why))
        << why;
  }
  // Iteration records carry the real trajectory, in order.
  for (std::size_t i = 0; i < iters.size(); ++i) {
    EXPECT_EQ(std::get<std::uint64_t>(*iters[i]->find("iter")), i + 1);
    EXPECT_EQ(std::get<double>(*iters[i]->find("chaos")),
              result.iters[i].chaos);
    // Read against the pass's measured_unpruned_nnz, on every run.
    EXPECT_GE(std::get<double>(*iters[i]->find("estimator_rel_error")), 0.0);
  }

  const auto summaries = report.records_of("run_summary");
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_TRUE(
      obs::matches_schema(*summaries[0], obs::run_summary_schema(), &why))
      << why;
  EXPECT_EQ(std::get<bool>(*summaries[0]->find("converged")),
            result.converged);

  // Registry dump made it into the report.
  EXPECT_FALSE(report.records_of("counter").empty());
  EXPECT_FALSE(report.records_of("histogram").empty());
  EXPECT_TRUE(report.records_of("observation").empty());  // folded in v6
}

TEST(RunReportSchema, VersionFourMetricRecordSchemas) {
  // Schema v2: observations grew a stddev field and histogram records
  // joined. v3: run_meta grew the per-rank `threads` field. v4: run_meta
  // grew `vm_hwm_bytes` and iterations grew `measured_unpruned_nnz`
  // (the memory-ledger PR). v5: run_meta grew `job_id` so concurrent
  // service jobs stay attributable (the svc PR). v6: observation
  // records folded into histogram, which grew `stddev` (one record per
  // value metric). v7: iterations lost `exact_unpruned_nnz`, a copy of
  // `measured_unpruned_nnz`. Pin the version so a future bump is a
  // conscious act.
  EXPECT_EQ(obs::kReportSchemaVersion, 7u);

  obs::MetricsRegistry reg;
  reg.add("calls", 3);
  reg.record("payload", 1024.0);
  reg.record("payload", 4096.0);
  reg.record("width", 4.0);
  reg.record("width", 8.0);
  const obs::RunReport report = obs::make_metrics_report(reg);

  std::string why;
  const auto counters = report.records_of("counter");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_TRUE(obs::matches_schema(*counters[0], obs::counter_schema(), &why))
      << why;
  EXPECT_TRUE(report.records_of("observation").empty());

  const auto histograms = report.records_of("histogram");
  ASSERT_EQ(histograms.size(), 2u);
  for (const auto* rec : histograms) {
    EXPECT_TRUE(obs::matches_schema(*rec, obs::histogram_schema(), &why))
        << why;
  }
  EXPECT_EQ(std::get<std::string>(*histograms[0]->find("name")), "payload");
  EXPECT_EQ(std::get<std::uint64_t>(*histograms[0]->find("count")), 2u);
  const double p99 = std::get<double>(*histograms[0]->find("p99"));
  EXPECT_GT(p99, 1024.0);
  EXPECT_LE(p99, 4096.0);
  EXPECT_EQ(std::get<std::string>(*histograms[1]->find("name")), "width");
  EXPECT_DOUBLE_EQ(std::get<double>(*histograms[1]->find("stddev")), 2.0);
}

TEST(RunReportSchema, RealRunEmitsDistributionHistograms) {
  // The pipeline instrumentation records first-class distributions:
  // merge widths, per-call SUMMA stage times, broadcast payloads.
  obs::MetricsRegistry registry;
  sim::SimState sim(sim::summit_like(4));
  small_run(sim, &registry, nullptr);

  for (const std::string name :
       {"merge.ways", "merge.peak_elements", "summa.spgemm_s",
        "summa.bcast_s", "summa.merge_s", "summa.overall_s",
        "summa.bcast_bytes", "spgemm.select.flops"}) {
    const obs::Histogram* h = registry.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count(), 0u) << name;
  }

  const obs::RunReport report = obs::make_metrics_report(registry);
  std::string why;
  const auto histograms = report.records_of("histogram");
  EXPECT_GE(histograms.size(), 8u);
  for (const auto* rec : histograms) {
    EXPECT_TRUE(obs::matches_schema(*rec, obs::histogram_schema(), &why))
        << why;
  }
}

TEST(RunReportSchema, SurvivesFileRoundTrip) {
  obs::MetricsRegistry registry;
  sim::SimState sim(sim::summit_like(4));
  const core::MclResult result = small_run(sim, &registry, nullptr);

  obs::RunInfo info;
  info.workload = "planted:150";
  const obs::RunReport report =
      obs::make_run_report(result, info, &registry);

  const std::string path = testing::TempDir() + "/run_report.jsonl";
  report.write_jsonl_file(path);
  const obs::RunReport back = obs::RunReport::read_jsonl_file(path);

  ASSERT_EQ(back.records().size(), report.records().size());
  for (std::size_t i = 0; i < report.records().size(); ++i) {
    const obs::Record& a = report.records()[i];
    const obs::Record& b = back.records()[i];
    EXPECT_EQ(a.type, b.type);
    ASSERT_EQ(a.fields.size(), b.fields.size());
    for (std::size_t f = 0; f < a.fields.size(); ++f) {
      EXPECT_EQ(a.fields[f].first, b.fields[f].first);
      EXPECT_EQ(a.fields[f].second, b.fields[f].second)
          << a.type << "." << a.fields[f].first;
    }
  }
}

// ------------------------------------------- pipeline-wide instrumentation

TEST(PipelineMetrics, EveryLayerReports) {
  obs::MetricsRegistry registry;
  sim::SimState sim(sim::summit_like(4));
  const core::MclResult result = small_run(sim, &registry, nullptr);

  // core loop
  EXPECT_EQ(registry.counter("mcl.iterations"),
            static_cast<std::uint64_t>(result.iterations));
  ASSERT_NE(registry.histogram("mcl.chaos"), nullptr);
  EXPECT_EQ(registry.histogram("mcl.chaos")->count(),
            static_cast<std::uint64_t>(result.iterations));
  // planner: one plan per iteration
  EXPECT_EQ(registry.counter("planner.calls"),
            static_cast<std::uint64_t>(result.iterations));
  // summa: one expansion per iteration
  EXPECT_EQ(registry.counter("summa.calls"),
            static_cast<std::uint64_t>(result.iterations));
  // spgemm registry: dim^2 local multiplies per stage, so plenty of them;
  // every selection also records its decision inputs
  std::uint64_t kernel_total = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name.rfind("spgemm.kernel.", 0) == 0) kernel_total += value;
  }
  EXPECT_GT(kernel_total, 0u);
  ASSERT_NE(registry.histogram("spgemm.select.flops"), nullptr);
  EXPECT_EQ(registry.histogram("spgemm.select.flops")->count(), kernel_total);
  // merge layer
  EXPECT_GT(registry.counter("merge.events"), 0u);
  ASSERT_NE(registry.histogram("merge.peak_elements"), nullptr);
  // estimator error, against the pass's count
  ASSERT_NE(registry.histogram("estimate.rel_error"), nullptr);
}

TEST(PipelineMetrics, SilentWithoutRegistry) {
  // No registry installed: the run must behave identically (and not
  // crash in any instrumented layer).
  sim::SimState sim_a(sim::summit_like(4));
  const core::MclResult without = small_run(sim_a, nullptr, nullptr);
  obs::MetricsRegistry registry;
  sim::SimState sim_b(sim::summit_like(4));
  const core::MclResult with = small_run(sim_b, &registry, nullptr);
  EXPECT_EQ(without.labels, with.labels);
  EXPECT_EQ(without.iterations, with.iterations);
  EXPECT_DOUBLE_EQ(without.elapsed, with.elapsed);
}

// ------------------------------------------------------- cli-shaped flow

TEST(CliObsFlow, MetricsOutAndTraceOutFiles) {
  // What hipmcl_cli does for --metrics-out/--trace-out, end to end.
  obs::MetricsRegistry registry;
  sim::EventLog trace;
  sim::SimState sim(sim::summit_like(4));
  const core::MclResult result = small_run(sim, &registry, &trace);

  const std::string metrics_path = testing::TempDir() + "/cli_run.jsonl";
  obs::RunInfo info;
  info.workload = "planted:150";
  obs::make_run_report(result, info, &registry)
      .write_jsonl_file(metrics_path);

  // One iteration record per MCL iteration, all schema-valid.
  const obs::RunReport back = obs::RunReport::read_jsonl_file(metrics_path);
  const auto iters = back.records_of("iteration");
  EXPECT_EQ(iters.size(), static_cast<std::size_t>(result.iterations));
  std::string why;
  for (const auto* rec : iters) {
    EXPECT_TRUE(obs::matches_schema(*rec, obs::iteration_schema(), &why))
        << why;
  }

  // The trace holds real intervals and exports loadable Chrome JSON.
  EXPECT_GT(trace.size(), 0u);
  const std::string trace_path = testing::TempDir() + "/cli_run.trace.json";
  obs::write_chrome_trace_file(trace_path, trace, nullptr);
  std::ifstream in(trace_path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
