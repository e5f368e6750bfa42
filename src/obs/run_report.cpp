#include "obs/run_report.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/mem.hpp"

namespace mclx::obs {

namespace {

void write_value(std::ostream& os, const Value& v) {
  switch (type_of(v)) {
    case FieldType::kBool:
      os << (std::get<bool>(v) ? "true" : "false");
      break;
    case FieldType::kUInt:
      os << std::get<std::uint64_t>(v);
      break;
    case FieldType::kDouble:
      os << json_number(std::get<double>(v));
      break;
    case FieldType::kString:
      os << '"' << json_escaped(std::get<std::string>(v)) << '"';
      break;
  }
}

/// Minimal parser for the flat records write_jsonl emits: one object per
/// line, string keys, scalar values.
class LineParser {
 public:
  explicit LineParser(std::string_view line, std::size_t lineno)
      : s_(line), lineno_(lineno) {}

  Record parse() {
    Record r;
    skip_ws();
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++i_;
        break;
      }
      if (!first) {
        expect(',');
        skip_ws();
      }
      first = false;
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      Value v = parse_value();
      if (key == "type") {
        if (type_of(v) != FieldType::kString)
          fail("\"type\" must be a string");
        r.type = std::get<std::string>(std::move(v));
      } else {
        r.fields.emplace_back(key, std::move(v));
      }
    }
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters after record");
    if (r.type.empty()) fail("record without a \"type\" field");
    return r;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("run_report: line " + std::to_string(lineno_) +
                             ", column " + std::to_string(i_ + 1) + ": " +
                             msg);
  }
  char peek() const {
    if (i_ >= s_.size()) fail("unexpected end of line");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t')) ++i_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    if (const char* err = json_unescape(s_, i_, out, "unexpected end of line"))
      fail(err);
    return out;
  }

  Value parse_value() {
    const char c = peek();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') {
      const std::string_view word = s_.substr(i_, c == 't' ? 4 : 5);
      if (word == "true") {
        i_ += 4;
        return true;
      }
      if (word == "false") {
        i_ += 5;
        return false;
      }
      fail("bad literal");
    }
    // Number: doubles always carry '.', 'e' or 'E' (json_number
    // guarantees it), bare digit runs are unsigned integers.
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '-' ||
            s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
    }
    const std::string_view tok = s_.substr(start, i_ - start);
    if (tok.empty()) fail("expected a value");
    const bool is_double =
        tok.find_first_of(".eE-") != std::string_view::npos;
    const char* tok_begin = tok.data();
    const char* tok_end = tok.data() + tok.size();
    if (!is_double) {
      std::uint64_t u = 0;
      const auto [p, ec] = std::from_chars(tok_begin, tok_end, u);
      if (ec != std::errc() || p != tok_end) fail("bad integer");
      return u;
    }
    double d = 0;
    const auto [p, ec] = std::from_chars(tok_begin, tok_end, d);
    if (ec != std::errc() || p != tok_end) fail("bad number");
    return d;
  }

  std::string_view s_;
  std::size_t lineno_;
  std::size_t i_ = 0;
};

}  // namespace

void append_metrics_records(RunReport& report, const MetricsRegistry& metrics) {
  for (const auto& [name, value] : metrics.counters()) {
    Record r;
    r.type = "counter";
    r.add("name", name);
    r.add("value", value);
    report.add(std::move(r));
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    Record r;
    r.type = "histogram";
    r.add("name", name);
    r.add("count", hist.count());
    r.add("sum", hist.sum());
    r.add("min", hist.min());
    r.add("max", hist.max());
    r.add("stddev", hist.stddev());
    r.add("p50", hist.p50());
    r.add("p95", hist.p95());
    r.add("p99", hist.p99());
    report.add(std::move(r));
  }
}

const std::array<std::string_view, sim::kNumStages>& stage_field_names() {
  static constexpr std::array<std::string_view, sim::kNumStages> kStageFields =
      {
          "t_local_spgemm_s", "t_mem_estimation_s", "t_summa_bcast_s",
          "t_merge_s",        "t_prune_s",          "t_other_s",
      };
  return kStageFields;
}

std::string_view field_type_name(FieldType t) {
  switch (t) {
    case FieldType::kBool: return "bool";
    case FieldType::kUInt: return "uint";
    case FieldType::kDouble: return "double";
    case FieldType::kString: return "string";
  }
  return "unknown";
}

const Value* Record::find(std::string_view name) const {
  for (const auto& [key, value] : fields) {
    if (key == name) return &value;
  }
  return nullptr;
}

const std::vector<FieldSpec>& run_meta_schema() {
  static const std::vector<FieldSpec> schema = {
      {"schema_version", FieldType::kUInt},
      {"workload", FieldType::kString},
      {"job_id", FieldType::kString},
      {"config", FieldType::kString},
      {"estimator", FieldType::kString},
      {"nodes", FieldType::kUInt},
      {"nranks", FieldType::kUInt},
      {"vertices", FieldType::kUInt},
      {"edges", FieldType::kUInt},
      {"threads", FieldType::kUInt},
      {"vm_hwm_bytes", FieldType::kUInt},
  };
  return schema;
}

const std::vector<FieldSpec>& iteration_schema() {
  static const std::vector<FieldSpec> schema = {
      {"iter", FieldType::kUInt},
      {"nnz_before", FieldType::kUInt},
      {"flops", FieldType::kUInt},
      {"est_unpruned_nnz", FieldType::kDouble},
      {"measured_unpruned_nnz", FieldType::kUInt},
      {"estimator_rel_error", FieldType::kDouble},
      {"used_exact_estimator", FieldType::kBool},
      {"cf", FieldType::kDouble},
      {"phases", FieldType::kUInt},
      {"nnz_after_prune", FieldType::kUInt},
      {"chaos", FieldType::kDouble},
      {"elapsed_s", FieldType::kDouble},
      {"t_local_spgemm_s", FieldType::kDouble},
      {"t_mem_estimation_s", FieldType::kDouble},
      {"t_summa_bcast_s", FieldType::kDouble},
      {"t_merge_s", FieldType::kDouble},
      {"t_prune_s", FieldType::kDouble},
      {"t_other_s", FieldType::kDouble},
      {"summa_flops", FieldType::kUInt},
      {"summa_spgemm_s", FieldType::kDouble},
      {"summa_bcast_s", FieldType::kDouble},
      {"summa_merge_s", FieldType::kDouble},
      {"summa_other_s", FieldType::kDouble},
      {"summa_overall_s", FieldType::kDouble},
      {"summa_sink_s", FieldType::kDouble},
      {"merge_peak_elements_sum", FieldType::kUInt},
      {"merge_peak_elements_max", FieldType::kUInt},
      {"cpu_idle_s", FieldType::kDouble},
      {"gpu_idle_s", FieldType::kDouble},
      {"gpu_fallbacks", FieldType::kUInt},
  };
  return schema;
}

const std::vector<FieldSpec>& run_summary_schema() {
  static const std::vector<FieldSpec> schema = {
      {"iterations", FieldType::kUInt},
      {"converged", FieldType::kBool},
      {"num_clusters", FieldType::kUInt},
      {"elapsed_s", FieldType::kDouble},
      {"t_local_spgemm_s", FieldType::kDouble},
      {"t_mem_estimation_s", FieldType::kDouble},
      {"t_summa_bcast_s", FieldType::kDouble},
      {"t_merge_s", FieldType::kDouble},
      {"t_prune_s", FieldType::kDouble},
      {"t_other_s", FieldType::kDouble},
      {"cpu_idle_s", FieldType::kDouble},
      {"gpu_idle_s", FieldType::kDouble},
  };
  return schema;
}

const std::vector<FieldSpec>& counter_schema() {
  static const std::vector<FieldSpec> schema = {
      {"name", FieldType::kString},
      {"value", FieldType::kUInt},
  };
  return schema;
}

const std::vector<FieldSpec>& histogram_schema() {
  static const std::vector<FieldSpec> schema = {
      {"name", FieldType::kString},
      {"count", FieldType::kUInt},
      {"sum", FieldType::kDouble},
      {"min", FieldType::kDouble},
      {"max", FieldType::kDouble},
      {"stddev", FieldType::kDouble},
      {"p50", FieldType::kDouble},
      {"p95", FieldType::kDouble},
      {"p99", FieldType::kDouble},
  };
  return schema;
}

bool matches_schema(const Record& r, const std::vector<FieldSpec>& schema,
                    std::string* why) {
  auto mismatch = [&](const std::string& reason) {
    if (why) *why = r.type + ": " + reason;
    return false;
  };
  if (r.fields.size() != schema.size()) {
    return mismatch("expected " + std::to_string(schema.size()) +
                    " fields, got " + std::to_string(r.fields.size()));
  }
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (r.fields[i].first != schema[i].name) {
      return mismatch("field " + std::to_string(i) + " is '" +
                      r.fields[i].first + "', expected '" +
                      std::string(schema[i].name) + "'");
    }
    if (type_of(r.fields[i].second) != schema[i].type) {
      return mismatch("field '" + r.fields[i].first + "' has type " +
                      std::string(field_type_name(type_of(r.fields[i].second))) +
                      ", expected " +
                      std::string(field_type_name(schema[i].type)));
    }
  }
  return true;
}

std::vector<const Record*> RunReport::records_of(std::string_view type) const {
  std::vector<const Record*> out;
  for (const auto& r : records_) {
    if (r.type == type) out.push_back(&r);
  }
  return out;
}

void write_record_jsonl(std::ostream& os, const Record& r) {
  os << "{\"type\":\"" << json_escaped(r.type) << '"';
  for (const auto& [name, value] : r.fields) {
    os << ",\"" << json_escaped(name) << "\":";
    write_value(os, value);
  }
  os << "}\n";
}

void RunReport::write_jsonl(std::ostream& os) const {
  for (const auto& r : records_) write_record_jsonl(os, r);
}

void RunReport::write_jsonl_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("run_report: cannot write " + path);
  write_jsonl(out);
}

RunReport RunReport::read_jsonl(std::istream& is) {
  RunReport report;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    report.add(LineParser(line, lineno).parse());
  }
  return report;
}

RunReport RunReport::read_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("run_report: cannot read " + path);
  return read_jsonl(in);
}

Record make_run_meta_record(const RunInfo& info) {
  Record meta;
  meta.type = "run_meta";
  meta.add("schema_version", kReportSchemaVersion);
  meta.add("workload", info.workload);
  meta.add("job_id", info.job_id);
  meta.add("config", info.config);
  meta.add("estimator", info.estimator);
  meta.add("nodes", info.nodes);
  meta.add("nranks", info.nranks);
  meta.add("vertices", info.vertices);
  meta.add("edges", info.edges);
  meta.add("threads", info.threads);
  meta.add("vm_hwm_bytes", read_proc_mem().vm_hwm_bytes);
  return meta;
}

Record make_iteration_record(const core::IterationReport& it) {
  Record r;
  r.type = "iteration";
  r.add("iter", static_cast<std::uint64_t>(it.iter));
  r.add("nnz_before", it.nnz_before);
  r.add("flops", it.flops);
  r.add("est_unpruned_nnz", it.est_unpruned_nnz);
  r.add("measured_unpruned_nnz", it.measured_unpruned_nnz);
  // Relative estimator error against the pass's count of nnz(A·A); -1
  // when the product is empty.
  const auto actual = static_cast<double>(it.measured_unpruned_nnz);
  const double rel_error =
      actual > 0 ? std::abs(it.est_unpruned_nnz - actual) / actual : -1.0;
  r.add("estimator_rel_error", rel_error);
  r.add("used_exact_estimator", it.used_exact_estimator);
  r.add("cf", it.cf);
  r.add("phases", static_cast<std::uint64_t>(it.phases));
  r.add("nnz_after_prune", it.nnz_after_prune);
  r.add("chaos", it.chaos);
  r.add("elapsed_s", it.elapsed);
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    r.add(stage_field_names()[s], it.stage_times[s]);
  }
  r.add("summa_flops", it.summa.total_flops);
  r.add("summa_spgemm_s", it.summa.spgemm_time);
  r.add("summa_bcast_s", it.summa.bcast_time);
  r.add("summa_merge_s", it.summa.merge_time);
  r.add("summa_other_s", it.summa.other_time);
  r.add("summa_overall_s", it.summa.elapsed);
  r.add("summa_sink_s", it.summa.sink_time);
  r.add("merge_peak_elements_sum", it.merge_peak_sum);
  r.add("merge_peak_elements_max", it.merge_peak_max);
  r.add("cpu_idle_s", it.cpu_idle);
  r.add("gpu_idle_s", it.gpu_idle);
  r.add("gpu_fallbacks", static_cast<std::uint64_t>(it.gpu_fallbacks));
  return r;
}

Record make_run_summary_record(const core::MclResult& result) {
  Record summary;
  summary.type = "run_summary";
  summary.add("iterations", static_cast<std::uint64_t>(result.iterations));
  summary.add("converged", result.converged);
  summary.add("num_clusters", static_cast<std::uint64_t>(result.num_clusters));
  summary.add("elapsed_s", result.elapsed);
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    summary.add(stage_field_names()[s], result.stage_times[s]);
  }
  summary.add("cpu_idle_s", result.mean_cpu_idle);
  summary.add("gpu_idle_s", result.mean_gpu_idle);
  return summary;
}

RunReport make_run_report(const core::MclResult& result, const RunInfo& info,
                          const MetricsRegistry* metrics) {
  RunReport report;
  report.add(make_run_meta_record(info));
  for (const auto& it : result.iters) report.add(make_iteration_record(it));
  if (metrics) append_metrics_records(report, *metrics);
  report.add(make_run_summary_record(result));
  return report;
}

RunReport make_metrics_report(const MetricsRegistry& metrics) {
  RunReport report;
  RunInfo info;
  info.workload = "metrics-only";
  info.nodes = 0;
  info.nranks = 0;
  info.vertices = 0;
  info.edges = 0;
  info.threads = 1;
  report.add(make_run_meta_record(info));
  append_metrics_records(report, metrics);
  return report;
}

std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

const char* json_unescape(std::string_view s, std::size_t& i,
                          std::string& out, const char* ended) {
  while (true) {
    if (i >= s.size()) return ended;
    const char c = s[i++];
    if (c == '"') return nullptr;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i >= s.size()) return ended;
    const char esc = s[i++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (i + 4 > s.size()) return "truncated \\u escape";
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = s[i++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return "bad \\u escape digit";
          }
        }
        // The writer only escapes control characters, all < 0x100.
        if (code > 0xFF) return "\\u escape beyond latin-1 unsupported";
        out.push_back(static_cast<char>(code));
        break;
      }
      default: return "unknown escape character";
    }
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0.0";  // JSON has no NaN/Inf
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  std::string out(buf, end);
  // Doubles always carry a decimal point or exponent so the reader can
  // reconstruct the field type from the token alone.
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

}  // namespace mclx::obs
