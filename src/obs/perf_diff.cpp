#include "obs/perf_diff.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json_writer.hpp"
#include "obs/run_report.hpp"

namespace mclx::obs {

namespace {

/// Recursive-descent parser over a whole JSON document, flattening
/// leaves into dotted paths as it goes. Full value grammar (objects,
/// arrays, strings, numbers, bools, null); only the string escapes the
/// repo's writers emit. Each level of nesting costs a stack frame and a
/// copy of the path so far, so nesting is bounded far above what the
/// repo writes: BENCH files nest 3 levels and Chrome traces 4.
class Flattener {
 public:
  static constexpr int kMaxDepth = 64;

  explicit Flattener(std::string_view text) : s_(text) {}

  FlatDoc run() {
    skip_ws();
    parse_value("");
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters after document");
    return std::move(doc_);
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("perf_diff: JSON offset " + std::to_string(i_) +
                             ": " + msg);
  }
  char peek() const {
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }
  static std::string join(const std::string& path, const std::string& key) {
    return path.empty() ? key : path + "." + key;
  }

  void parse_value(const std::string& path) {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth_;
      if (c == '{') {
        parse_object(path);
      } else {
        parse_array(path);
      }
      --depth_;
    } else if (c == '"') {
      FlatValue v;
      v.kind = FlatValue::Kind::kString;
      v.text = parse_string();
      doc_.emplace(path, std::move(v));
    } else if (c == 't' || c == 'f' || c == 'n') {
      parse_literal(path);
    } else {
      parse_number(path);
    }
  }

  void parse_object(const std::string& path) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      parse_value(join(path, key));
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(const std::string& path) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return;
    }
    std::size_t index = 0;
    while (true) {
      skip_ws();
      parse_value(join(path, std::to_string(index++)));
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    if (const char* err = json_unescape(s_, i_, out, "unexpected end of input"))
      fail(err);
    return out;
  }

  void parse_literal(const std::string& path) {
    FlatValue v;
    if (s_.substr(i_, 4) == "true") {
      i_ += 4;
      v.kind = FlatValue::Kind::kBool;
      v.number = 1;
      v.text = "true";
    } else if (s_.substr(i_, 5) == "false") {
      i_ += 5;
      v.kind = FlatValue::Kind::kBool;
      v.number = 0;
      v.text = "false";
    } else if (s_.substr(i_, 4) == "null") {
      i_ += 4;
      v.kind = FlatValue::Kind::kNull;
      v.text = "null";
    } else {
      fail("bad literal");
    }
    doc_.emplace(path, std::move(v));
  }

  void parse_number(const std::string& path) {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
    }
    if (i_ == start) fail("expected a value");
    FlatValue v;
    v.text = std::string(s_.substr(start, i_ - start));
    const char* b = v.text.data();
    const char* e = b + v.text.size();
    const auto [p, ec] = std::from_chars(b, e, v.number);
    if (ec != std::errc() || p != e) fail("bad number '" + v.text + "'");
    doc_.emplace(path, std::move(v));
  }

  std::string_view s_;
  std::size_t i_ = 0;
  int depth_ = 0;  ///< objects and arrays open around the cursor
  FlatDoc doc_;
};

enum class Direction { kNeutral, kLowerBetter, kHigherBetter };

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Strip "iters.3." style array components for rule matching, so the
/// per-iteration elapsed_s gets the same treatment as the top-level one.
bool contains_component(std::string_view path, std::string_view word) {
  return path.find(word) != std::string_view::npos;
}

Direction direction_of(std::string_view path) {
  if (path == "clustering.f1" || path == "clustering.modularity") {
    return Direction::kHigherBetter;
  }
  if (ends_with(path, "_s") || contains_component(path, "idle") ||
      contains_component(path, "rel_error") ||
      path.rfind("memory.", 0) == 0) {
    return Direction::kLowerBetter;
  }
  return Direction::kNeutral;
}

bool is_ignored(std::string_view path, const DiffOptions& opt) {
  // "real." covers the measured-multicore block (schema v3): wall-clock
  // numbers vary by machine exactly like real_wall_s.
  if (opt.ignore_real_wall &&
      (path == "real_wall_s" || path.rfind("real.", 0) == 0)) {
    return true;
  }
  for (const std::string& prefix : opt.ignored_prefixes) {
    if (path.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string render(const FlatValue& v) {
  return v.kind == FlatValue::Kind::kString ? "\"" + v.text + "\"" : v.text;
}

FieldDiff compare_field(const std::string& path, const FlatValue& b,
                        const FlatValue& c, const DiffOptions& opt) {
  FieldDiff d;
  d.path = path;
  d.baseline = render(b);
  d.candidate = render(c);
  if (b.kind != c.kind) {
    d.verdict = Verdict::kRegressed;  // type flip is never intentional drift
    return d;
  }
  if (b.kind == FlatValue::Kind::kString || b.kind == FlatValue::Kind::kNull) {
    d.verdict = b.text == c.text ? Verdict::kEqual : Verdict::kRegressed;
    return d;
  }
  if (b.number == c.number) {
    d.verdict = Verdict::kEqual;
    return d;
  }
  const double scale =
      std::max({std::fabs(b.number), std::fabs(c.number), 1e-300});
  d.rel_delta = std::fabs(c.number - b.number) / scale;
  if (d.rel_delta <= opt.rel_tol) {
    d.verdict = Verdict::kWithinTolerance;
    return d;
  }
  switch (direction_of(path)) {
    case Direction::kNeutral:
      d.verdict = Verdict::kRegressed;
      break;
    case Direction::kLowerBetter:
      d.verdict =
          c.number < b.number ? Verdict::kImproved : Verdict::kRegressed;
      break;
    case Direction::kHigherBetter:
      d.verdict =
          c.number > b.number ? Verdict::kImproved : Verdict::kRegressed;
      break;
  }
  return d;
}

}  // namespace

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kEqual: return "equal";
    case Verdict::kWithinTolerance: return "within-tol";
    case Verdict::kImproved: return "IMPROVED";
    case Verdict::kRegressed: return "REGRESSED";
    case Verdict::kMissing: return "MISSING";
    case Verdict::kRemoved: return "removed";
    case Verdict::kAdded: return "added";
    case Verdict::kIgnored: return "ignored";
  }
  return "unknown";
}

FlatDoc flatten_json(std::string_view text) {
  return Flattener(text).run();
}

FlatDoc flatten_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perf_diff: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return flatten_json(ss.str());
}

std::size_t DiffResult::count(Verdict v) const {
  return static_cast<std::size_t>(
      std::count_if(fields.begin(), fields.end(),
                    [v](const FieldDiff& f) { return f.verdict == v; }));
}

DiffResult diff_reports(const FlatDoc& baseline, const FlatDoc& candidate,
                        const DiffOptions& opt) {
  DiffResult result;
  auto bi = baseline.begin();
  auto ci = candidate.begin();
  auto emit = [&](const std::string& path, const FlatValue* b,
                  const FlatValue* c) {
    FieldDiff d;
    if (is_ignored(path, opt)) {
      d.path = path;
      d.verdict = Verdict::kIgnored;
      d.baseline = b ? render(*b) : "-";
      d.candidate = c ? render(*c) : "-";
    } else if (b && c) {
      d = compare_field(path, *b, *c, opt);
    } else {
      d.path = path;
      d.verdict = b ? (opt.strict_missing ? Verdict::kMissing
                                          : Verdict::kRemoved)
                    : Verdict::kAdded;
      d.baseline = b ? render(*b) : "-";
      d.candidate = c ? render(*c) : "-";
    }
    result.fields.push_back(std::move(d));
  };
  while (bi != baseline.end() || ci != candidate.end()) {
    if (ci == candidate.end() ||
        (bi != baseline.end() && bi->first < ci->first)) {
      emit(bi->first, &bi->second, nullptr);
      ++bi;
    } else if (bi == baseline.end() || ci->first < bi->first) {
      emit(ci->first, nullptr, &ci->second);
      ++ci;
    } else {
      emit(bi->first, &bi->second, &ci->second);
      ++bi;
      ++ci;
    }
  }
  return result;
}

util::Table verdict_table(const DiffResult& d, bool all) {
  util::Table t("Perf diff verdicts");
  t.header({"field", "baseline", "candidate", "rel delta", "verdict"});
  std::size_t hidden = 0;
  for (const FieldDiff& f : d.fields) {
    const bool interesting = f.verdict != Verdict::kEqual &&
                             f.verdict != Verdict::kIgnored &&
                             f.verdict != Verdict::kWithinTolerance;
    if (!all && !interesting) {
      ++hidden;
      continue;
    }
    t.row({f.path, f.baseline, f.candidate,
           f.rel_delta > 0 ? util::Table::fmt(100.0 * f.rel_delta, 4) + "%"
                           : "-",
           std::string(verdict_name(f.verdict))});
  }
  if (hidden > 0) {
    t.note(std::to_string(hidden) +
           " equal / within-tolerance / ignored fields hidden (--all shows "
           "them)");
  }
  return t;
}

std::string summarize(const DiffResult& d) {
  std::ostringstream ss;
  ss << d.fields.size() << " fields: " << d.count(Verdict::kEqual)
     << " equal, " << d.count(Verdict::kWithinTolerance) << " within-tol, "
     << d.count(Verdict::kImproved) << " improved, "
     << d.count(Verdict::kRegressed) << " regressed, "
     << d.count(Verdict::kMissing) << " missing, "
     << d.count(Verdict::kRemoved) << " removed, "
     << d.count(Verdict::kAdded) << " added, "
     << d.count(Verdict::kIgnored) << " ignored — "
     << (d.ok() ? "OK" : "REGRESSED");
  return ss.str();
}

void write_diff_json(std::ostream& os, const DiffResult& d, bool all) {
  JsonWriter w(os);
  w.begin_object();
  w.field("ok", d.ok());
  w.begin_object("counts");
  constexpr Verdict kAllVerdicts[] = {
      Verdict::kEqual,   Verdict::kWithinTolerance, Verdict::kImproved,
      Verdict::kRegressed, Verdict::kMissing,       Verdict::kRemoved,
      Verdict::kAdded,   Verdict::kIgnored,
  };
  for (const Verdict v : kAllVerdicts) {
    w.field(verdict_name(v), static_cast<std::uint64_t>(d.count(v)));
  }
  w.end_object();
  w.begin_array("fields");
  for (const FieldDiff& f : d.fields) {
    const bool interesting = f.verdict != Verdict::kEqual &&
                             f.verdict != Verdict::kIgnored &&
                             f.verdict != Verdict::kWithinTolerance;
    if (!all && !interesting) continue;
    w.begin_object(JsonWriter::Style::kCompact);
    w.field("path", f.path);
    w.field("verdict", verdict_name(f.verdict));
    w.field("baseline", f.baseline);
    w.field("candidate", f.candidate);
    w.field("rel_delta", f.rel_delta);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace mclx::obs
