// Nested-JSON writer with automatic commas and indentation, shared by
// the harnesses that emit structured (non-JSONL) reports —
// bench_regression's BENCH_regression.json first of all — so hand-rolled
// `os << "{\n"` emitters don't multiply. Escaping and number formatting
// delegate to obs::json_escaped / obs::json_number (run_report.hpp), so
// every JSON the repo writes round-trips through the same rules.
//
// Usage:
//   JsonWriter w(os);
//   w.begin_object();
//   w.field("schema_version", std::uint64_t{2});
//   w.begin_object("workload");
//   w.field("generator", "planted_partition");
//   w.end_object();
//   w.begin_array("iters", JsonWriter::Style::kCompact);
//   ...  // compact containers render on one line
//   w.end_array();
//   w.end_object();  // trailing newline at root close
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace mclx::obs {

class JsonWriter {
 public:
  enum class Style { kPretty, kCompact };

  explicit JsonWriter(std::ostream& os, int indent_width = 2);

  /// Containers. The keyed overloads are for object members; the
  /// unkeyed for array elements and the document root. A kCompact
  /// container (and everything nested in it) renders on one line.
  JsonWriter& begin_object(Style style = Style::kPretty);
  JsonWriter& begin_object(std::string_view key, Style style = Style::kPretty);
  JsonWriter& end_object();
  JsonWriter& begin_array(Style style = Style::kPretty);
  JsonWriter& begin_array(std::string_view key, Style style = Style::kPretty);
  JsonWriter& end_array();

  /// Object members.
  JsonWriter& field(std::string_view key, double v);
  JsonWriter& field(std::string_view key, bool v);
  JsonWriter& field(std::string_view key, std::uint64_t v);
  JsonWriter& field(std::string_view key, std::int64_t v);
  JsonWriter& field(std::string_view key, int v);
  JsonWriter& field(std::string_view key, std::string_view v);
  JsonWriter& field(std::string_view key, const char* v);

  /// Array elements.
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);

 private:
  struct Frame {
    bool is_array = false;
    bool first = true;
    bool compact = false;
  };

  void element_prefix();            ///< comma/newline/indent before an element
  void write_key(std::string_view key);
  void open(char bracket, std::string_view key, bool keyed, Style style);
  void close(char bracket);
  void write_scalar(std::string_view token);

  std::ostream& os_;
  int indent_width_;
  std::vector<Frame> stack_;
};

}  // namespace mclx::obs
