#include "obs/json_writer.hpp"

#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/run_report.hpp"

namespace mclx::obs {

JsonWriter::JsonWriter(std::ostream& os, int indent_width)
    : os_(os), indent_width_(indent_width) {}

void JsonWriter::element_prefix() {
  if (stack_.empty()) return;  // document root
  Frame& top = stack_.back();
  if (!top.first) os_ << ',';
  if (top.compact) {
    if (!top.first) os_ << ' ';
  } else {
    os_ << '\n'
        << std::string(stack_.size() * static_cast<std::size_t>(indent_width_),
                       ' ');
  }
  top.first = false;
}

void JsonWriter::write_key(std::string_view key) {
  os_ << '"' << json_escaped(key) << "\": ";
}

void JsonWriter::open(char bracket, std::string_view key, bool keyed,
                      Style style) {
  element_prefix();
  if (keyed) {
    if (stack_.empty() || stack_.back().is_array) {
      throw std::logic_error("json_writer: keyed container outside an object");
    }
    write_key(key);
  } else if (!stack_.empty() && !stack_.back().is_array) {
    throw std::logic_error("json_writer: unkeyed container inside an object");
  }
  os_ << bracket;
  Frame frame;
  frame.is_array = bracket == '[';
  // Compactness is sticky: children of a compact container stay inline.
  frame.compact = style == Style::kCompact ||
                  (!stack_.empty() && stack_.back().compact);
  stack_.push_back(frame);
}

void JsonWriter::close(char bracket) {
  if (stack_.empty()) throw std::logic_error("json_writer: close at root");
  const Frame top = stack_.back();
  if (top.is_array != (bracket == ']')) {
    throw std::logic_error(top.is_array
                               ? "json_writer: end_object closes an array"
                               : "json_writer: end_array closes an object");
  }
  stack_.pop_back();
  if (!top.first && !top.compact) {
    os_ << '\n'
        << std::string(stack_.size() * static_cast<std::size_t>(indent_width_),
                       ' ');
  }
  os_ << bracket;
  if (stack_.empty()) os_ << '\n';  // newline-terminated document
}

JsonWriter& JsonWriter::begin_object(Style style) {
  open('{', {}, false, style);
  return *this;
}
JsonWriter& JsonWriter::begin_object(std::string_view key, Style style) {
  open('{', key, true, style);
  return *this;
}
JsonWriter& JsonWriter::end_object() {
  close('}');
  return *this;
}
JsonWriter& JsonWriter::begin_array(Style style) {
  open('[', {}, false, style);
  return *this;
}
JsonWriter& JsonWriter::begin_array(std::string_view key, Style style) {
  open('[', key, true, style);
  return *this;
}
JsonWriter& JsonWriter::end_array() {
  close(']');
  return *this;
}

void JsonWriter::write_scalar(std::string_view token) {
  element_prefix();
  os_ << token;
}

JsonWriter& JsonWriter::field(std::string_view key, double v) {
  element_prefix();
  write_key(key);
  os_ << json_number(v);
  return *this;
}
JsonWriter& JsonWriter::field(std::string_view key, bool v) {
  element_prefix();
  write_key(key);
  os_ << (v ? "true" : "false");
  return *this;
}
JsonWriter& JsonWriter::field(std::string_view key, std::uint64_t v) {
  element_prefix();
  write_key(key);
  os_ << v;
  return *this;
}
JsonWriter& JsonWriter::field(std::string_view key, std::int64_t v) {
  element_prefix();
  write_key(key);
  os_ << v;
  return *this;
}
JsonWriter& JsonWriter::field(std::string_view key, int v) {
  return field(key, static_cast<std::int64_t>(v));
}
JsonWriter& JsonWriter::field(std::string_view key, std::string_view v) {
  element_prefix();
  write_key(key);
  os_ << '"' << json_escaped(v) << '"';
  return *this;
}
JsonWriter& JsonWriter::field(std::string_view key, const char* v) {
  return field(key, std::string_view(v));
}

JsonWriter& JsonWriter::value(double v) {
  write_scalar(json_number(v));
  return *this;
}
JsonWriter& JsonWriter::value(bool v) {
  write_scalar(v ? "true" : "false");
  return *this;
}
JsonWriter& JsonWriter::value(std::uint64_t v) {
  write_scalar(std::to_string(v));
  return *this;
}
JsonWriter& JsonWriter::value(std::int64_t v) {
  write_scalar(std::to_string(v));
  return *this;
}
JsonWriter& JsonWriter::value(int v) {
  return value(static_cast<std::int64_t>(v));
}
JsonWriter& JsonWriter::value(std::string_view v) {
  element_prefix();
  os_ << '"' << json_escaped(v) << '"';
  return *this;
}
JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

}  // namespace mclx::obs
