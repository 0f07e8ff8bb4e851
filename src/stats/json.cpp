#include "stats/json.hpp"

#include <cstdio>

namespace hidisc::stats {

std::string format_double(double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  return std::string(buf, static_cast<std::size_t>(n));
}

void JsonWriter::element() {
  if (nonempty_.empty()) return;
  const bool first = !nonempty_.back();
  nonempty_.back() = true;
  if (!first) out_ += ',';
  if (nonempty_.size() <= kBrokenDepth)
    out_.append("\n").append(2 * nonempty_.size(), ' ');
  else if (!first)
    out_ += ' ';
}

JsonWriter& JsonWriter::literal(std::string_view text) {
  if (!after_key_) element();
  after_key_ = false;
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  element();
  out_ += '"';
  append_escaped(k);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  literal("\"");
  append_escaped(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  while (!json.empty() && json.back() == '\n') json.remove_suffix(1);
  if (nonempty_.size() < kBrokenDepth) return literal(json);
  // The document's members land deeper than kBrokenDepth: one line.  A
  // JSON string cannot hold a raw newline, so every newline is layout;
  // drop it with the indent after it, keeping the space that follows a
  // comma on one line.
  std::string line;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '\n') {
      line += json[i];
    } else {
      while (i + 1 < json.size() && json[i + 1] == ' ') ++i;
      if (!line.empty() && line.back() == ',') line += ' ';
    }
  }
  return literal(line);
}

JsonWriter& JsonWriter::open(char bracket) {
  literal(std::string_view(&bracket, 1));
  nonempty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  if (nonempty_.back() && nonempty_.size() <= kBrokenDepth)
    out_.append("\n").append(2 * (nonempty_.size() - 1), ' ');
  nonempty_.pop_back();
  out_ += bracket;
  if (nonempty_.empty()) out_ += '\n';
  return *this;
}

void JsonWriter::append_escaped(std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

}  // namespace hidisc::stats
