// The one JSON emitter: plan exports, deadlock reports, service stats and
// bench JSON all go through `JsonWriter`, so escaping, number formatting
// and comma placement live in one place.  The layout is fixed: `": "`
// after every key, each member of a container at depth 1 or 2 on its own
// line (indented two spaces per level), deeper containers on one line —
// one line per plan cell and per deadlock queue/core/step.  Closing the
// outermost container ends the document with a newline.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hidisc::stats {

// "%.17g": round-trips every double bit-exactly through strtod.  The
// result cache and the service wire format store doubles this way too.
[[nodiscard]] std::string format_double(double v);

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  // Object member name; the next value or container is its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return literal(b ? "true" : "false"); }
  JsonWriter& value(double v) { return literal(format_double(v)); }
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return literal(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  // An already-serialised JSON document (this writer's layout), embedded
  // as one value with its trailing newline dropped: verbatim, or on one
  // line where its members land deeper than kBrokenDepth.
  JsonWriter& raw(std::string_view json);

  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  // Appends `text` as the next value: after its key, or as the next
  // array element.
  JsonWriter& literal(std::string_view text);
  // Comma, line break and indent owed before a key or array element.
  void element();
  void append_escaped(std::string_view s);

  // Members of containers nested deeper than this stay on one line.
  static constexpr std::size_t kBrokenDepth = 2;
  std::string out_;
  std::vector<bool> nonempty_;  // one entry per open container
  bool after_key_ = false;
};

}  // namespace hidisc::stats
