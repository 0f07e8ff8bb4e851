#include "lab/serialize.hpp"

#include <cstdlib>

#include "stats/json.hpp"

namespace hidisc::lab {

namespace {

std::string format_value(std::uint64_t v) { return std::to_string(v); }
std::string format_value(std::int64_t v) { return std::to_string(v); }
std::string format_value(bool v) { return v ? "1" : "0"; }
std::string format_value(double v) { return stats::format_double(v); }

void parse_value(const std::string& s, std::uint64_t& out) {
  out = std::strtoull(s.c_str(), nullptr, 10);
}
void parse_value(const std::string& s, std::int64_t& out) {
  out = std::strtoll(s.c_str(), nullptr, 10);
}
void parse_value(const std::string& s, bool& out) { out = s == "1"; }
void parse_value(const std::string& s, double& out) {
  out = std::strtod(s.c_str(), nullptr);
}

}  // namespace

std::map<std::string, std::string> result_to_fields(
    const machine::Result& r) {
  std::map<std::string, std::string> fields;
  visit_result_fields(r, [&fields](const std::string& name, auto& value) {
    fields[name] = format_value(value);
  });
  return fields;
}

machine::Result result_from_fields(
    const std::map<std::string, std::string>& fields, std::string* missing) {
  machine::Result r;
  if (missing != nullptr) missing->clear();
  visit_result_fields(r, [&fields, missing](const std::string& name,
                                            auto& value) {
    const auto it = fields.find(name);
    if (it != fields.end()) {
      parse_value(it->second, value);
    } else if (missing != nullptr && missing->empty()) {
      *missing = name;
    }
  });
  return r;
}

bool results_identical(const machine::Result& a, const machine::Result& b) {
  // %.17g round-trips doubles exactly, so textual equality of the field
  // maps is bitwise equality of every stat.
  return result_to_fields(a) == result_to_fields(b);
}

}  // namespace hidisc::lab
