// Minimal strict JSON parser, the library's only one: it reads machine
// spec files (sim/machine_spec) and saved Chrome traces
// (trace/export). No external dependencies: a hand-rolled
// recursive-descent parser over the full JSON grammar (objects, arrays,
// strings with the standard escapes, numbers, booleans, null), throwing
// CheckError with a byte-position diagnostic on malformed input. It is
// a reader, not a serialization layer — JSON is still written by hand
// where needed (bench/*, trace/export).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace sstar::util {

/// One parsed JSON value. Object member order is preserved.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;  ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Member lookup on an object; nullptr when absent (CheckError when
  /// not an object).
  const JsonValue* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Member lookup that throws CheckError naming the missing key.
  const JsonValue& at(const std::string& key) const;

  /// Typed accessors; CheckError on a kind mismatch.
  double as_number() const;
  const std::string& as_string() const;
  bool as_bool() const;
};

/// Parse a complete JSON document (trailing garbage is an error).
/// Throws CheckError with a position diagnostic on malformed input.
JsonValue parse_json(const std::string& text);

/// Quote a string as a JSON string literal (for hand-written writers).
std::string json_quote(const std::string& s);

}  // namespace sstar::util
