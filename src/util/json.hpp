// JSON for the whole library, both ways, with no external dependencies.
//
// parse_json() is a strict recursive-descent reader of the full grammar;
// it reads machine spec files (sim/machine_spec) and saved Chrome traces
// (trace/export), throwing CheckError with a byte-position diagnostic on
// malformed input.
//
// JsonWriter is the one writer: bench results files, machine models and
// Chrome traces all go through it, so every document the repo writes
// parses and all share one format, fixed here with no option: integers
// as integers; doubles in the shortest text that parses back to the same
// bits (std::to_chars); NaN and +-inf as null; strings escaped per
// RFC 8259 ('"', '\' and every control character, the last as \u00XX);
// ", " and ": " separators; and one layout rule: an array whose first
// element is an object or array puts each element on its own line,
// indented two spaces per such array, and everything else stays inline
// (one run per line in results files, one event per line in traces).
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
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

/// Streaming writer of one JSON document into a string. Calls nest as
/// the document does: key() before each member value inside an object,
/// values alone inside an array; a call out of place, or str() on an
/// unfinished document, throws CheckError.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open(true); }
  JsonWriter& end_object() { return close(true); }
  JsonWriter& begin_array() { return open(false); }
  JsonWriter& end_array() { return close(false); }
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return scalar(b ? "true" : "false"); }
  JsonWriter& value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return scalar(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  /// An array of the items, each written as value(item).
  template <class T>
  JsonWriter& value(const std::vector<T>& items) {
    begin_array();
    for (const T& item : items) value(item);
    return end_array();
  }
  JsonWriter& null() { return scalar("null"); }

  /// key(name) then value(v).
  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// The finished document (no trailing newline).
  const std::string& str() const;

 private:
  struct Frame {
    bool object = false;
    bool multiline = false;  ///< arrays: elements on their own lines
    int count = 0;           ///< members or elements written so far
  };

  JsonWriter& open(bool object);
  JsonWriter& close(bool object);
  JsonWriter& scalar(std::string_view text);
  void before_value(bool container);
  void newline();

  std::string out_;
  std::vector<Frame> stack_;
  int indent_ = 0;  ///< open multi-line arrays
  bool keyed_ = false;  ///< a key awaits its value
};

}  // namespace sstar::util
