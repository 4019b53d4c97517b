#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace sstar::util {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    SSTAR_CHECK_MSG(pos_ == text_.size(),
                    "trailing characters after JSON document at byte "
                        << pos_);
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    SSTAR_FAIL("JSON parse error at byte " << pos_ << ": " << what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str = string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (consume_literal("true"))
          v.boolean = true;
        else if (consume_literal("false"))
          v.boolean = false;
        else
          fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default:
        return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (no surrogate pairing —
          // enough for config files).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number '" + tok + "'");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  SSTAR_CHECK_MSG(kind == Kind::kObject,
                  "JSON member lookup of '" << key << "' on a "
                                            << kind_name(kind));
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  SSTAR_CHECK_MSG(v != nullptr, "missing JSON member '" << key << "'");
  return *v;
}

double JsonValue::as_number() const {
  SSTAR_CHECK_MSG(kind == Kind::kNumber,
                  "expected a JSON number, got " << kind_name(kind));
  return number;
}

const std::string& JsonValue::as_string() const {
  SSTAR_CHECK_MSG(kind == Kind::kString,
                  "expected a JSON string, got " << kind_name(kind));
  return str;
}

bool JsonValue::as_bool() const {
  SSTAR_CHECK_MSG(kind == Kind::kBool,
                  "expected a JSON bool, got " << kind_name(kind));
  return boolean;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).document();
}

namespace {

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

void JsonWriter::newline() {
  out_ += '\n';
  out_.append(2 * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::before_value(bool container) {
  if (stack_.empty()) {
    SSTAR_CHECK_MSG(out_.empty(), "JSON writer: a second top-level value");
  } else if (stack_.back().object) {
    SSTAR_CHECK_MSG(keyed_, "JSON writer: an object member without a key");
    keyed_ = false;
  } else {
    Frame& f = stack_.back();
    if (f.count++ == 0 && container) {
      f.multiline = true;
      ++indent_;
    } else if (f.count > 1) {
      out_ += f.multiline ? "," : ", ";
    }
    if (f.multiline) newline();
  }
}

JsonWriter& JsonWriter::open(bool object) {
  before_value(true);
  out_ += object ? '{' : '[';
  stack_.push_back({object, false, 0});
  return *this;
}

JsonWriter& JsonWriter::close(bool object) {
  SSTAR_CHECK_MSG(!stack_.empty() && stack_.back().object == object && !keyed_,
                  "JSON writer: " << (object ? "end_object" : "end_array")
                                  << " out of place");
  if (stack_.back().multiline) {
    --indent_;
    newline();
  }
  stack_.pop_back();
  out_ += object ? '}' : ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  SSTAR_CHECK_MSG(!stack_.empty() && stack_.back().object && !keyed_,
                  "JSON writer: key '" << name << "' outside an object");
  if (stack_.back().count++ > 0) out_ += ", ";
  append_quoted(out_, name);
  out_ += ": ";
  keyed_ = true;
  return *this;
}

JsonWriter& JsonWriter::scalar(std::string_view text) {
  before_value(false);
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value(false);
  append_quoted(out_, s);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return scalar(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

const std::string& JsonWriter::str() const {
  SSTAR_CHECK_MSG(!out_.empty() && stack_.empty(),
                  "JSON writer: the document is unfinished");
  return out_;
}

}  // namespace sstar::util
