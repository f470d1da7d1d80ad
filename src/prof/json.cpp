#include "curb/prof/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace curb::prof {

namespace {

// Recursive descent over standard JSON.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"json: " + what + " at offset " + std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.str = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        v.boolean = c == 't';
        if (!consume_literal(c == 't' ? "true" : "false")) fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Exporters only escape control characters; keep BMP handling simple.
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
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    try {
      std::size_t used = 0;
      v.number = std::stod(std::string{text_.substr(start, pos_ - start)}, &used);
      if (used != pos_ - start) throw std::invalid_argument{"partial"};
    } catch (const std::exception&) {
      pos_ = start;
      fail("bad number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

[[noreturn]] void type_error(std::string_view what, const char* expected) {
  throw std::runtime_error{"json: '" + std::string{what} + "' is not " + expected};
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw std::runtime_error{"json: missing member '" + key + "'"};
  return *v;
}

double JsonValue::as_number(std::string_view what) const {
  if (type != Type::kNumber) type_error(what, "a number");
  return number;
}

std::uint64_t JsonValue::as_uint(std::string_view what) const {
  const double v = as_number(what);
  // 0x1p64 is the first double past UINT64_MAX; every whole double below it
  // converts exactly.
  if (!(v >= 0.0 && v < 0x1p64 && v == std::floor(v))) {
    type_error(what, "a whole number in range");
  }
  return static_cast<std::uint64_t>(v);
}

std::int64_t JsonValue::as_int(std::string_view what) const {
  const double v = as_number(what);
  if (!(v >= -0x1p63 && v < 0x1p63 && v == std::floor(v))) {
    type_error(what, "a whole number in range");
  }
  return static_cast<std::int64_t>(v);
}

bool JsonValue::as_bool(std::string_view what) const {
  if (type != Type::kBool) type_error(what, "a bool");
  return boolean;
}

const std::string& JsonValue::as_string(std::string_view what) const {
  if (type != Type::kString) type_error(what, "a string");
  return str;
}

const std::vector<JsonValue>& JsonValue::as_array(std::string_view what) const {
  if (type != Type::kArray) type_error(what, "an array");
  return array;
}

const JsonValue::Members& JsonValue::as_object(std::string_view what) const {
  if (type != Type::kObject) type_error(what, "an object");
  return object;
}

JsonValue parse_json(std::string_view text) {
  return JsonParser{text}.parse_document();
}

std::string json_escape(const std::string& s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[64];
  // Integral values print as integers ("10", not "1e+01" — %.1g round-trips
  // it, so the shortest-precision scan below would pick the latter).
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == v) return shorter;
  }
  return buf;
}

}  // namespace curb::prof
