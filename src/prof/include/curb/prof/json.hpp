#pragma once

// The one JSON reader, and the two formatting helpers every JSON writer
// shares. Every tool input — span, telemetry and ledger JSONL lines,
// BENCH_results.json, memory profiles, CAP instances — is parsed by
// parse_json and read through JsonValue's typed accessors, which throw
// std::runtime_error naming the member that does not fit.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace curb::prof {

/// A parsed JSON value (objects keep their members in document order).
struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  Members object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// Object member `key`; throws when absent or not an object.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

  /// Typed reads. Each throws when the value has another type; `what` names
  /// the member in the message. as_uint and as_int take only whole numbers
  /// within the range of their result type.
  [[nodiscard]] double as_number(std::string_view what) const;
  [[nodiscard]] std::uint64_t as_uint(std::string_view what) const;
  [[nodiscard]] std::int64_t as_int(std::string_view what) const;
  [[nodiscard]] bool as_bool(std::string_view what) const;
  [[nodiscard]] const std::string& as_string(std::string_view what) const;
  [[nodiscard]] const std::vector<JsonValue>& as_array(std::string_view what) const;
  [[nodiscard]] const Members& as_object(std::string_view what) const;
};

/// Deepest nesting of arrays and objects parse_json accepts. The parser
/// recurses once per level, so the cap bounds its stack use; every document
/// curb writes nests fewer than ten levels.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parse one complete JSON document (RFC 8259). Throws std::runtime_error on
/// malformed input, raw control characters inside a string, nesting deeper
/// than kMaxJsonDepth, or anything but whitespace after the document.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// JSON string escaping: quotes, backslashes and every control character.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Shortest round-trippable JSON number formatting (integers print without
/// an exponent or trailing zeros, so exports stay byte-stable and diffable).
[[nodiscard]] std::string json_double(double v);

}  // namespace curb::prof
