#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace curb::core {

/// The whole of `text` as a T, or nullopt. Everything else is rejected: an
/// empty string, trailing characters ("5x", "2s"), a sign on an unsigned
/// type ("-7"), a leading '+', overflow, and a non-finite double. Every
/// numeric command-line flag and CURB_* variable goes through this.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// parse_number for the value of command-line flag `flag`. On failure
/// prints "<tool>: bad <flag> value '<text>'" to stderr and returns false;
/// the caller prints its usage and exits 2.
template <typename T>
[[nodiscard]] bool parse_flag_value(const char* tool, const std::string& flag,
                                    const std::string& text, T& out) {
  const auto value = parse_number<T>(text);
  if (!value) {
    std::fprintf(stderr, "%s: bad %s value '%s'\n", tool, flag.c_str(), text.c_str());
    return false;
  }
  out = *value;
  return true;
}

}  // namespace curb::core
