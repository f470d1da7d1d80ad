#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace curb::chain {

/// Little-endian byte writer for canonical wire encoding. Every structure
/// that is hashed or signed serializes through this so the byte layout is
/// deterministic across platforms.
class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }

  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void str(std::string_view s) {
    bytes(std::span{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  /// Fixed-size array without a length prefix (hashes, signatures, keys).
  template <std::size_t N>
  void fixed(const std::array<std::uint8_t, N>& data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    // All supported targets are little-endian; static_assert via endian check.
    static_assert(std::endian::native == std::endian::little,
                  "wire format assumes little-endian host");
    buf_.insert(buf_.end(), bytes, bytes + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader matching ByteWriter. Throws std::out_of_range on
/// truncated input — malformed network bytes must never crash a node.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_{data} {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return scalar<double>(); }

  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    const auto s = take(n);
    return {s.begin(), s.end()};
  }
  std::string str() {
    const auto b = bytes();
    return {b.begin(), b.end()};
  }
  template <std::size_t N>
  std::array<std::uint8_t, N> fixed() {
    const auto s = take(N);
    std::array<std::uint8_t, N> out;
    std::copy(s.begin(), s.end(), out.begin());
    return out;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T scalar() {
    const auto s = take(sizeof(T));
    T v;
    std::memcpy(&v, s.data(), sizeof(T));
    return v;
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (pos_ + n > data_.size()) throw std::out_of_range{"ByteReader: truncated input"};
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace curb::chain
