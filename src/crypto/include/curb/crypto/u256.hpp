#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "curb/crypto/sha256.hpp"

namespace curb::crypto {

namespace detail {
__extension__ typedef unsigned __int128 u128;
}  // namespace detail

/// Unsigned 256-bit integer stored as four little-endian 64-bit limbs, in
/// place of the arbitrary-precision integers the paper's pure-Python ECDSA
/// relied on. The limb primitives (add/sub with carry, widening multiply)
/// are inline and explicitly unrolled: secp256k1's field and scalar
/// arithmetic is built on them, and left rolled at -O2 they keep the limbs
/// in memory, which makes ECDSA about twice as slow.
/// The generic modular operations below work for any modulus, one bit at a
/// time; secp256k1 replaces them with curve-specific reductions.
class U256 {
 public:
  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t lo) : limbs_{lo, 0, 0, 0} {}
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2, std::uint64_t l3)
      : limbs_{l0, l1, l2, l3} {}

  /// Parse a big-endian hex string (up to 64 hex digits, no 0x prefix).
  [[nodiscard]] static U256 from_hex(std::string_view hex);
  /// Interpret a 32-byte big-endian buffer (e.g. a SHA-256 digest).
  [[nodiscard]] static U256 from_bytes(std::span<const std::uint8_t, 32> bytes);
  [[nodiscard]] static U256 from_hash(const Hash256& h) {
    return from_bytes(std::span<const std::uint8_t, 32>{h});
  }

  [[nodiscard]] std::array<std::uint8_t, 32> to_bytes() const;  // big-endian
  [[nodiscard]] std::string to_hex() const;                     // 64 lowercase digits

  [[nodiscard]] constexpr bool is_zero() const {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }
  [[nodiscard]] constexpr bool is_odd() const { return (limbs_[0] & 1) != 0; }
  [[nodiscard]] constexpr std::uint64_t limb(int i) const { return limbs_[i]; }
  [[nodiscard]] bool bit(int i) const {
    return ((limbs_[i / 64] >> (i % 64)) & 1ULL) != 0;
  }
  /// Index of highest set bit, or -1 for zero.
  [[nodiscard]] int highest_bit() const;

  constexpr auto operator<=>(const U256& rhs) const {
    for (int i = 3; i >= 0; --i) {
      if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] <=> rhs.limbs_[i];
    }
    return std::strong_ordering::equal;
  }
  constexpr bool operator==(const U256&) const = default;

  /// a + b, returning the carry-out bit. `out` may alias an input.
  static bool add_with_carry(const U256& a, const U256& b, U256& out) {
    std::uint64_t carry = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      const detail::u128 sum = static_cast<detail::u128>(a.limbs_[i]) + b.limbs_[i] + carry;
      out.limbs_[i] = static_cast<std::uint64_t>(sum);
      carry = static_cast<std::uint64_t>(sum >> 64);
    }
    return carry != 0;
  }
  /// a - b, returning the borrow-out bit (true if a < b). `out` may alias an input.
  static bool sub_with_borrow(const U256& a, const U256& b, U256& out) {
    std::uint64_t borrow = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      const detail::u128 diff = static_cast<detail::u128>(a.limbs_[i]) - b.limbs_[i] - borrow;
      out.limbs_[i] = static_cast<std::uint64_t>(diff);
      borrow = (diff >> 64) != 0 ? 1 : 0;
    }
    return borrow != 0;
  }
  /// Full 256x256 -> 512-bit product as eight little-endian limbs.
  static std::array<std::uint64_t, 8> mul_wide(const U256& a, const U256& b) {
    std::array<std::uint64_t, 8> out{};
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      std::uint64_t carry = 0;
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        const detail::u128 cur =
            static_cast<detail::u128>(a.limbs_[i]) * b.limbs_[j] + out[i + j] + carry;
        out[i + j] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
      out[i + 4] = carry;
    }
    return out;
  }

  U256 operator<<(unsigned n) const;
  U256 operator>>(unsigned n) const;

  // --- Modular arithmetic (all operands must already be < m) ---
  [[nodiscard]] static U256 add_mod(const U256& a, const U256& b, const U256& m);
  [[nodiscard]] static U256 sub_mod(const U256& a, const U256& b, const U256& m);
  /// Reduce an arbitrary 256-bit value modulo m (binary long division).
  [[nodiscard]] static U256 reduce(const U256& a, const U256& m);

  // --- Bit-serial reference operations ---
  // Correct for any modulus but O(256) modular additions per multiply (a
  // few ms per inverse). No library path calls them: they are the oracle
  // the tests check secp256k1's fe_* and sc_* arithmetic against.
  /// Shift-and-add modular multiplication.
  [[nodiscard]] static U256 mul_mod(const U256& a, const U256& b, const U256& m);
  /// Modular exponentiation by squaring over mul_mod.
  [[nodiscard]] static U256 pow_mod(const U256& a, const U256& e, const U256& m);
  /// Modular inverse for prime modulus m (Fermat: a^(m-2) mod m).
  [[nodiscard]] static U256 inv_mod_prime(const U256& a, const U256& m);
  /// Reduce a 512-bit value modulo m.
  [[nodiscard]] static U256 reduce_wide(const std::array<std::uint64_t, 8>& a, const U256& m);

 private:
  std::array<std::uint64_t, 4> limbs_{0, 0, 0, 0};
};

}  // namespace curb::crypto
