#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "curb/crypto/sha256.hpp"
#include "curb/crypto/u256.hpp"

namespace curb::crypto {

/// secp256k1 curve arithmetic: y^2 = x^3 + 7 over F_p,
///   p = 2^256 - 2^32 - 977.
/// Implemented from scratch to replace the paper's pure-Python ECDSA stack:
/// curve-specific reductions mod p and mod n, Jacobian coordinates with
/// mixed additions, a fixed-base comb for k*G, and one Strauss–Shamir pass
/// for u1*G + u2*Q. Not constant-time: this is a protocol simulation, not a
/// wallet.
namespace secp256k1 {

/// Field prime p.
[[nodiscard]] const U256& field_prime();
/// Group order n.
[[nodiscard]] const U256& group_order();
/// Generator point G in affine coordinates.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  bool operator==(const AffinePoint&) const = default;
};
[[nodiscard]] const AffinePoint& generator();

// --- Field arithmetic mod p (fast pseudo-Mersenne reduction) ---
[[nodiscard]] U256 fe_add(const U256& a, const U256& b);
[[nodiscard]] U256 fe_sub(const U256& a, const U256& b);
[[nodiscard]] U256 fe_mul(const U256& a, const U256& b);
[[nodiscard]] U256 fe_sqr(const U256& a);
[[nodiscard]] U256 fe_inv(const U256& a);

// --- Scalar arithmetic mod n (folding with 2^256 - n, a 129-bit constant) ---
[[nodiscard]] U256 sc_mul(const U256& a, const U256& b);
/// a^-1 mod n by binary extended Euclid; throws std::domain_error if a ≡ 0.
[[nodiscard]] U256 sc_inv(const U256& a);

/// Width-w non-adjacent form of k: k = Σ digits[i]·2^i, every nonzero digit
/// odd with |digit| < 2^(w-1), at most one nonzero digit in any w
/// consecutive positions. `len` is one past the highest nonzero digit.
struct Wnaf {
  std::array<std::int8_t, 257> digits{};
  int len = 0;
};
/// Recode k (any 256-bit value) with width w in [2, 8].
[[nodiscard]] Wnaf to_wnaf(const U256& k, int w);

/// Jacobian point (X, Y, Z); affine = (X/Z^2, Y/Z^3). Z = 0 encodes infinity.
struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;

  [[nodiscard]] static JacobianPoint infinity() { return {U256{1}, U256{1}, U256{}}; }
  [[nodiscard]] static JacobianPoint from_affine(const AffinePoint& p);
  [[nodiscard]] bool is_infinity() const { return z.is_zero(); }
  [[nodiscard]] AffinePoint to_affine() const;
};

[[nodiscard]] JacobianPoint point_double(const JacobianPoint& p);
[[nodiscard]] JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q);
/// P + Q with Q affine (Z = 1), which saves the multiplications by Q's Z.
[[nodiscard]] JacobianPoint point_add_mixed(const JacobianPoint& p, const AffinePoint& q);
/// Reference k*P: one doubling per bit and one addition per set bit. Only
/// the tests use it, as the oracle for scalar_mul_base and double_scalar_mul.
[[nodiscard]] JacobianPoint scalar_mul(const U256& k, const JacobianPoint& p);
/// k*G from a fixed-base comb table (8 teeth, 255 affine points, built once
/// per process): 31 doublings and at most 32 mixed additions.
[[nodiscard]] JacobianPoint scalar_mul_base(const U256& k);
/// u1*G + u2*Q in one Strauss–Shamir pass: shared doublings, u2 in width-5
/// wNAF over Q's odd multiples built per call, u1 through the comb table.
[[nodiscard]] JacobianPoint double_scalar_mul(const U256& u1, const U256& u2,
                                              const AffinePoint& q);

/// True iff (x, y) satisfies the curve equation (and is not infinity).
[[nodiscard]] bool on_curve(const AffinePoint& p);

}  // namespace secp256k1

/// ECDSA signature (r, s) over secp256k1 with SHA-256 digests.
struct Signature {
  U256 r;
  U256 s;

  bool operator==(const Signature&) const = default;
  [[nodiscard]] std::array<std::uint8_t, 64> to_bytes() const;
  [[nodiscard]] static Signature from_bytes(std::span<const std::uint8_t, 64> bytes);
};

/// Compressed SEC1 public key (33 bytes: 0x02/0x03 prefix + x coordinate).
/// Used directly as a controller's identity, mirroring the paper's "broadcast
/// pk as its ID" initialization step.
struct PublicKey {
  secp256k1::AffinePoint point;

  bool operator==(const PublicKey&) const = default;
  [[nodiscard]] std::array<std::uint8_t, 33> to_bytes() const;
  [[nodiscard]] static std::optional<PublicKey> from_bytes(
      std::span<const std::uint8_t, 33> bytes);
  /// Hex of the compressed encoding — a stable printable node identity.
  [[nodiscard]] std::string to_hex() const;
};

/// Key pair with deterministic derivation from a seed (reproducible runs).
class KeyPair {
 public:
  /// Derive a valid private key from an arbitrary seed string.
  [[nodiscard]] static KeyPair from_seed(std::string_view seed);
  /// Construct from a raw private scalar in [1, n-1].
  [[nodiscard]] static KeyPair from_private(const U256& d);

  [[nodiscard]] const U256& private_key() const { return d_; }
  [[nodiscard]] const PublicKey& public_key() const { return pub_; }

  /// Sign a 32-byte message digest (deterministic nonce, RFC6979-flavoured).
  [[nodiscard]] Signature sign(const Hash256& digest) const;

 private:
  KeyPair(U256 d, PublicKey pub) : d_{d}, pub_{pub} {}
  U256 d_;
  PublicKey pub_;
};

/// Verify an ECDSA signature over a 32-byte digest.
[[nodiscard]] bool verify(const PublicKey& pub, const Hash256& digest, const Signature& sig);

}  // namespace curb::crypto
