#include "curb/crypto/secp256k1.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "curb/prof/profiler.hpp"

namespace curb::crypto {

namespace secp256k1 {

namespace {
using detail::u128;

// p = 2^256 - 2^32 - 977; 2^256 ≡ 2^32 + 977 (mod p).
constexpr std::uint64_t kReduceC = (1ULL << 32) + 977ULL;

// Little-endian limbs of
//   p      = fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f,
//   n      = fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141,
//   2^256 - n = 14551231950b75fc4402da1732fc9bebf (129 bits; 2^256 ≡ kNC mod n).
constexpr U256 kP{0xfffffffefffffc2fULL, ~0ULL, ~0ULL, ~0ULL};
constexpr U256 kN{0xbfd25e8cd0364141ULL, 0xbaaedce6af48a03bULL, 0xfffffffffffffffeULL, ~0ULL};
constexpr U256 kNC{0x402da1732fc9bebfULL, 0x4551231950b75fc4ULL, 1, 0};
const U256 kGx = U256::from_hex(
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
const U256 kGy = U256::from_hex(
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");

// Fixed-base comb for G (Lim–Lee): the scalar's 256 bits are read as 8 rows
// of 32 columns; column j selects entry Σ_i bit(j + 32i)·2^(32i)·G.
constexpr int kCombTeeth = 8;
constexpr int kCombSpacing = 256 / kCombTeeth;
constexpr int kCombEntries = (1 << kCombTeeth) - 1;  // entry 0 (infinity) omitted
// wNAF width for the per-call table of Q's odd multiples 1Q, 3Q, ..., 15Q.
constexpr int kQWindow = 5;
constexpr int kQEntries = 1 << (kQWindow - 2);

/// Multiply a 4-limb value by a 64-bit constant, producing 5 limbs.
std::array<std::uint64_t, 5> mul_small(const std::array<std::uint64_t, 4>& a,
                                       std::uint64_t k) {
  std::array<std::uint64_t, 5> out{};
  std::uint64_t carry = 0;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a[i]) * k + carry;
    out[i] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  out[4] = carry;
  return out;
}

/// Reduce an 8-limb (512-bit) value modulo p using the pseudo-Mersenne
/// identity 2^256 ≡ 2^32 + 977, folding twice then conditionally subtracting.
U256 reduce_p(const std::array<std::uint64_t, 8>& t) {
  const std::array<std::uint64_t, 4> lo{t[0], t[1], t[2], t[3]};
  const std::array<std::uint64_t, 4> hi{t[4], t[5], t[6], t[7]};

  // fold1 = lo + hi * (2^32 + 977): at most 256 + 64 + 1 bits -> 5 limbs + carry.
  const auto hi_c = mul_small(hi, kReduceC);
  std::array<std::uint64_t, 5> acc{};
  std::uint64_t carry = 0;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(lo[i]) + hi_c[i] + carry;
    acc[i] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  acc[4] = hi_c[4] + carry;  // cannot overflow: hi_c[4] < 2^33

  // Second fold: acc[4] * (2^32 + 977) added into the low 256 bits.
  const u128 fold = static_cast<u128>(acc[4]) * kReduceC;
  U256 result{acc[0], acc[1], acc[2], acc[3]};
  U256 addend{static_cast<std::uint64_t>(fold), static_cast<std::uint64_t>(fold >> 64), 0, 0};
  U256 sum;
  if (U256::add_with_carry(result, addend, sum)) {
    // A carry past 2^256 means one more fold of exactly 2^32 + 977.
    U256 folded;
    U256::add_with_carry(sum, U256{kReduceC}, folded);
    sum = folded;
  }
  while (sum >= kP) {
    U256 next;
    U256::sub_with_borrow(sum, kP, next);
    sum = next;
  }
  return sum;
}

/// Reduce an 8-limb (512-bit) value modulo n by folding the limbs above
/// 2^256 back in as hi·(2^256 - n). Each fold removes about 127 bits, so at
/// most four leave a value below 2^256, and n > 2^255 makes one conditional
/// subtraction enough.
U256 reduce_n(std::array<std::uint64_t, 8> t) {
  while ((t[4] | t[5] | t[6] | t[7]) != 0) {
    std::array<std::uint64_t, 8> next{t[0], t[1], t[2], t[3], 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t h = t[4 + i];
      if (h == 0) continue;
      std::uint64_t carry = 0;
      for (int j = 0; j < 3; ++j) {
        const u128 cur = static_cast<u128>(h) * kNC.limb(j) + next[i + j] + carry;
        next[i + j] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
      for (int k = i + 3; carry != 0 && k < 8; ++k) {
        const u128 cur = static_cast<u128>(next[k]) + carry;
        next[k] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
    }
    t = next;
  }
  const U256 r{t[0], t[1], t[2], t[3]};
  if (r < kN) return r;
  U256 reduced;
  U256::sub_with_borrow(r, kN, reduced);
  return reduced;
}

/// x >> s for 0 < s < 64.
U256 shr_small(const U256& x, unsigned s) {
  return {(x.limb(0) >> s) | (x.limb(1) << (64 - s)), (x.limb(1) >> s) | (x.limb(2) << (64 - s)),
          (x.limb(2) >> s) | (x.limb(3) << (64 - s)), x.limb(3) >> s};
}

/// x / 2 mod n for x < n: odd x is first made even by adding n.
U256 half_mod_n(const U256& x) {
  if (!x.is_odd()) return shr_small(x, 1);
  U256 sum;
  const bool carry = U256::add_with_carry(x, kN, sum);
  const U256 half = shr_small(sum, 1);
  return {half.limb(0), half.limb(1), half.limb(2),
          half.limb(3) | (static_cast<std::uint64_t>(carry) << 63)};
}

/// Divide the factors of two out of u (nonzero), halving x mod n once for each.
void strip_twos(U256& u, U256& x) {
  while (!u.is_odd()) {
    const auto shift = static_cast<unsigned>(std::min(std::countr_zero(u.limb(0)), 63));
    u = shr_small(u, shift);
    for (unsigned i = 0; i < shift; ++i) x = half_mod_n(x);
  }
}

U256 fe_dbl(const U256& a) { return fe_add(a, a); }

/// a^(2^k): k squarings.
U256 fe_sqr_n(U256 a, int k) {
  while (k-- > 0) a = fe_sqr(a);
  return a;
}

/// The shared head of the addition chains for p - 2 and (p + 1) / 4, whose
/// top 223 bits are all ones: a^(2^2 - 1), a^(2^22 - 1) and a^(2^223 - 1).
struct ChainHead {
  U256 x2;
  U256 x22;
  U256 x223;
};

ChainHead fe_chain_head(const U256& a) {
  const U256 x2 = fe_mul(fe_sqr(a), a);
  const U256 x3 = fe_mul(fe_sqr(x2), a);
  const U256 x6 = fe_mul(fe_sqr_n(x3, 3), x3);
  const U256 x9 = fe_mul(fe_sqr_n(x6, 3), x3);
  const U256 x11 = fe_mul(fe_sqr_n(x9, 2), x2);
  const U256 x22 = fe_mul(fe_sqr_n(x11, 11), x11);
  const U256 x44 = fe_mul(fe_sqr_n(x22, 22), x22);
  const U256 x88 = fe_mul(fe_sqr_n(x44, 44), x44);
  const U256 x176 = fe_mul(fe_sqr_n(x88, 88), x88);
  const U256 x220 = fe_mul(fe_sqr_n(x176, 44), x44);
  const U256 x223 = fe_mul(fe_sqr_n(x220, 3), x3);
  return {x2, x22, x223};
}

AffinePoint negate(const AffinePoint& p) { return {p.x, fe_sub(U256{}, p.y), false}; }

/// Convert N finite points to affine with one field inversion (Montgomery's
/// trick: invert the product of all Z, then peel off one Z at a time).
template <std::size_t N>
std::array<AffinePoint, N> to_affine_all(const std::array<JacobianPoint, N>& in) {
  std::array<U256, N> prefix;
  prefix[0] = in[0].z;
  for (std::size_t i = 1; i < N; ++i) prefix[i] = fe_mul(prefix[i - 1], in[i].z);
  U256 inv = fe_inv(prefix[N - 1]);
  std::array<AffinePoint, N> out;
  for (std::size_t i = N; i-- > 0;) {
    U256 z_inv = inv;
    if (i > 0) {
      z_inv = fe_mul(inv, prefix[i - 1]);
      inv = fe_mul(inv, in[i].z);
    }
    const U256 z_inv2 = fe_sqr(z_inv);
    out[i] = {fe_mul(in[i].x, z_inv2), fe_mul(in[i].y, fe_mul(z_inv2, z_inv)), false};
  }
  return out;
}

/// The comb table, entry b - 1 = Σ_i bit_i(b)·2^(32i)·G: 255 affine points
/// (about 18 KB), built once per process on first use. It is the only
/// precomputed table; verify reuses it for u1·G.
static_assert(sizeof(std::array<AffinePoint, kCombEntries>) <= 64 * 1024);
const std::array<AffinePoint, kCombEntries>& comb_table() {
  static const std::array<AffinePoint, kCombEntries> table = [] {
    std::array<JacobianPoint, kCombEntries> jac;
    JacobianPoint tooth = JacobianPoint::from_affine(generator());
    for (int i = 0; i < kCombTeeth; ++i) {
      jac[(1u << i) - 1] = tooth;
      for (int s = 0; s < kCombSpacing; ++s) tooth = point_double(tooth);
    }
    for (unsigned b = 1; b <= kCombEntries; ++b) {
      const unsigned low = b & (~b + 1);
      if (b != low) jac[b - 1] = point_add(jac[(b ^ low) - 1], jac[low - 1]);
    }
    return to_affine_all(jac);
  }();
  return table;
}

/// Column j of the comb: bit i is bit j + 32i of k.
unsigned comb_column(const U256& k, int j) {
  unsigned column = 0;
  for (int i = 0; i < kCombTeeth; ++i) {
    column |= static_cast<unsigned>(k.bit(j + i * kCombSpacing)) << i;
  }
  return column;
}

/// Add comb column j of k into acc.
JacobianPoint add_comb_column(const JacobianPoint& acc, const U256& k, int j) {
  const unsigned column = comb_column(k, j);
  if (column == 0) return acc;
  return point_add_mixed(acc, comb_table()[column - 1]);
}

/// `count` bits of k starting at bit `pos` (count < 64).
std::uint64_t bits_at(const U256& k, int pos, int count) {
  const int limb = pos / 64;
  const int offset = pos % 64;
  std::uint64_t v = k.limb(limb) >> offset;
  if (offset + count > 64 && limb + 1 < 4) v |= k.limb(limb + 1) << (64 - offset);
  return v & ((1ULL << count) - 1);
}

}  // namespace

const U256& field_prime() { return kP; }
const U256& group_order() { return kN; }

const AffinePoint& generator() {
  static const AffinePoint g{kGx, kGy, false};
  return g;
}

U256 fe_add(const U256& a, const U256& b) {
  // a + b < 2p. Adding 2^256 - p on top carries out exactly when a + b >= p,
  // and then leaves a + b - p in the low 256 bits.
  U256 sum;
  const bool carry = U256::add_with_carry(a, b, sum);
  U256 reduced;
  const bool reduced_carry = U256::add_with_carry(sum, U256{kReduceC}, reduced);
  return carry || reduced_carry ? reduced : sum;
}

U256 fe_sub(const U256& a, const U256& b) {
  // A borrow leaves a - b + 2^256, which is 2^256 - p more than a - b + p.
  U256 diff;
  if (!U256::sub_with_borrow(a, b, diff)) return diff;
  U256 wrapped;
  U256::sub_with_borrow(diff, U256{kReduceC}, wrapped);
  return wrapped;
}

U256 fe_mul(const U256& a, const U256& b) { return reduce_p(U256::mul_wide(a, b)); }
U256 fe_sqr(const U256& a) { return fe_mul(a, a); }

U256 fe_inv(const U256& a) {
  if (a.is_zero()) throw std::domain_error{"fe_inv: zero"};
  // Fermat: a^(p-2), p - 2 = [223 ones] 0 [22 ones] 0000 101101 in binary.
  const ChainHead h = fe_chain_head(a);
  U256 t = fe_mul(fe_sqr_n(h.x223, 23), h.x22);
  t = fe_mul(fe_sqr_n(t, 5), a);
  t = fe_mul(fe_sqr_n(t, 3), h.x2);
  return fe_mul(fe_sqr_n(t, 2), a);
}

U256 sc_mul(const U256& a, const U256& b) { return reduce_n(U256::mul_wide(a, b)); }

U256 sc_inv(const U256& a) {
  U256 u = U256::reduce(a, kN);
  if (u.is_zero()) throw std::domain_error{"sc_inv: zero"};
  // Binary extended Euclid on (a, n), keeping x1·a ≡ u and x2·a ≡ v (mod n).
  // n is an odd prime, so u and v meet at gcd 1 before either reaches 0.
  const U256 one{1};
  U256 v = kN;
  U256 x1 = one;
  U256 x2;
  while (u != one && v != one) {
    strip_twos(u, x1);
    strip_twos(v, x2);
    U256 diff;
    if (u >= v) {
      U256::sub_with_borrow(u, v, diff);
      u = diff;
      x1 = U256::sub_mod(x1, x2, kN);
    } else {
      U256::sub_with_borrow(v, u, diff);
      v = diff;
      x2 = U256::sub_mod(x2, x1, kN);
    }
  }
  return u == one ? x1 : x2;
}

Wnaf to_wnaf(const U256& k, int w) {
  if (w < 2 || w > 8) throw std::invalid_argument{"to_wnaf: width must be in [2, 8]"};
  Wnaf out;
  int carry = 0;
  for (int bit = 0; bit < 256;) {
    if (static_cast<int>(k.bit(bit)) == carry) {
      ++bit;
      continue;
    }
    // The window starts at a bit that makes word odd; a negative digit
    // borrows from the next window through carry.
    const int now = std::min(w, 256 - bit);
    int word = static_cast<int>(bits_at(k, bit, now)) + carry;
    carry = (word >> (w - 1)) & 1;
    word -= carry << w;
    out.digits[static_cast<std::size_t>(bit)] = static_cast<std::int8_t>(word);
    out.len = bit + 1;
    bit += now;
  }
  if (carry != 0) {
    out.digits[256] = 1;
    out.len = 257;
  }
  return out;
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return infinity();
  return {p.x, p.y, U256{1}};
}

AffinePoint JacobianPoint::to_affine() const {
  if (is_infinity()) return {U256{}, U256{}, true};
  const U256 z_inv = fe_inv(z);
  const U256 z_inv2 = fe_sqr(z_inv);
  const U256 z_inv3 = fe_mul(z_inv2, z_inv);
  return {fe_mul(x, z_inv2), fe_mul(y, z_inv3), false};
}

JacobianPoint point_double(const JacobianPoint& p) {
  if (p.is_infinity() || p.y.is_zero()) return JacobianPoint::infinity();
  const U256 y2 = fe_sqr(p.y);
  const U256 s = fe_dbl(fe_dbl(fe_mul(p.x, y2)));             // S = 4*X*Y^2
  const U256 x2 = fe_sqr(p.x);
  const U256 m = fe_add(fe_dbl(x2), x2);                       // M = 3*X^2 (a = 0)
  const U256 x3 = fe_sub(fe_sqr(m), fe_dbl(s));                // X' = M^2 - 2S
  const U256 y4_8 = fe_dbl(fe_dbl(fe_dbl(fe_sqr(y2))));        // 8*Y^4
  const U256 y3 = fe_sub(fe_mul(m, fe_sub(s, x3)), y4_8);      // Y' = M(S - X') - 8Y^4
  const U256 z3 = fe_dbl(fe_mul(p.y, p.z));                    // Z' = 2*Y*Z
  return {x3, y3, z3};
}

JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  const U256 z1_2 = fe_sqr(p.z);
  const U256 z2_2 = fe_sqr(q.z);
  const U256 u1 = fe_mul(p.x, z2_2);
  const U256 u2 = fe_mul(q.x, z1_2);
  const U256 s1 = fe_mul(p.y, fe_mul(z2_2, q.z));
  const U256 s2 = fe_mul(q.y, fe_mul(z1_2, p.z));
  if (u1 == u2) {
    if (s1 != s2) return JacobianPoint::infinity();
    return point_double(p);
  }
  const U256 h = fe_sub(u2, u1);
  const U256 r = fe_sub(s2, s1);
  const U256 h2 = fe_sqr(h);
  const U256 h3 = fe_mul(h2, h);
  const U256 u1h2 = fe_mul(u1, h2);
  const U256 x3 = fe_sub(fe_sub(fe_sqr(r), h3), fe_dbl(u1h2));
  const U256 y3 = fe_sub(fe_mul(r, fe_sub(u1h2, x3)), fe_mul(s1, h3));
  const U256 z3 = fe_mul(h, fe_mul(p.z, q.z));
  return {x3, y3, z3};
}

JacobianPoint point_add_mixed(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return JacobianPoint::from_affine(q);
  // point_add with Z2 = 1: U1 = X1 and S1 = Y1 need no multiplication.
  const U256 z1_2 = fe_sqr(p.z);
  const U256 u2 = fe_mul(q.x, z1_2);
  const U256 s2 = fe_mul(q.y, fe_mul(z1_2, p.z));
  if (p.x == u2) {
    if (p.y != s2) return JacobianPoint::infinity();
    return point_double(p);
  }
  const U256 h = fe_sub(u2, p.x);
  const U256 r = fe_sub(s2, p.y);
  const U256 h2 = fe_sqr(h);
  const U256 h3 = fe_mul(h2, h);
  const U256 u1h2 = fe_mul(p.x, h2);
  const U256 x3 = fe_sub(fe_sub(fe_sqr(r), h3), fe_dbl(u1h2));
  const U256 y3 = fe_sub(fe_mul(r, fe_sub(u1h2, x3)), fe_mul(p.y, h3));
  const U256 z3 = fe_mul(h, p.z);
  return {x3, y3, z3};
}

JacobianPoint scalar_mul(const U256& k, const JacobianPoint& p) {
  JacobianPoint acc = JacobianPoint::infinity();
  const int top = k.highest_bit();
  for (int i = top; i >= 0; --i) {
    acc = point_double(acc);
    if (k.bit(i)) acc = point_add(acc, p);
  }
  return acc;
}

JacobianPoint scalar_mul_base(const U256& k) {
  JacobianPoint acc = JacobianPoint::infinity();
  for (int j = kCombSpacing - 1; j >= 0; --j) {
    acc = add_comb_column(point_double(acc), k, j);
  }
  return acc;
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& q) {
  if (q.infinity) return scalar_mul_base(u1);
  // Odd multiples 1Q, 3Q, ..., 15Q, made affine with one shared inversion.
  std::array<JacobianPoint, kQEntries> odd;
  odd[0] = JacobianPoint::from_affine(q);
  const JacobianPoint q2 = point_double(odd[0]);
  for (std::size_t i = 1; i < odd.size(); ++i) odd[i] = point_add(odd[i - 1], q2);
  const std::array<AffinePoint, kQEntries> q_odd = to_affine_all(odd);

  // One Strauss–Shamir pass: the doublings are shared, Q's wNAF digits and
  // the comb columns of u1 (which fill the last 32 steps) are added in.
  const Wnaf naf = to_wnaf(u2, kQWindow);
  JacobianPoint acc = JacobianPoint::infinity();
  for (int i = std::max(naf.len, kCombSpacing) - 1; i >= 0; --i) {
    acc = point_double(acc);
    if (i < kCombSpacing) acc = add_comb_column(acc, u1, i);
    const int digit = naf.digits[static_cast<std::size_t>(i)];
    if (digit > 0) acc = point_add_mixed(acc, q_odd[static_cast<std::size_t>(digit / 2)]);
    if (digit < 0) acc = point_add_mixed(acc, negate(q_odd[static_cast<std::size_t>(-digit / 2)]));
  }
  return acc;
}

bool on_curve(const AffinePoint& p) {
  if (p.infinity) return false;
  if (p.x >= kP || p.y >= kP) return false;
  const U256 lhs = fe_sqr(p.y);
  const U256 rhs = fe_add(fe_mul(fe_sqr(p.x), p.x), U256{7});
  return lhs == rhs;
}

}  // namespace secp256k1

namespace {

using secp256k1::AffinePoint;
using secp256k1::JacobianPoint;

/// Hash arbitrary material down to a scalar in [1, n-1].
U256 hash_to_scalar(std::span<const std::uint8_t> material) {
  const U256 n = secp256k1::group_order();
  std::vector<std::uint8_t> buf{material.begin(), material.end()};
  buf.push_back(0);
  for (std::uint8_t counter = 0;; ++counter) {
    buf.back() = counter;
    const Hash256 h = Sha256::digest(std::span<const std::uint8_t>{buf});
    const U256 candidate = U256::reduce(U256::from_hash(h), n);
    if (!candidate.is_zero()) return candidate;
  }
}

/// Recover the y coordinate for a compressed key: y^2 = x^3 + 7,
/// sqrt via y = (x^3+7)^((p+1)/4) since p ≡ 3 (mod 4), where
/// (p + 1) / 4 = [223 ones] 0 [22 ones] 0000 1100 in binary.
std::optional<U256> sqrt_mod_p(const U256& a) {
  namespace ec = secp256k1;
  const ec::ChainHead h = ec::fe_chain_head(a);
  U256 root = ec::fe_mul(ec::fe_sqr_n(h.x223, 23), h.x22);
  root = ec::fe_sqr_n(ec::fe_mul(ec::fe_sqr_n(root, 6), h.x2), 2);
  if (ec::fe_sqr(root) != U256::reduce(a, ec::field_prime())) return std::nullopt;
  return root;
}

}  // namespace

std::array<std::uint8_t, 64> Signature::to_bytes() const {
  std::array<std::uint8_t, 64> out{};
  const auto rb = r.to_bytes();
  const auto sb = s.to_bytes();
  std::copy(rb.begin(), rb.end(), out.begin());
  std::copy(sb.begin(), sb.end(), out.begin() + 32);
  return out;
}

Signature Signature::from_bytes(std::span<const std::uint8_t, 64> bytes) {
  return Signature{U256::from_bytes(bytes.subspan<0, 32>()),
                   U256::from_bytes(bytes.subspan<32, 32>())};
}

std::array<std::uint8_t, 33> PublicKey::to_bytes() const {
  std::array<std::uint8_t, 33> out{};
  out[0] = point.y.is_odd() ? 0x03 : 0x02;
  const auto xb = point.x.to_bytes();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  return out;
}

std::optional<PublicKey> PublicKey::from_bytes(std::span<const std::uint8_t, 33> bytes) {
  if (bytes[0] != 0x02 && bytes[0] != 0x03) return std::nullopt;
  const U256 x = U256::from_bytes(bytes.subspan<1, 32>());
  if (x >= secp256k1::field_prime()) return std::nullopt;
  const U256 rhs =
      secp256k1::fe_add(secp256k1::fe_mul(secp256k1::fe_sqr(x), x), U256{7});
  const auto y = sqrt_mod_p(rhs);
  if (!y) return std::nullopt;
  U256 y_final = *y;
  const bool want_odd = bytes[0] == 0x03;
  if (y_final.is_odd() != want_odd) {
    y_final = secp256k1::fe_sub(U256{}, y_final);  // p - y
  }
  const AffinePoint p{x, y_final, false};
  if (!secp256k1::on_curve(p)) return std::nullopt;
  return PublicKey{p};
}

std::string PublicKey::to_hex() const {
  const auto bytes = to_bytes();
  return curb::crypto::to_hex(std::span<const std::uint8_t>{bytes});
}

KeyPair KeyPair::from_seed(std::string_view seed) {
  const Hash256 h = Sha256::digest(seed);
  std::array<std::uint8_t, 32> material = h;
  return from_private(hash_to_scalar(std::span<const std::uint8_t>{material}));
}

KeyPair KeyPair::from_private(const U256& d) {
  const prof::Scope scope{"crypto.keygen"};
  if (d.is_zero() || d >= secp256k1::group_order()) {
    throw std::invalid_argument{"KeyPair: private key out of range"};
  }
  const AffinePoint q = secp256k1::scalar_mul_base(d).to_affine();
  return KeyPair{d, PublicKey{q}};
}

Signature KeyPair::sign(const Hash256& digest) const {
  const prof::Scope scope{"crypto.sign"};
  const U256 n = secp256k1::group_order();
  const U256 z = U256::reduce(U256::from_hash(digest), n);

  // Deterministic nonce: hash(private || digest || counter), RFC6979 spirit.
  std::vector<std::uint8_t> material;
  const auto db = d_.to_bytes();
  material.insert(material.end(), db.begin(), db.end());
  material.insert(material.end(), digest.begin(), digest.end());

  for (std::uint8_t attempt = 0;; ++attempt) {
    std::vector<std::uint8_t> m = material;
    m.push_back(attempt);
    const U256 k = hash_to_scalar(std::span<const std::uint8_t>{m});
    const AffinePoint rp = secp256k1::scalar_mul_base(k).to_affine();
    const U256 r = U256::reduce(rp.x, n);
    if (r.is_zero()) continue;
    const U256 k_inv = secp256k1::sc_inv(k);
    const U256 rd = secp256k1::sc_mul(r, d_);
    const U256 s = secp256k1::sc_mul(k_inv, U256::add_mod(z, rd, n));
    if (s.is_zero()) continue;
    return Signature{r, s};
  }
}

bool verify(const PublicKey& pub, const Hash256& digest, const Signature& sig) {
  const prof::Scope scope{"crypto.verify"};
  const U256 n = secp256k1::group_order();
  if (sig.r.is_zero() || sig.r >= n || sig.s.is_zero() || sig.s >= n) return false;
  if (!secp256k1::on_curve(pub.point)) return false;

  const U256 z = U256::reduce(U256::from_hash(digest), n);
  const U256 w = secp256k1::sc_inv(sig.s);
  const JacobianPoint sum = secp256k1::double_scalar_mul(
      secp256k1::sc_mul(z, w), secp256k1::sc_mul(sig.r, w), pub.point);
  if (sum.is_infinity()) return false;

  // x(sum) mod n == r without leaving Jacobian form: x = X / Z^2 and
  // x < p < 2n, so x is r or, when r + n < p, r + n.
  const U256 zz = secp256k1::fe_sqr(sum.z);
  if (secp256k1::fe_mul(sig.r, zz) == sum.x) return true;
  U256 r_plus_n;
  if (U256::add_with_carry(sig.r, n, r_plus_n) || r_plus_n >= secp256k1::field_prime()) {
    return false;
  }
  return secp256k1::fe_mul(r_plus_n, zz) == sum.x;
}

}  // namespace curb::crypto
