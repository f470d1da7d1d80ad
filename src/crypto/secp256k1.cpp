#include "curb/crypto/secp256k1.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "curb/prof/profiler.hpp"

namespace curb::crypto {

namespace secp256k1 {

namespace {
using detail::u128;
using u64 = std::uint64_t;

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

// GLV endomorphism: λ·(x, y) = (β·x, y), with λ³ ≡ 1 (mod n) and β³ ≡ 1 (mod p).
//   λ = 5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72,
//   β = 7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee.
// Extended Euclid on (n, λ) gives the short lattice basis (a1, b1), (a2, b2)
// with a + b·λ ≡ 0 (mod n) and a1·b2 - a2·b1 = n:
//   a1 = b2 = 3086d221a7d46bcde86c90e49284eb15,
//   -b1 = e4437ed6010e88286f547fa90abfe4c3,
//   a2 = 114ca50f7a8e2f3f657c1108d9d44cfd8.
// g1 = round(2^384·b2 / n) and g2 = round(2^384·(-b1) / n) turn the division
// of the split into a multiplication and a shift.
constexpr U256 kLambda{0xdf02967c1b23bd72ULL, 0x122e22ea20816678ULL, 0xa5261c028812645aULL,
                       0x5363ad4cc05c30e0ULL};
constexpr U256 kBeta{0xc1396c28719501eeULL, 0x9cf0497512f58995ULL, 0x6e64479eac3434e9ULL,
                     0x7ae96a2b657c0710ULL};
constexpr U256 kG1{0xe893209a45dbb031ULL, 0x3daa8a1471e8ca7fULL, 0xe86c90e49284eb15ULL,
                   0x3086d221a7d46bcdULL};
constexpr U256 kG2{0x1571b4ae8ac47f71ULL, 0x221208ac9df506c6ULL, 0x6f547fa90abfe4c4ULL,
                   0xe4437ed6010e8828ULL};
constexpr U256 kMinusB1{0x6f547fa90abfe4c3ULL, 0xe4437ed6010e8828ULL, 0, 0};
constexpr U256 kMinusB2{0xd765cda83db1562cULL, 0x8a280ac50774346dULL, 0xfffffffffffffffeULL,
                        ~0ULL};  // n - b2

// Fixed-base comb for G (Lim–Lee): the scalar's 256 bits are read as 8 rows
// of 32 columns; column j selects entry Σ_i bit(j + 32i)·2^(32i)·G.
constexpr int kCombTeeth = 8;
constexpr int kCombSpacing = 256 / kCombTeeth;
constexpr int kCombEntries = (1 << kCombTeeth) - 1;  // entry 0 (infinity) omitted
// wNAF width for the per-call table of Q's odd multiples 1Q, 3Q, ..., 15Q.
constexpr int kQWindow = 5;
constexpr int kQEntries = 1 << (kQWindow - 2);

// --- Field core -------------------------------------------------------------
// A field element is five 52-bit limbs, Σ n[i]·2^(52i). Limb products then
// accumulate in unsigned __int128 with no carry between limbs, and additions
// need no carries at all. (On four 64-bit limbs GCC compiles the carry
// chains into long zero-extend-and-add sequences, and a multiplication took
// about 270 instructions.) The core is internal-linkage code that is always
// inlined into the point formulas, the square-root chain and to_affine_all.
//
// Values are reduced lazily. An element of magnitude m has limbs
// n[0..3] <= 2m(2^52 - 1) and n[4] <= 2m(2^48 - 1), and is any
// representative of its value mod p. mul and sqr take magnitude <= 8 and
// return magnitude 1; add adds magnitudes; mul_int(a, k) multiplies it by k;
// neg(a, m) takes magnitude <= m and returns m + 1; normalize_weak takes up
// to 32 and returns 1. Every comparison goes through normalize() (the
// canonical limbs of the value below p) or is_zero(). The public fe_* are
// one-line wrappers over this code, so the oracle tests check what the
// library runs. Nothing loops on the data.
namespace fe {

constexpr u64 kM52 = (1ULL << 52) - 1;
constexpr u64 kM48 = (1ULL << 48) - 1;
// p's low limb; its other limbs are all ones (kM52, and kM48 at the top).
constexpr u64 kP0 = 0xFFFFEFFFFFC2FULL;
// 2^256 ≡ kC and 2^260 ≡ kR = 16·kC (mod p).
constexpr u64 kC = 0x1000003D1ULL;
constexpr u64 kR = kC << 4;

struct Fe {
  u64 n[5];
};

[[gnu::always_inline]] inline Fe from_u256(const U256& a) {
  const u64 l0 = a.limb(0), l1 = a.limb(1), l2 = a.limb(2), l3 = a.limb(3);
  return {{l0 & kM52, ((l0 >> 52) | (l1 << 12)) & kM52, ((l1 >> 40) | (l2 << 24)) & kM52,
           ((l2 >> 28) | (l3 << 36)) & kM52, l3 >> 16}};
}

/// Carry every limb into 52 bits and fold the bits above 2^256 back in as
/// multiples of c: magnitude 1, value below 2^256 + 2^214 < 2p.
[[gnu::always_inline]] inline Fe normalize_weak(const Fe& a) {
  u64 t4 = a.n[4];
  const u64 x = t4 >> 48;
  t4 &= kM48;
  u64 t0 = a.n[0] + x * kC;
  u64 t1 = a.n[1] + (t0 >> 52);
  t0 &= kM52;
  u64 t2 = a.n[2] + (t1 >> 52);
  t1 &= kM52;
  u64 t3 = a.n[3] + (t2 >> 52);
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  return {{t0, t1, t2, t3, t4}};
}

/// The canonical limbs of a's value (below p). After normalize_weak the
/// value V is below 2p, and V >= p exactly when V + c reaches 2^256, which
/// then leaves V - p below it.
inline Fe normalize(const Fe& a) {
  const Fe t = normalize_weak(a);
  u64 s0 = t.n[0] + kC;
  u64 s1 = t.n[1] + (s0 >> 52);
  s0 &= kM52;
  u64 s2 = t.n[2] + (s1 >> 52);
  s1 &= kM52;
  u64 s3 = t.n[3] + (s2 >> 52);
  s2 &= kM52;
  const u64 s4 = t.n[4] + (s3 >> 52);
  s3 &= kM52;
  if ((s4 >> 48) == 0) return t;
  return {{s0, s1, s2, s3, s4 & kM48}};
}

/// Whether a ≡ 0 (mod p): after normalize_weak the value is 0 or p.
inline bool is_zero(const Fe& a) {
  const Fe t = normalize_weak(a);
  const u64 zero = t.n[0] | t.n[1] | t.n[2] | t.n[3] | t.n[4];
  const u64 minus_p = (t.n[0] ^ kP0) | (t.n[1] ^ kM52) | (t.n[2] ^ kM52) | (t.n[3] ^ kM52) |
                      (t.n[4] ^ kM48);
  return zero == 0 || minus_p == 0;
}

inline bool equal(const Fe& a, const Fe& b) {
  const Fe x = normalize(a);
  const Fe y = normalize(b);
  return ((x.n[0] ^ y.n[0]) | (x.n[1] ^ y.n[1]) | (x.n[2] ^ y.n[2]) | (x.n[3] ^ y.n[3]) |
          (x.n[4] ^ y.n[4])) == 0;
}

inline U256 to_u256(const Fe& a) {
  const Fe t = normalize(a);
  return {t.n[0] | (t.n[1] << 52), (t.n[1] >> 12) | (t.n[2] << 40),
          (t.n[2] >> 24) | (t.n[3] << 28), (t.n[3] >> 36) | (t.n[4] << 16)};
}

/// Σ_k c_k·2^(52k) mod p for the nine product columns of two inputs of
/// magnitude <= 8 (limbs below 2^56, the top one below 2^52, so no column
/// reaches 2^115): magnitude 1. Columns 5..8 are carried into 52-bit limbs
/// h first; then 2^260·h ≡ kR·h joins columns 0..4 as they carry, and what
/// ends up at 2^256 or above is folded in once more as a multiple of c.
[[gnu::always_inline]] inline Fe reduce(u128 c0, u128 c1, u128 c2, u128 c3, u128 c4, u128 c5,
                                        u128 c6, u128 c7, u128 c8) {
  u128 d = c5;
  const u64 h0 = static_cast<u64>(d) & kM52;
  d = (d >> 52) + c6;
  const u64 h1 = static_cast<u64>(d) & kM52;
  d = (d >> 52) + c7;
  const u64 h2 = static_cast<u64>(d) & kM52;
  d = (d >> 52) + c8;
  const u64 h3 = static_cast<u64>(d) & kM52;
  const u64 h4 = static_cast<u64>(d >> 52);  // below 2^53

  u128 c = c0 + static_cast<u128>(h0) * kR;
  const u64 l0 = static_cast<u64>(c) & kM52;
  c = (c >> 52) + c1 + static_cast<u128>(h1) * kR;
  const u64 l1 = static_cast<u64>(c) & kM52;
  c = (c >> 52) + c2 + static_cast<u128>(h2) * kR;
  const u64 l2 = static_cast<u64>(c) & kM52;
  c = (c >> 52) + c3 + static_cast<u128>(h3) * kR;
  const u64 l3 = static_cast<u64>(c) & kM52;
  c = (c >> 52) + c4 + static_cast<u128>(h4) * kR;
  const u64 l4 = static_cast<u64>(c) & kM52;
  const u64 top = static_cast<u64>(c >> 52);  // the multiple of 2^260, below 2^63

  // (16·top + l4 / 2^48)·2^256 ≡ top·kR + (l4 >> 48)·kC.
  c = l0 + static_cast<u128>(top) * kR + static_cast<u128>(l4 >> 48) * kC;
  return {{static_cast<u64>(c) & kM52, l1 + static_cast<u64>(c >> 52), l2, l3, l4 & kM48}};
}

[[gnu::always_inline]] inline Fe mul(const Fe& a, const Fe& b) {
  const u64 a0 = a.n[0], a1 = a.n[1], a2 = a.n[2], a3 = a.n[3], a4 = a.n[4];
  const u64 b0 = b.n[0], b1 = b.n[1], b2 = b.n[2], b3 = b.n[3], b4 = b.n[4];
  const auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };
  return reduce(m(a0, b0), m(a0, b1) + m(a1, b0), m(a0, b2) + m(a1, b1) + m(a2, b0),
                m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0),
                m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
                m(a1, b4) + m(a2, b3) + m(a3, b2) + m(a4, b1), m(a2, b4) + m(a3, b3) + m(a4, b2),
                m(a3, b4) + m(a4, b3), m(a4, b4));
}

/// a² with 15 limb products instead of mul's 25: each cross product
/// a_i·a_j (i < j) once, taken against 2·a_i.
[[gnu::always_inline]] inline Fe sqr(const Fe& a) {
  const u64 a0 = a.n[0], a1 = a.n[1], a2 = a.n[2], a3 = a.n[3], a4 = a.n[4];
  const u64 d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  const auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };
  return reduce(m(a0, a0), m(d0, a1), m(d0, a2) + m(a1, a1), m(d0, a3) + m(d1, a2),
                m(d0, a4) + m(d1, a3) + m(a2, a2), m(d1, a4) + m(d2, a3), m(d2, a4) + m(a3, a3),
                m(d3, a4), m(a4, a4));
}

[[gnu::always_inline]] inline Fe add(const Fe& a, const Fe& b) {
  return {{a.n[0] + b.n[0], a.n[1] + b.n[1], a.n[2] + b.n[2], a.n[3] + b.n[3], a.n[4] + b.n[4]}};
}

[[gnu::always_inline]] inline Fe mul_int(const Fe& a, u64 k) {
  return {{a.n[0] * k, a.n[1] * k, a.n[2] * k, a.n[3] * k, a.n[4] * k}};
}

/// -a as 2(m + 1)·p - a limb by limb, for a of magnitude <= m.
[[gnu::always_inline]] inline Fe neg(const Fe& a, u64 m) {
  const u64 k = 2 * (m + 1);
  return {{k * kP0 - a.n[0], k * kM52 - a.n[1], k * kM52 - a.n[2], k * kM52 - a.n[3],
           k * kM48 - a.n[4]}};
}

/// a^(2^k): k squarings.
inline Fe sqr_n(Fe a, int k) {
  while (k-- > 0) a = sqr(a);
  return a;
}

/// A square root of a when one exists: a^((p+1)/4), since p ≡ 3 (mod 4),
/// where (p + 1) / 4 = [223 ones] 0 [22 ones] 0000 1100 in binary. The chain
/// builds xk = a^(2^k - 1) for the runs of ones it needs.
std::optional<U256> sqrt(const U256& a) {
  const Fe x = from_u256(a);
  const Fe x2 = mul(sqr(x), x);
  const Fe x3 = mul(sqr(x2), x);
  const Fe x6 = mul(sqr_n(x3, 3), x3);
  const Fe x9 = mul(sqr_n(x6, 3), x3);
  const Fe x11 = mul(sqr_n(x9, 2), x2);
  const Fe x22 = mul(sqr_n(x11, 11), x11);
  const Fe x44 = mul(sqr_n(x22, 22), x22);
  const Fe x88 = mul(sqr_n(x44, 44), x44);
  const Fe x176 = mul(sqr_n(x88, 88), x88);
  const Fe x220 = mul(sqr_n(x176, 44), x44);
  const Fe x223 = mul(sqr_n(x220, 3), x3);
  Fe root = mul(sqr_n(x223, 23), x22);
  root = sqr_n(mul(sqr_n(root, 6), x2), 2);
  if (!equal(sqr(root), x)) return std::nullopt;
  return to_u256(root);
}

}  // namespace fe

using fe::Fe;

// --- Modular inverse (Bernstein–Yang safegcd) --------------------------------
// One variable-time inverse serves both moduli (p for the field, n for the
// scalars). It runs divsteps on (f, g) = (m, a), which shrink g to 0 and
// leave f = ±gcd = ±1, while d and e track f ≡ d·a and g ≡ e·a (mod m): at
// the end ±d is the inverse. The steps are batched 62 at a time: each batch
// works on the low 64 bits of f and g only and yields a 2x2 matrix t with
// 2^62·(f', g') = t·(f, g), which is then applied to the full f, g, d and e.
// Numbers are five signed 62-bit limbs, Σ v[i]·2^(62i): the matrix entries
// are below 2^62 in magnitude, so a limb times an entry fits in 124 bits
// and a row of them sums in a signed 128-bit accumulator. See Bernstein and
// Yang, "Fast constant-time gcd computation and modular inversion" (2019),
// and libsecp256k1's modinv64 for the variable-time batching.
namespace safegcd {

__extension__ typedef __int128 i128;
using i64 = std::int64_t;

constexpr u64 kM62 = ~0ULL >> 2;

struct Signed62 {
  i64 v[5];
};

/// 2^62·(f', g') = [u v; q r]·(f, g).
struct Matrix {
  i64 u, v, q, r;
};

/// Limbs 0..3 take 62 bits each and limb 4 the top 8 bits.
constexpr Signed62 to_signed62(const U256& a) {
  const u64 a0 = a.limb(0), a1 = a.limb(1), a2 = a.limb(2), a3 = a.limb(3);
  return {{static_cast<i64>(a0 & kM62), static_cast<i64>(((a0 >> 62) | (a1 << 2)) & kM62),
           static_cast<i64>(((a1 >> 60) | (a2 << 4)) & kM62),
           static_cast<i64>(((a2 >> 58) | (a3 << 6)) & kM62), static_cast<i64>(a3 >> 56)}};
}

/// The inverse of to_signed62, for limbs 0..3 in [0, 2^62) and limb 4 in
/// [0, 2^8).
U256 from_signed62(const Signed62& a) {
  const auto a0 = static_cast<u64>(a.v[0]), a1 = static_cast<u64>(a.v[1]),
             a2 = static_cast<u64>(a.v[2]), a3 = static_cast<u64>(a.v[3]),
             a4 = static_cast<u64>(a.v[4]);
  return {a0 | (a1 << 62), (a1 >> 2) | (a2 << 60), (a2 >> 4) | (a3 << 58), (a3 >> 6) | (a4 << 56)};
}

/// x^-1 mod 2^64 for odd x: x·x ≡ 1 (mod 8), and each Newton step
/// y ← y·(2 - x·y) doubles the number of correct low bits (3, 6, ..., 96).
constexpr u64 inverse_mod_2_64(u64 x) {
  u64 y = x;
  for (int i = 0; i < 5; ++i) y *= 2 - x * y;
  return y;
}

struct Modulus {
  Signed62 m;
  u64 m_inv62;  // m^-1 mod 2^62

  constexpr explicit Modulus(const U256& modulus)
      : m{to_signed62(modulus)}, m_inv62{inverse_mod_2_64(modulus.limb(0)) & kM62} {}
};

constexpr Modulus kFieldModulus{kP};
constexpr Modulus kScalarModulus{kN};
static_assert(((kFieldModulus.m_inv62 * kP.limb(0)) & kM62) == 1);
static_assert(((kScalarModulus.m_inv62 * kN.limb(0)) & kM62) == 1);

/// 62 divsteps on the low bits of f (odd) and g, starting from eta = -delta;
/// returns the new eta. A run of zero bits in g is one shift, and a step
/// with g odd also clears the next few low bits of g (up to 6 after a swap,
/// up to 4 otherwise) with one multiple of f.
i64 divsteps_62(i64 eta, u64 f0, u64 g0, Matrix& t) {
  // Invariants: u·f0 + v·g0 = f·2^(62-i) and q·f0 + r·g0 = g·2^(62-i).
  u64 u = 1, v = 0, q = 0, r = 1;
  u64 f = f0, g = g0;
  int i = 62;
  for (;;) {
    // The sentinel bit stops the count at the i steps still to do.
    const int zeros = std::countr_zero(g | (~0ULL << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // f and g are odd. Add w·f to g with w = -g/f mod 2^k, k = min(eta + 1,
    // i, 6 or 4): more would flip eta's sign or pass step 62.
    u64 w;
    int limit;
    if (eta < 0) {
      eta = -eta;
      const u64 f_old = f, u_old = u, v_old = v;  // (f, g) <- (g, -f)
      f = g;
      g = -f_old;
      u = q;
      q = -u_old;
      v = r;
      r = -v_old;
      limit = std::min(static_cast<int>(eta) + 1, i);
      // f·(f² - 2) ≡ -1/f (mod 64) for odd f.
      w = (f * g * (f * f - 2)) & (~0ULL >> (64 - limit)) & 63;
    } else {
      limit = std::min(static_cast<int>(eta) + 1, i);
      const u64 f_inv = f + (((f + 1) & 4) << 1);  // 1/f (mod 16)
      w = (-f_inv * g) & (~0ULL >> (64 - limit)) & 15;
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t = {static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q), static_cast<i64>(r)};
  return eta;
}

/// The low 62 bits of an accumulator as a limb.
inline i64 low62(i128 c) { return static_cast<i64>(static_cast<u64>(c) & kM62); }

/// (d, e) <- t·(d, e) / 2^62 (mod m). A multiple of m is added to each row
/// first to make it divisible by 2^62; inputs in (-2m, m) stay in (-2m, m).
void update_de(Signed62& d, Signed62& e, const Matrix& t, const Modulus& mod) {
  const i64 u = t.u, v = t.v, q = t.q, r = t.r;
  // Adding u·m (or q·m) where d is negative, and v·m (or r·m) where e is,
  // keeps the result above -2m.
  const i64 sd = d.v[4] >> 63, se = e.v[4] >> 63;
  i64 md = (u & sd) + (v & se);
  i64 me = (q & sd) + (r & se);
  i128 cd = static_cast<i128>(u) * d.v[0] + static_cast<i128>(v) * e.v[0];
  i128 ce = static_cast<i128>(q) * d.v[0] + static_cast<i128>(r) * e.v[0];
  // md ≡ -cd/m (mod 2^62), kept within 2^62 of its start.
  md -= static_cast<i64>((mod.m_inv62 * static_cast<u64>(cd) + static_cast<u64>(md)) & kM62);
  me -= static_cast<i64>((mod.m_inv62 * static_cast<u64>(ce) + static_cast<u64>(me)) & kM62);
  cd += static_cast<i128>(mod.m.v[0]) * md;
  ce += static_cast<i128>(mod.m.v[0]) * me;
  cd >>= 62;  // the low 62 bits are now zero
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<i128>(u) * d.v[i] + static_cast<i128>(v) * e.v[i] +
          static_cast<i128>(mod.m.v[i]) * md;
    ce += static_cast<i128>(q) * d.v[i] + static_cast<i128>(r) * e.v[i] +
          static_cast<i128>(mod.m.v[i]) * me;
    d.v[i - 1] = low62(cd);
    e.v[i - 1] = low62(ce);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<i64>(cd);
  e.v[4] = static_cast<i64>(ce);
}

/// (f, g) <- t·(f, g) / 2^62 on the low `len` limbs; the division is exact.
void update_fg(int len, Signed62& f, Signed62& g, const Matrix& t) {
  const i64 u = t.u, v = t.v, q = t.q, r = t.r;
  i128 cf = static_cast<i128>(u) * f.v[0] + static_cast<i128>(v) * g.v[0];
  i128 cg = static_cast<i128>(q) * f.v[0] + static_cast<i128>(r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < len; ++i) {
    cf += static_cast<i128>(u) * f.v[i] + static_cast<i128>(v) * g.v[i];
    cg += static_cast<i128>(q) * f.v[i] + static_cast<i128>(r) * g.v[i];
    f.v[i - 1] = low62(cf);
    g.v[i - 1] = low62(cg);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[len - 1] = static_cast<i64>(cf);
  g.v[len - 1] = static_cast<i64>(cg);
}

/// Carry limbs 0..3 into [0, 2^62); limb 4 takes the sign.
inline void carry(Signed62& r) {
  for (int i = 0; i < 4; ++i) {
    r.v[i + 1] += r.v[i] >> 62;
    r.v[i] &= static_cast<i64>(kM62);
  }
}

/// Add m to r when r is negative.
inline void add_modulus_if_negative(Signed62& r, const Modulus& mod) {
  const i64 negative = r.v[4] >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] += mod.m.v[i] & negative;
}

/// d in (-2m, m), negated when f ended at -1, as a value in [0, m).
U256 normalize(Signed62 d, i64 f_sign, const Modulus& mod) {
  add_modulus_if_negative(d, mod);  // (-m, m)
  const i64 negate = f_sign >> 63;
  for (i64& limb : d.v) limb = (limb ^ negate) - negate;
  carry(d);
  add_modulus_if_negative(d, mod);  // [0, m)
  carry(d);
  return from_signed62(d);
}

/// a^-1 mod m for 0 < a < m. Variable time.
U256 inverse(const U256& a, const Modulus& mod) {
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = mod.m;
  Signed62 g = to_signed62(a);
  int len = 5;  // limbs of f and g still in use
  i64 eta = -1;
  for (;;) {
    Matrix t;
    eta = divsteps_62(eta, static_cast<u64>(f.v[0]), static_cast<u64>(g.v[0]), t);
    update_de(d, e, t, mod);
    update_fg(len, f, g, t);
    if (g.v[0] == 0) {
      i64 rest = 0;
      for (int i = 1; i < len; ++i) rest |= g.v[i];
      if (rest == 0) break;
    }
    // When the top limbs of f and g are both 0 or -1 (sign only), fold the
    // sign into the limb below and drop a limb.
    const i64 fn = f.v[len - 1], gn = g.v[len - 1];
    if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      f.v[len - 2] |= static_cast<i64>(static_cast<u64>(fn) << 62);
      g.v[len - 2] |= static_cast<i64>(static_cast<u64>(gn) << 62);
      --len;
    }
  }
  return normalize(d, f.v[len - 1], mod);
}

}  // namespace safegcd

namespace fe {

inline Fe inv(const Fe& a) {
  if (is_zero(a)) throw std::domain_error{"fe_inv: zero"};
  return from_u256(safegcd::inverse(to_u256(a), safegcd::kFieldModulus));
}

}  // namespace fe

// --- Points on the field core -----------------------------------------------
// Jacobian points keep coordinates of magnitude <= 4 and an explicit
// infinity flag; affine table points keep magnitude <= 2. The public
// JacobianPoint and AffinePoint hold canonical U256 coordinates and convert
// at the API boundary.

struct Gej {
  Fe x;
  Fe y;
  Fe z;
  bool infinity = false;
};

struct Ge {
  Fe x;
  Fe y;
};

Gej gej_infinity() { return {{}, {}, {}, true}; }

Gej from_public(const JacobianPoint& p) {
  if (p.is_infinity()) return gej_infinity();
  return {fe::from_u256(p.x), fe::from_u256(p.y), fe::from_u256(p.z), false};
}

JacobianPoint to_public(const Gej& p) {
  if (p.infinity) return JacobianPoint::infinity();
  return {fe::to_u256(p.x), fe::to_u256(p.y), fe::to_u256(p.z)};
}

Ge from_public(const AffinePoint& p) { return {fe::from_u256(p.x), fe::from_u256(p.y)}; }

Ge negate(const Ge& p) { return {p.x, fe::normalize_weak(fe::neg(p.y, 2))}; }

/// 2P (a = 0): 3M + 4S. Y ≠ 0 holds for every point on the curve, since n
/// is odd and so no point has order 2. Output magnitudes 1, 1, 2.
Gej dbl(const Gej& p) {
  if (p.infinity) return p;
  const Fe y2 = fe::sqr(p.y);
  const Fe xy2 = fe::mul(p.x, y2);            // S = 4*X*Y^2 = 4*xy2
  const Fe m = fe::mul_int(fe::sqr(p.x), 3);  // M = 3*X^2
  const Fe x3 = fe::normalize_weak(           // X' = M^2 - 2S
      fe::add(fe::sqr(m), fe::neg(fe::mul_int(xy2, 8), 8)));
  const Fe s_x3 = fe::add(fe::mul_int(xy2, 4), fe::neg(x3, 1));
  const Fe y3 = fe::normalize_weak(           // Y' = M(S - X') - 8Y^4
      fe::add(fe::mul(m, s_x3), fe::neg(fe::mul_int(fe::sqr(y2), 8), 8)));
  return {x3, y3, fe::mul_int(fe::mul(p.y, p.z), 2), false};  // Z' = 2*Y*Z
}

/// P + Q from U1 = X1·Z2², S1 = Y1·Z2³ (magnitude <= 4), U2 = X2·Z1²,
/// S2 = Y2·Z1³ (magnitude 1) and zz = Z1·Z2. Equal points double and
/// opposite points give infinity; both tests normalise H and R first.
/// Output magnitudes 1, 3, 1.
Gej add_tail(const Gej& p, const Fe& u1, const Fe& s1, const Fe& u2, const Fe& s2,
             const Fe& zz) {
  const Fe h = fe::add(u2, fe::neg(u1, 4));  // magnitude 6
  const Fe r = fe::add(s2, fe::neg(s1, 4));
  if (fe::is_zero(h)) {
    if (!fe::is_zero(r)) return gej_infinity();
    return dbl(p);
  }
  const Fe h2 = fe::sqr(h);
  const Fe h3 = fe::mul(h2, h);
  const Fe u1h2 = fe::mul(u1, h2);
  const Fe x3 = fe::normalize_weak(  // X3 = R^2 - H^3 - 2*U1*H^2
      fe::add(fe::add(fe::sqr(r), fe::neg(h3, 1)), fe::neg(fe::mul_int(u1h2, 2), 2)));
  const Fe y3 =  // Y3 = R*(U1*H^2 - X3) - S1*H^3
      fe::add(fe::mul(r, fe::add(u1h2, fe::neg(x3, 1))), fe::neg(fe::mul(s1, h3), 1));
  return {x3, y3, fe::mul(h, zz), false};  // Z3 = H*Z1*Z2
}

Gej add(const Gej& p, const Gej& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const Fe z1_2 = fe::sqr(p.z);
  const Fe z2_2 = fe::sqr(q.z);
  const Fe u1 = fe::mul(p.x, z2_2);
  const Fe u2 = fe::mul(q.x, z1_2);
  const Fe s1 = fe::mul(p.y, fe::mul(z2_2, q.z));
  const Fe s2 = fe::mul(q.y, fe::mul(z1_2, p.z));
  return add_tail(p, u1, s1, u2, s2, fe::mul(p.z, q.z));
}

/// P + Q with Q affine (Z = 1): U1 = X1 and S1 = Y1 need no multiplication.
Gej add_mixed(const Gej& p, const Ge& q) {
  if (p.infinity) return {q.x, q.y, fe::from_u256(U256{1}), false};
  const Fe z1_2 = fe::sqr(p.z);
  const Fe u2 = fe::mul(q.x, z1_2);
  const Fe s2 = fe::mul(q.y, fe::mul(z1_2, p.z));
  return add_tail(p, p.x, p.y, u2, s2, p.z);
}

/// x mod n for any 256-bit x: 2^256 < 2n, so one subtraction is enough.
U256 reduce_n_once(const U256& x) {
  if (x < kN) return x;
  U256 out;
  U256::sub_with_borrow(x, kN, out);
  return out;
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
  return reduce_n_once({t[0], t[1], t[2], t[3]});
}

/// Convert N finite points to affine with one field inversion (Montgomery's
/// trick: invert the product of all Z, then peel off one Z at a time).
template <std::size_t N>
std::array<Ge, N> to_affine_all(const std::array<Gej, N>& in) {
  std::array<Fe, N> prefix;
  prefix[0] = in[0].z;
  for (std::size_t i = 1; i < N; ++i) prefix[i] = fe::mul(prefix[i - 1], in[i].z);
  Fe inv = fe::inv(prefix[N - 1]);
  std::array<Ge, N> out;
  for (std::size_t i = N; i-- > 0;) {
    Fe z_inv = inv;
    if (i > 0) {
      z_inv = fe::mul(inv, prefix[i - 1]);
      inv = fe::mul(inv, in[i].z);
    }
    const Fe z_inv2 = fe::sqr(z_inv);
    out[i] = {fe::mul(in[i].x, z_inv2), fe::mul(in[i].y, fe::mul(z_inv2, z_inv))};
  }
  return out;
}

AffinePoint to_affine(const Gej& p) {
  if (p.infinity) return {U256{}, U256{}, true};
  const Fe z_inv = fe::inv(p.z);
  const Fe z_inv2 = fe::sqr(z_inv);
  return {fe::to_u256(fe::mul(p.x, z_inv2)), fe::to_u256(fe::mul(p.y, fe::mul(z_inv2, z_inv))),
          false};
}

/// The comb table, entry b - 1 = Σ_i bit_i(b)·2^(32i)·G: 255 affine points
/// (about 18 KB), built once per process on first use. It is the only
/// precomputed table; verify reuses it for u1·G.
static_assert(sizeof(std::array<AffinePoint, kCombEntries>) <= 64 * 1024);
const std::array<AffinePoint, kCombEntries>& comb_table() {
  static const std::array<AffinePoint, kCombEntries> table = [] {
    std::array<Gej, kCombEntries> jac;
    Gej tooth = from_public(JacobianPoint::from_affine(generator()));
    for (int i = 0; i < kCombTeeth; ++i) {
      jac[(1u << i) - 1] = tooth;
      for (int s = 0; s < kCombSpacing; ++s) tooth = dbl(tooth);
    }
    for (unsigned b = 1; b <= kCombEntries; ++b) {
      const unsigned low = b & (~b + 1);
      if (b != low) jac[b - 1] = add(jac[(b ^ low) - 1], jac[low - 1]);
    }
    std::array<AffinePoint, kCombEntries> out;
    std::ranges::transform(to_affine_all(jac), out.begin(), [](const Ge& p) {
      return AffinePoint{fe::to_u256(p.x), fe::to_u256(p.y), false};
    });
    return out;
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
Gej add_comb_column(const Gej& acc, const U256& k, int j) {
  const unsigned column = comb_column(k, j);
  if (column == 0) return acc;
  return add_mixed(acc, from_public(comb_table()[column - 1]));
}

/// `count` bits of k starting at bit `pos` (count < 64).
std::uint64_t bits_at(const U256& k, int pos, int count) {
  const int limb = pos / 64;
  const int offset = pos % 64;
  std::uint64_t v = k.limb(limb) >> offset;
  if (offset + count > 64 && limb + 1 < 4) v |= k.limb(limb + 1) << (64 - offset);
  return v & ((1ULL << count) - 1);
}

/// round(k·g / 2^384) for k, g < 2^256 (below 2^129).
U256 mul_shift_384(const U256& k, const U256& g) {
  const auto w = U256::mul_wide(k, g);
  U256 out{w[6], w[7], 0, 0};
  U256::add_with_carry(out, U256{w[5] >> 63}, out);
  return out;
}

/// One half of a GLV split: the scalar is negative ? -mag : mag (mod n).
struct GlvHalf {
  U256 mag;
  bool negative = false;
};

/// A half in [0, n) that is 2^128 or more stands for n - half below 2^128.
GlvHalf signed_half(const U256& half) {
  if (half.limb(2) == 0 && half.limb(3) == 0) return {half, false};
  U256 mag;
  U256::sub_with_borrow(kN, half, mag);
  return {mag, true};
}

/// k ≡ k1 + k2·λ (mod n) with |k1|, |k2| < 2^128, for k < n. c1 and c2 are
/// k's rounded coordinates in the basis (a1, b1), (a2, b2); then
/// k2 = -(c1·b1 + c2·b2) and k1 = k - k2·λ, both mod n, which needs neither
/// a1 nor a2.
std::array<GlvHalf, 2> glv_split(const U256& k) {
  const U256 c1 = mul_shift_384(k, kG1);
  const U256 c2 = mul_shift_384(k, kG2);
  const U256 k2 = U256::add_mod(sc_mul(c1, kMinusB1), sc_mul(c2, kMinusB2), kN);
  const U256 k1 = U256::sub_mod(k, sc_mul(k2, kLambda), kN);
  return {signed_half(k1), signed_half(k2)};
}

using OddTable = std::array<Ge, kQEntries>;

/// Add the wNAF digit d (odd, nonzero) times the table's point into acc.
Gej add_wnaf_digit(const Gej& acc, const OddTable& odd, int d) {
  if (d > 0) return add_mixed(acc, odd[static_cast<std::size_t>(d / 2)]);
  return add_mixed(acc, negate(odd[static_cast<std::size_t>(-d / 2)]));
}

}  // namespace

const U256& field_prime() { return kP; }
const U256& group_order() { return kN; }

const AffinePoint& generator() {
  static const AffinePoint g{kGx, kGy, false};
  return g;
}

U256 fe_add(const U256& a, const U256& b) {
  return fe::to_u256(fe::add(fe::from_u256(a), fe::from_u256(b)));
}
U256 fe_sub(const U256& a, const U256& b) {
  return fe::to_u256(fe::add(fe::from_u256(a), fe::neg(fe::from_u256(b), 1)));
}
U256 fe_mul(const U256& a, const U256& b) {
  return fe::to_u256(fe::mul(fe::from_u256(a), fe::from_u256(b)));
}
U256 fe_sqr(const U256& a) { return fe::to_u256(fe::sqr(fe::from_u256(a))); }
U256 fe_inv(const U256& a) { return fe::to_u256(fe::inv(fe::from_u256(a))); }

U256 sc_mul(const U256& a, const U256& b) { return reduce_n(U256::mul_wide(a, b)); }

U256 sc_inv(const U256& a) {
  const U256 u = U256::reduce(a, kN);
  if (u.is_zero()) throw std::domain_error{"sc_inv: zero"};
  return safegcd::inverse(u, safegcd::kScalarModulus);
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

AffinePoint JacobianPoint::to_affine() const { return secp256k1::to_affine(from_public(*this)); }

JacobianPoint point_double(const JacobianPoint& p) {
  if (p.y.is_zero()) return JacobianPoint::infinity();
  return to_public(dbl(from_public(p)));
}

JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q) {
  return to_public(add(from_public(p), from_public(q)));
}

JacobianPoint point_add_mixed(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  return to_public(add_mixed(from_public(p), from_public(q)));
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
  Gej acc = gej_infinity();
  for (int j = kCombSpacing - 1; j >= 0; --j) acc = add_comb_column(dbl(acc), k, j);
  return to_public(acc);
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& q) {
  if (q.infinity) return scalar_mul_base(u1);
  // Odd multiples 1Q, 3Q, ..., 15Q, made affine with one shared inversion;
  // λ·(x, y) = (β·x, y) gives the same multiples of λQ for 8 products.
  std::array<Gej, kQEntries> odd;
  odd[0] = from_public(JacobianPoint::from_affine(q));
  const Gej q2 = dbl(odd[0]);
  for (std::size_t i = 1; i < odd.size(); ++i) odd[i] = add(odd[i - 1], q2);
  OddTable q_odd = to_affine_all(odd);
  OddTable lambda_odd;
  const Fe beta = fe::from_u256(kBeta);
  for (std::size_t i = 0; i < q_odd.size(); ++i) {
    lambda_odd[i] = {fe::mul(q_odd[i].x, beta), q_odd[i].y};
  }

  // u2·Q = k1·Q + k2·(λQ) with both halves below 2^128; a negative half
  // uses its table with every y negated.
  const auto [k1, k2] = glv_split(reduce_n_once(u2));
  if (k1.negative) std::ranges::transform(q_odd, q_odd.begin(), negate);
  if (k2.negative) std::ranges::transform(lambda_odd, lambda_odd.begin(), negate);
  const Wnaf naf1 = to_wnaf(k1.mag, kQWindow);
  const Wnaf naf2 = to_wnaf(k2.mag, kQWindow);

  // One Strauss–Shamir pass: about 129 shared doublings, the two halves'
  // wNAF digits, and the comb columns of u1, which fill the last 32 steps.
  Gej acc = gej_infinity();
  for (int i = std::max({naf1.len, naf2.len, kCombSpacing}) - 1; i >= 0; --i) {
    acc = dbl(acc);
    if (i < kCombSpacing) acc = add_comb_column(acc, u1, i);
    const auto at = static_cast<std::size_t>(i);
    if (naf1.digits[at] != 0) acc = add_wnaf_digit(acc, q_odd, naf1.digits[at]);
    if (naf2.digits[at] != 0) acc = add_wnaf_digit(acc, lambda_odd, naf2.digits[at]);
  }
  return to_public(acc);
}

bool on_curve(const AffinePoint& p) {
  if (p.infinity) return false;
  if (p.x >= kP || p.y >= kP) return false;
  const Ge q = from_public(p);
  const Fe rhs = fe::add(fe::mul(fe::sqr(q.x), q.x), fe::from_u256(U256{7}));
  return fe::equal(fe::sqr(q.y), rhs);
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
  const auto y = secp256k1::fe::sqrt(rhs);
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
  // x < p < 2n, so x is r or, when r + n < p, r + n. sum's coordinates are
  // canonical, so the products compare with X directly.
  const U256 zz = secp256k1::fe_sqr(sum.z);
  if (secp256k1::fe_mul(sig.r, zz) == sum.x) return true;
  U256 r_plus_n;
  if (U256::add_with_carry(sig.r, n, r_plus_n) || r_plus_n >= secp256k1::field_prime()) {
    return false;
  }
  return secp256k1::fe_mul(r_plus_n, zz) == sum.x;
}

}  // namespace curb::crypto
