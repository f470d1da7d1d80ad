#include "curb/crypto/secp256k1.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

namespace curb::crypto {
namespace {

namespace ec = secp256k1;

U256 n_minus(std::uint64_t k) {
  U256 out;
  U256::sub_with_borrow(ec::group_order(), U256{k}, out);
  return out;
}

U256 random_u256(std::mt19937_64& rng) { return {rng(), rng(), rng(), rng()}; }

/// Scalars that stress reduction and recoding: 0, 1, n-2, n-1, n, values
/// with all-ones top limbs, and random ones.
std::vector<U256> edge_and_random_scalars(std::size_t random_count) {
  std::vector<U256> out{U256{},
                        U256{1},
                        n_minus(2),
                        n_minus(1),
                        ec::group_order(),
                        U256{~0ULL, ~0ULL, ~0ULL, ~0ULL},
                        U256{0x0123456789abcdefULL, 0xfedcba9876543210ULL, ~0ULL, ~0ULL},
                        U256{0, 0, ~0ULL, ~0ULL},
                        U256{0, 0, 1, 0}};
  std::mt19937_64 rng{20220705};
  for (std::size_t i = 0; i < random_count; ++i) out.push_back(random_u256(rng));
  return out;
}

ec::AffinePoint reference_mul(const U256& k, const ec::AffinePoint& p) {
  return ec::scalar_mul(k, ec::JacobianPoint::from_affine(p)).to_affine();
}

TEST(Secp256k1, GeneratorIsOnCurve) {
  EXPECT_TRUE(ec::on_curve(ec::generator()));
}

TEST(Secp256k1, TwoGMatchesKnownVector) {
  const auto two_g = ec::point_double(ec::JacobianPoint::from_affine(ec::generator()))
                         .to_affine();
  EXPECT_EQ(two_g.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(two_g.y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Secp256k1, ScalarMulMatchesRepeatedAddition) {
  const auto g = ec::JacobianPoint::from_affine(ec::generator());
  ec::JacobianPoint acc = ec::JacobianPoint::infinity();
  for (int i = 0; i < 5; ++i) acc = ec::point_add(acc, g);
  EXPECT_EQ(ec::scalar_mul(U256{5}, g).to_affine(), acc.to_affine());
}

TEST(Secp256k1, ScalarMulByOrderIsInfinity) {
  const auto g = ec::JacobianPoint::from_affine(ec::generator());
  EXPECT_TRUE(ec::scalar_mul(ec::group_order(), g).is_infinity());
}

TEST(Secp256k1, AdditionIsCommutative) {
  const auto g = ec::JacobianPoint::from_affine(ec::generator());
  const auto p = ec::scalar_mul(U256{123}, g);
  const auto q = ec::scalar_mul(U256{456}, g);
  EXPECT_EQ(ec::point_add(p, q).to_affine(), ec::point_add(q, p).to_affine());
}

TEST(Secp256k1, AddingInverseGivesInfinity) {
  const auto g = ec::JacobianPoint::from_affine(ec::generator());
  // (-1)G = (n-1)G; G + (n-1)G must be infinity.
  U256 n_minus_1;
  U256::sub_with_borrow(ec::group_order(), U256{1}, n_minus_1);
  const auto neg_g = ec::scalar_mul(n_minus_1, g);
  EXPECT_TRUE(ec::point_add(g, neg_g).is_infinity());
}

TEST(Secp256k1, InfinityIsIdentity) {
  const auto g = ec::JacobianPoint::from_affine(ec::generator());
  const auto inf = ec::JacobianPoint::infinity();
  EXPECT_EQ(ec::point_add(g, inf).to_affine(), g.to_affine());
  EXPECT_EQ(ec::point_add(inf, g).to_affine(), g.to_affine());
  EXPECT_TRUE(ec::point_double(inf).is_infinity());
}

TEST(Secp256k1, FieldInverse) {
  const U256 a = U256::from_hex("deadbeefcafebabe");
  EXPECT_EQ(ec::fe_mul(a, ec::fe_inv(a)), U256{1});
  EXPECT_THROW((void)ec::fe_inv(U256{}), std::domain_error);
}

TEST(Secp256k1, FieldMulAgainstGenericModMul) {
  const U256 a = U256::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0");
  const U256 b = U256::from_hex("fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210");
  EXPECT_EQ(ec::fe_mul(a, b), U256::mul_mod(a, b, ec::field_prime()));
}

TEST(Secp256k1, FieldInverseMatchesBitSerial) {
  for (const U256& a : {U256{1}, U256{2}, U256{0xdeadbeefcafebabeULL, 7, 0, 1ULL << 63},
                        U256{~0ULL - 0x3d1, ~0ULL, ~0ULL, ~0ULL}}) {
    EXPECT_EQ(ec::fe_inv(a), U256::inv_mod_prime(a, ec::field_prime())) << a.to_hex();
  }
}

TEST(Scalar, MulMatchesBitSerial) {
  const std::vector<U256> values = edge_and_random_scalars(24);
  for (const U256& a : values) {
    for (const U256& b : values) {
      ASSERT_EQ(ec::sc_mul(a, b), U256::mul_mod(a, b, ec::group_order()))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

TEST(Scalar, InverseMatchesBitSerial) {
  for (const U256& a : edge_and_random_scalars(6)) {
    const U256 reduced = U256::reduce(a, ec::group_order());
    if (reduced.is_zero()) {
      EXPECT_THROW((void)ec::sc_inv(a), std::domain_error) << a.to_hex();
      continue;
    }
    const U256 inv = ec::sc_inv(a);
    EXPECT_EQ(inv, U256::inv_mod_prime(reduced, ec::group_order())) << a.to_hex();
    EXPECT_EQ(ec::sc_mul(a, inv), U256{1}) << a.to_hex();
  }
}

TEST(Scalar, InverseRoundTripsOnRandomOperands) {
  std::mt19937_64 rng{7};
  for (int i = 0; i < 200; ++i) {
    const U256 a = U256::reduce(random_u256(rng), ec::group_order());
    if (a.is_zero()) continue;
    ASSERT_EQ(ec::sc_mul(a, ec::sc_inv(a)), U256{1}) << a.to_hex();
  }
}

TEST(Wnaf, RecodingReconstructsScalar) {
  const U256& n = ec::group_order();
  for (const U256& k : edge_and_random_scalars(16)) {
    for (int w = 2; w <= 8; ++w) {
      const ec::Wnaf naf = ec::to_wnaf(k, w);
      // Horner over the digits mod n; at most one nonzero digit per window.
      U256 acc;
      int last_nonzero = -w;
      for (int i = 256; i >= 0; --i) {
        const int d = naf.digits[static_cast<std::size_t>(i)];
        acc = U256::add_mod(acc, acc, n);
        if (d == 0) continue;
        ASSERT_LT(i, naf.len) << "digit past len, w = " << w;
        ASSERT_EQ(d % 2 != 0, true) << "even digit, w = " << w;
        ASSERT_LT(std::abs(d), 1 << (w - 1)) << "digit too large, w = " << w;
        if (last_nonzero >= 0) {
          ASSERT_GE(last_nonzero - i, w) << "adjacent digits, w = " << w;
        }
        last_nonzero = i;
        const U256 mag{static_cast<std::uint64_t>(std::abs(d))};
        acc = d > 0 ? U256::add_mod(acc, mag, n) : U256::sub_mod(acc, mag, n);
      }
      EXPECT_EQ(acc, U256::reduce(k, n)) << k.to_hex() << " w = " << w;
      if (naf.len > 0) {
        EXPECT_NE(naf.digits[static_cast<std::size_t>(naf.len - 1)], 0);
      }
    }
  }
  EXPECT_THROW((void)ec::to_wnaf(U256{1}, 1), std::invalid_argument);
  EXPECT_THROW((void)ec::to_wnaf(U256{1}, 9), std::invalid_argument);
}

TEST(Secp256k1, CombMatchesReference) {
  const ec::AffinePoint& g = ec::generator();
  for (const U256& k : edge_and_random_scalars(12)) {
    EXPECT_EQ(ec::scalar_mul_base(k).to_affine(), reference_mul(k, g)) << k.to_hex();
  }
}

TEST(Secp256k1, JointPassMatchesReference) {
  const ec::AffinePoint& g = ec::generator();
  const ec::AffinePoint neg_g = reference_mul(n_minus(1), g);
  std::mt19937_64 rng{99};
  std::vector<ec::AffinePoint> points{g, neg_g};
  for (int i = 0; i < 3; ++i) points.push_back(reference_mul(random_u256(rng), g));
  const std::vector<U256> scalars = edge_and_random_scalars(3);
  std::vector<ec::JacobianPoint> u1_g;
  for (const U256& u1 : scalars) u1_g.push_back(ec::scalar_mul(u1, ec::JacobianPoint::from_affine(g)));
  // Every u2 against three u1 partners (itself and two shifted ones).
  for (const ec::AffinePoint& q : points) {
    for (std::size_t j = 0; j < scalars.size(); ++j) {
      const ec::JacobianPoint u2_q = ec::scalar_mul(scalars[j], ec::JacobianPoint::from_affine(q));
      for (const std::size_t shift : {0u, 1u, 5u}) {
        const std::size_t i = (j + shift) % scalars.size();
        ASSERT_EQ(ec::double_scalar_mul(scalars[i], scalars[j], q).to_affine(),
                  ec::point_add(u1_g[i], u2_q).to_affine())
            << scalars[i].to_hex() << " " << scalars[j].to_hex() << " " << q.x.to_hex();
      }
    }
  }
}

TEST(Secp256k1, JointPassHitsEqualAndInversePoints) {
  // With u1 = u2 = 1 the pass ends with G (from the comb) plus Q's digit:
  // Q = G takes the doubling branch of the mixed addition, Q = -G the
  // point-at-infinity branch.
  const ec::AffinePoint& g = ec::generator();
  const ec::AffinePoint neg_g = reference_mul(n_minus(1), g);
  EXPECT_EQ(ec::double_scalar_mul(U256{1}, U256{1}, g).to_affine(), reference_mul(U256{2}, g));
  EXPECT_TRUE(ec::double_scalar_mul(U256{1}, U256{1}, neg_g).is_infinity());
  EXPECT_EQ(ec::point_add_mixed(ec::JacobianPoint::from_affine(g), g).to_affine(),
            reference_mul(U256{2}, g));
  EXPECT_TRUE(ec::point_add_mixed(ec::JacobianPoint::from_affine(g), neg_g).is_infinity());
  EXPECT_EQ(ec::point_add_mixed(ec::JacobianPoint::infinity(), g).to_affine(), g);
}

TEST(PublicKey, DecompressionMatchesBitSerialSqrt) {
  U256 exp;
  U256::add_with_carry(ec::field_prime(), U256{1}, exp);
  exp = exp >> 2;
  int roots = 0;
  for (std::uint64_t xv = 1; xv <= 8; ++xv) {
    const U256 x{xv};
    const U256 rhs = ec::fe_add(ec::fe_mul(ec::fe_sqr(x), x), U256{7});
    const U256 ref = U256::pow_mod(rhs, exp, ec::field_prime());
    const bool has_root = ec::fe_sqr(ref) == rhs;
    std::array<std::uint8_t, 33> bytes{};
    bytes[0] = 0x02;
    const auto xb = x.to_bytes();
    std::copy(xb.begin(), xb.end(), bytes.begin() + 1);
    const auto key = PublicKey::from_bytes(std::span<const std::uint8_t, 33>{bytes});
    ASSERT_EQ(key.has_value(), has_root) << "x = " << xv;
    if (!has_root) continue;
    ++roots;
    EXPECT_FALSE(key->point.y.is_odd());
    EXPECT_TRUE(key->point.y == ref || key->point.y == ec::fe_sub(U256{}, ref)) << "x = " << xv;
  }
  EXPECT_GT(roots, 0);
  EXPECT_LT(roots, 8);
}

TEST(KeyPair, DeterministicFromSeed) {
  const KeyPair a = KeyPair::from_seed("controller-0");
  const KeyPair b = KeyPair::from_seed("controller-0");
  const KeyPair c = KeyPair::from_seed("controller-1");
  EXPECT_EQ(a.public_key(), b.public_key());
  EXPECT_NE(a.public_key(), c.public_key());
}

TEST(KeyPair, PublicKeyIsOnCurve) {
  const KeyPair kp = KeyPair::from_seed("any-seed");
  EXPECT_TRUE(ec::on_curve(kp.public_key().point));
}

TEST(KeyPair, RejectsOutOfRangePrivate) {
  EXPECT_THROW((void)KeyPair::from_private(U256{}), std::invalid_argument);
  EXPECT_THROW((void)KeyPair::from_private(ec::group_order()), std::invalid_argument);
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::from_seed("signer");
  const Hash256 digest = Sha256::digest("a flow-table update transaction");
  const Signature sig = kp.sign(digest);
  EXPECT_TRUE(verify(kp.public_key(), digest, sig));
}

TEST(Ecdsa, SignIsDeterministic) {
  const KeyPair kp = KeyPair::from_seed("signer");
  const Hash256 digest = Sha256::digest("msg");
  EXPECT_EQ(kp.sign(digest), kp.sign(digest));
}

TEST(Ecdsa, RejectsTamperedMessage) {
  const KeyPair kp = KeyPair::from_seed("signer");
  const Signature sig = kp.sign(Sha256::digest("original"));
  EXPECT_FALSE(verify(kp.public_key(), Sha256::digest("tampered"), sig));
}

TEST(Ecdsa, RejectsWrongKey) {
  const KeyPair alice = KeyPair::from_seed("alice");
  const KeyPair bob = KeyPair::from_seed("bob");
  const Hash256 digest = Sha256::digest("msg");
  EXPECT_FALSE(verify(bob.public_key(), digest, alice.sign(digest)));
}

TEST(Ecdsa, RejectsTamperedSignature) {
  const KeyPair kp = KeyPair::from_seed("signer");
  const Hash256 digest = Sha256::digest("msg");
  Signature sig = kp.sign(digest);
  sig.s = U256::add_mod(sig.s, U256{1}, ec::group_order());
  EXPECT_FALSE(verify(kp.public_key(), digest, sig));
}

TEST(Ecdsa, RejectsZeroSignatureComponents) {
  const KeyPair kp = KeyPair::from_seed("signer");
  const Hash256 digest = Sha256::digest("msg");
  EXPECT_FALSE(verify(kp.public_key(), digest, Signature{U256{}, U256{1}}));
  EXPECT_FALSE(verify(kp.public_key(), digest, Signature{U256{1}, U256{}}));
  EXPECT_FALSE(verify(kp.public_key(), digest, Signature{ec::group_order(), U256{1}}));
}

TEST(Ecdsa, VerifyRejectsSumAtInfinity) {
  // With z = -r·d (mod n), u1·G + u2·Q = (z + r·d)/s · G is the point at
  // infinity, which has no x coordinate to compare with r.
  const KeyPair kp = KeyPair::from_seed("signer");
  const Signature sig{U256::from_hex("1234567890abcdef"), U256::from_hex("fedcba0987654321")};
  const U256 z = U256::sub_mod(U256{}, ec::sc_mul(sig.r, kp.private_key()), ec::group_order());
  const auto zb = z.to_bytes();
  Hash256 digest{};
  std::copy(zb.begin(), zb.end(), digest.begin());
  const U256 w = ec::sc_inv(sig.s);
  EXPECT_TRUE(ec::double_scalar_mul(ec::sc_mul(z, w), ec::sc_mul(sig.r, w),
                                    kp.public_key().point)
                  .is_infinity());
  bool verdict = true;
  EXPECT_NO_THROW(verdict = verify(kp.public_key(), digest, sig));
  EXPECT_FALSE(verdict);
}

TEST(Ecdsa, RoundTripWithGeneratorAndItsNegation) {
  // d = 1 gives Q = G and d = n-1 gives Q = -G, so Q's table repeats or
  // mirrors the comb's points.
  for (const U256& d : {U256{1}, n_minus(1)}) {
    const KeyPair kp = KeyPair::from_private(d);
    for (const char* msg : {"a", "b", "flow", "reassign", "final"}) {
      const Hash256 digest = Sha256::digest(msg);
      const Signature sig = kp.sign(digest);
      EXPECT_TRUE(verify(kp.public_key(), digest, sig)) << d.to_hex() << " " << msg;
      EXPECT_FALSE(verify(kp.public_key(), Sha256::digest(std::string{msg} + "!"), sig));
    }
  }
}

TEST(Signature, BytesRoundTrip) {
  const KeyPair kp = KeyPair::from_seed("signer");
  const Signature sig = kp.sign(Sha256::digest("msg"));
  const auto bytes = sig.to_bytes();
  EXPECT_EQ(Signature::from_bytes(std::span<const std::uint8_t, 64>{bytes}), sig);
}

TEST(PublicKey, CompressedRoundTrip) {
  for (const char* seed : {"a", "b", "c", "d", "e"}) {
    const KeyPair kp = KeyPair::from_seed(seed);
    const auto bytes = kp.public_key().to_bytes();
    const auto restored = PublicKey::from_bytes(std::span<const std::uint8_t, 33>{bytes});
    ASSERT_TRUE(restored.has_value()) << "seed " << seed;
    EXPECT_EQ(*restored, kp.public_key());
  }
}

TEST(PublicKey, RejectsBadPrefix) {
  std::array<std::uint8_t, 33> bytes{};
  bytes[0] = 0x05;
  EXPECT_FALSE(PublicKey::from_bytes(std::span<const std::uint8_t, 33>{bytes}).has_value());
}

TEST(PublicKey, HexIdIsStable) {
  const KeyPair kp = KeyPair::from_seed("id");
  EXPECT_EQ(kp.public_key().to_hex().size(), 66u);
  EXPECT_EQ(kp.public_key().to_hex(), kp.public_key().to_hex());
}

// --- Known-answer vectors -------------------------------------------------
// Pinned from the original bit-serial implementation: keys and signatures
// feed genesis hashes and chains, so any faster arithmetic must reproduce
// them byte for byte.

TEST(KnownAnswer, ControllerPublicKeys) {
  // The identities CurbNetwork::initialize derives for deployment seed 1.
  const char* const expected[16] = {
      "02dafddfedaf0a484564c9c6225272f1d9b267f53b8dda6a2ffce6d101c90933dd",
      "03fed925ba601d7ef6e995e40ac0d47d22b447ee4c768651a8883b1958072439af",
      "023a4e91948645be925040740eaee5e36b77033e4a1f6a8c568c7e5a2b7a9cdc78",
      "02fd9daaf1bc27aee5f3855397d271bf3db97bf106670e85ccb9ac69a7b4b1c485",
      "03eb8a1b35233b3f4f7753315d02bcce19b62465c0055c3548961dacd34e8b11f3",
      "025eca64382be4202e9dbe9a6289d5bf475afad2324b2a654ff24c8e6a6af6b6a3",
      "032378a4cf1d76d4a3118494ae529f540eca17764cf42738255fe049f31d8e29eb",
      "033519087c5796706f9cbdc44e18f79f0b773402668dabaf426d304b01b20e448a",
      "035419f3b1bcf1908417cb9c9686d1af8e98bf27adc06b8d66bb8b5a4232201d0a",
      "02c146693d72559a19612ea4a945428527424adf403929e6b7d5077cfe6ab0db96",
      "02e2bda140ef46083c89ed4e9994360bef2e39752a94756e22d5fe9d3b50b6459e",
      "02d6acfab53d2ece669e084fdc524ffa20399ea3e42a3ff07f0de5a191a57d407d",
      "021c7791676883497810a2d9e17fe313f8d47779f466cf6c84c4baaca5e00ae28d",
      "0392930510432f35f0cbf4720cbce7c9b26fcfabc7e8cde7485d6fd921b6f904ad",
      "028bb6333dcfc22a3bb58201cfc37a8f6cb3d5f251594f1330474444e487ecc6e4",
      "032254404b7543c4e4b6c3af7d772501870cc1aec257a6f189407618deb1735006",
  };
  for (int id = 0; id < 16; ++id) {
    const KeyPair kp = KeyPair::from_seed("curb-controller-" + std::to_string(id) + "-1");
    EXPECT_EQ(kp.public_key().to_hex(), expected[id]) << "controller " << id;
  }
}

TEST(KnownAnswer, BaseMultiples) {
  U256 n_minus_1;
  U256::sub_with_borrow(ec::group_order(), U256{1}, n_minus_1);
  struct Vector {
    U256 k;
    const char* x;
    const char* y;
  };
  const Vector vectors[] = {
      {U256{1}, "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
       "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"},
      {U256{2}, "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
       "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"},
      {U256{3}, "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
       "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"},
      {U256{7}, "5cbdf0646e5db4eaa398f365f2ea7a0e3d419b7e0330e39ce92bddedcac4f9bc",
       "6aebca40ba255960a3178d6d861a54dba813d0b813fde7b5a5082628087264da"},
      {U256{0, 0, 1, 0}, "8f68b9d2f63b5f339239c1ad981f162ee88c5678723ea3351b7b444c9ec4c0da",
       "662a9f2dba063986de1d90c2b6be215dbbea2cfe95510bfdf23cbf79501fff82"},
      {n_minus_1, "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
       "b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777"},
  };
  for (const Vector& v : vectors) {
    const ec::AffinePoint p = ec::scalar_mul_base(v.k).to_affine();
    EXPECT_EQ(p.x.to_hex(), v.x) << "k = " << v.k.to_hex();
    EXPECT_EQ(p.y.to_hex(), v.y) << "k = " << v.k.to_hex();
    EXPECT_EQ(KeyPair::from_private(v.k).public_key().point, p) << "k = " << v.k.to_hex();
  }
}

TEST(KnownAnswer, Signatures) {
  struct Vector {
    const char* seed;
    const char* message;
    const char* sig;
  };
  const Vector vectors[] = {
      {"signer", "msg",
       "7e9a25dd11d5a677cd04a24ec792b0c7f0d4d5af59349f3b6060716f55002b5e"
       "6c4974797d43b6c944ced3220d545b27e6ef03f70103a0040b54c93588072b43"},
      {"alice", "a flow-table update transaction",
       "96a959c1992cf05f007660e0deb5c4391179bfc84083c7d9b22e813be9d2a206"
       "728b4aa5e1f005b21ea2309faca05cc00c6f75260d5ad04af2a523e564243962"},
      {"bob", "",
       "374afa0e4ec782126cbf984b70d0847cdac8f701c0ad6fc407afc2d28338e5d2"
       "3a55a9ed2da9f0aab5cd1a9f32bd924b96635cc3afb8af592f0795eb004a9f39"},
      {"curb-controller-0-1", "reassign",
       "26a7d96f55071dc66ac935c46e026e13c93836a199765c25d8634e33c01ebe83"
       "4797af94f342d9ed67d61e94813d0dc1d3bd04de02622f388f972b8ab018fe68"},
      {"curb-controller-15-1", "x",
       "d447cb432415e7e97e3b3e15373afea30e1461e184c4240dfc97082ef36f4a3a"
       "92ad5cfa70b35c62dcf0d144f791090b889eb933efede3b77ecdf9828637e6f9"},
      {"bench", "message",
       "27abab92c08ad27b49fe2a40e65f1a7d1beaff30eba681560c359db504513960"
       "6905c5989feff7c0e5cee3cb840e6e1981dab6acd26a2e35d8f4c3a58530c4d6"},
      {"kat-7", "kat",
       "1994b0763c38c841ba6c2b89268f09c3309355f2e5e7c4846ae1351f88285165"
       "7f7a7f1cf1b9da359025c8c76c606b9f0f825f194e84d45b206c4a82929c134e"},
      {"kat-8", "the quick brown fox",
       "23076676cf31eb208515827a0d563079fdb3b22d87d6a17f02699da62f47546e"
       "17f28868a8e21ca77ca1c8ac0cadddefe06236280e653bbfe0dd1daa5fdbc870"},
      {"id", "abc",
       "3d3bdaf58b1a8a3701c3fc7ad268d7cb06048fcd3c4f1dfae024060b9ff32a21"
       "3bb8a5734d0cb542ed21ef1b2cc9ae2a9273030696a9972e2f56312ac90a754b"},
  };
  for (const Vector& v : vectors) {
    const KeyPair kp = KeyPair::from_seed(v.seed);
    const Hash256 digest = Sha256::digest(v.message);
    const Signature sig = kp.sign(digest);
    const auto bytes = sig.to_bytes();
    EXPECT_EQ(to_hex(std::span<const std::uint8_t>{bytes}), v.sig) << v.seed;
    EXPECT_TRUE(verify(kp.public_key(), digest, sig)) << v.seed;
  }
}

}  // namespace
}  // namespace curb::crypto
