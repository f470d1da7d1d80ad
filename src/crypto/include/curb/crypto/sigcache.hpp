#pragma once

#include <cstddef>
#include <cstdint>

#include "curb/crypto/secp256k1.hpp"
#include "curb/crypto/sha256.hpp"

namespace curb::crypto {

/// Counters exported through obs metrics (see CurbNetwork runtime gauges).
struct SigCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t evictions = 0;
};

/// Process-wide digest-keyed signature-verification cache.
///
/// ECDSA verification is pure: the verdict for a (pubkey, digest, signature)
/// tuple never changes, so every one of the 3f+1 replicas re-verifying the
/// same transaction can share one scalar multiplication. The cache key is
/// SHA-256 over the tuple's canonical encoding (33 + 32 + 64 bytes), so a
/// corrupt-fault payload — whose digest necessarily differs — can never
/// collide with a pristine entry's verdict. Negative verdicts are cached
/// too: a byzantine replica replaying a bad signature pays full price once.
///
/// Determinism: a cache hit returns exactly what re-verification would, so
/// simulation behaviour is identical with the cache on or off; only host
/// time changes. Eviction is a deterministic wholesale clear at capacity —
/// no recency state, no host-order dependence.
class SigCache {
 public:
  /// The process-wide instance used by verify_cached().
  [[nodiscard]] static SigCache& instance();

  /// Like crypto::verify, but consults the cache first. Thread-safe.
  [[nodiscard]] bool verify(const PublicKey& pub, const Hash256& digest,
                            const Signature& sig);

  [[nodiscard]] SigCacheStats stats() const;

  /// Drop every entry (counters keep accumulating; entries goes to zero).
  void clear();

  /// Toggle at runtime (tests and perfbench; on by default). Disabled means
  /// every call falls through to crypto::verify.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Entry limit before the wholesale clear-on-full eviction (min 1).
  void set_capacity(std::size_t max_entries);

 private:
  SigCache();

  struct Impl;
  Impl* impl_;  // leaked intentionally: process-lifetime singleton state
};

/// Drop-in replacement for crypto::verify that goes through the
/// process-wide cache.
[[nodiscard]] bool verify_cached(const PublicKey& pub, const Hash256& digest,
                                 const Signature& sig);

}  // namespace curb::crypto
