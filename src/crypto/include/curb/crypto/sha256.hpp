#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace curb::crypto {

/// 32-byte digest value with hashing/ordering support so it can key maps.
using Hash256 = std::array<std::uint8_t, 32>;

/// Hasher for unordered containers keyed by a SHA-256 output. The first
/// eight bytes of a digest are as uniform as a hash function gets, so they
/// are the bucket hash with no further mixing. Only for keys that are
/// digests: a structured 32-byte value would cluster.
struct DigestHash {
  std::size_t operator()(const Hash256& digest) const noexcept {
    std::uint64_t h = 0;
    std::memcpy(&h, digest.data(), sizeof(h));
    return static_cast<std::size_t>(h);
  }
};

namespace detail {

/// The eight 32-bit SHA-256 chaining words, a..h.
using Sha256State = std::array<std::uint32_t, 8>;

/// FIPS 180-4 compression of `blocks` consecutive 64-byte blocks into
/// `state`, in portable C++. It is the path on every CPU without the SHA
/// extensions and the reference the SHA-NI path is tested against.
void compress_portable(Sha256State& state, const std::uint8_t* data, std::size_t blocks);

/// The same compression on the x86 SHA extensions. Call it only when
/// sha_ni_available() is true; on other targets it throws std::logic_error.
void compress_sha_ni(Sha256State& state, const std::uint8_t* data, std::size_t blocks);

/// Whether CPUID reports SHA (leaf 7 EBX bit 29), SSSE3 and SSE4.1. Sha256
/// compresses through compress_sha_ni exactly when this is true; the choice
/// is made once per process.
[[nodiscard]] bool sha_ni_available();

}  // namespace detail

/// Incremental SHA-256 (FIPS 180-4). Implemented from scratch: the paper's
/// stack used pure-Python hashing; we provide the equivalent primitive for
/// block hashes, transaction ids, Merkle trees, and ECDSA message digests.
/// Compression runs on the CPU's SHA extensions where CPUID reports them and
/// on the portable code everywhere else; both give the same digests.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view data);
  /// Finalizes and returns the digest; the object must be reset() before reuse.
  [[nodiscard]] Hash256 finish();

  [[nodiscard]] static Hash256 digest(std::span<const std::uint8_t> data);
  [[nodiscard]] static Hash256 digest(std::string_view data);
  /// SHA-256d (double hash), the flavour used for block ids in many chains.
  [[nodiscard]] static Hash256 double_digest(std::span<const std::uint8_t> data);

 private:
  detail::Sha256State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Lowercase hex encoding of arbitrary bytes.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> bytes);
[[nodiscard]] std::string to_hex(const Hash256& h);
/// Strict decoder: throws std::invalid_argument on odd length or non-hex.
[[nodiscard]] std::vector<std::uint8_t> from_hex(std::string_view hex);

/// Short printable prefix of a hash (for logs and traces).
[[nodiscard]] std::string short_hex(const Hash256& h, std::size_t bytes = 4);

}  // namespace curb::crypto
