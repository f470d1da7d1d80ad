#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "curb/crypto/secp256k1.hpp"
#include "curb/crypto/sha256.hpp"

namespace curb::chain {

/// The request kinds the Curb control plane serves: PKT-IN asks for new
/// flow entries, RE-ASS asks for controller reassignment (paper Table I);
/// POLICY carries a northbound policy update from an application service
/// (paper Section III-B, northbound API).
enum class RequestType : std::uint8_t { kPacketIn = 0, kReassign = 1, kPolicyUpdate = 2 };

[[nodiscard]] constexpr std::string_view to_string(RequestType t) {
  switch (t) {
    case RequestType::kPacketIn: return "PKT-IN";
    case RequestType::kReassign: return "RE-ASS";
    case RequestType::kPolicyUpdate: return "POLICY";
  }
  return "?";
}

/// A Curb transaction: the tuple <TX, reqMsg, s, c, config> from Algorithm 2.
/// `config` carries the computed configuration (serialized flow entries for
/// PKT-IN, a serialized assignment for RE-ASS) and is opaque at this layer.
class Transaction {
 public:
  Transaction() = default;
  Transaction(RequestType type, std::uint32_t switch_id, std::uint32_t controller_id,
              std::uint64_t request_id, std::vector<std::uint8_t> config)
      : type_{type},
        switch_id_{switch_id},
        controller_id_{controller_id},
        request_id_{request_id},
        config_{std::move(config)} {}

  [[nodiscard]] RequestType type() const { return type_; }
  [[nodiscard]] std::uint32_t switch_id() const { return switch_id_; }
  [[nodiscard]] std::uint32_t controller_id() const { return controller_id_; }
  [[nodiscard]] std::uint64_t request_id() const { return request_id_; }
  [[nodiscard]] const std::vector<std::uint8_t>& config() const { return config_; }
  [[nodiscard]] const std::optional<crypto::Signature>& signature() const {
    return signature_;
  }

  /// Canonical bytes WITHOUT the signature — this is what gets signed.
  [[nodiscard]] std::vector<std::uint8_t> signing_bytes() const;
  /// Full wire encoding (signature included when present).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static Transaction deserialize(std::span<const std::uint8_t> bytes);

  /// Transaction id: SHA-256 over the signing bytes (stable under
  /// re-signing). Computed once and memoized — every field feeding the id is
  /// fixed at construction/deserialization, so the cache never goes stale. A
  /// decoded transaction hashes the wire prefix it was read from, which is
  /// its signing bytes, so it never re-encodes itself.
  [[nodiscard]] const crypto::Hash256& id() const;

  /// Sign with the handling leader's key / verify against its public key.
  /// Verification goes through the process-wide signature cache, so the
  /// 3f+1 replicas checking the same transaction pay for ECDSA once.
  void sign(const crypto::KeyPair& key);
  [[nodiscard]] bool verify(const crypto::PublicKey& key) const;

  bool operator==(const Transaction& other) const {
    return type_ == other.type_ && switch_id_ == other.switch_id_ &&
           controller_id_ == other.controller_id_ &&
           request_id_ == other.request_id_ && config_ == other.config_ &&
           signature_ == other.signature_;
  }

 private:
  RequestType type_ = RequestType::kPacketIn;
  std::uint32_t switch_id_ = 0;
  std::uint32_t controller_id_ = 0;
  std::uint64_t request_id_ = 0;
  std::vector<std::uint8_t> config_;
  std::optional<crypto::Signature> signature_;
  mutable std::optional<crypto::Hash256> id_memo_;  // excluded from operator==
};

}  // namespace curb::chain
