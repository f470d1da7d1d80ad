#include "curb/chain/transaction.hpp"

#include "curb/chain/serial.hpp"
#include "curb/crypto/sigcache.hpp"

namespace curb::chain {

namespace {
/// Wire bytes ahead of the config: type, switch, controller, request id and
/// the config's length prefix.
constexpr std::size_t kFixedFieldBytes = 1 + 4 + 4 + 8 + 4;
}  // namespace

std::vector<std::uint8_t> Transaction::signing_bytes() const {
  ByteWriter w;
  w.reserve(kFixedFieldBytes + config_.size());
  w.u8(static_cast<std::uint8_t>(type_));
  w.u32(switch_id_);
  w.u32(controller_id_);
  w.u64(request_id_);
  w.bytes(config_);
  return w.take();
}

std::vector<std::uint8_t> Transaction::serialize() const {
  ByteWriter w;
  w.reserve(kFixedFieldBytes + config_.size() + 1 + (signature_ ? 64 : 0));
  w.u8(static_cast<std::uint8_t>(type_));
  w.u32(switch_id_);
  w.u32(controller_id_);
  w.u64(request_id_);
  w.bytes(config_);
  w.u8(signature_.has_value() ? 1 : 0);
  if (signature_) w.fixed(signature_->to_bytes());
  return w.take();
}

Transaction Transaction::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  Transaction tx;
  const std::uint8_t raw_type = r.u8();
  if (raw_type > static_cast<std::uint8_t>(RequestType::kPolicyUpdate)) {
    throw std::invalid_argument{"Transaction: unknown request type"};
  }
  tx.type_ = static_cast<RequestType>(raw_type);
  tx.switch_id_ = r.u32();
  tx.controller_id_ = r.u32();
  tx.request_id_ = r.u64();
  tx.config_ = r.bytes();
  // The signing bytes are exactly the prefix read so far, so the id is hashed
  // from the wire instead of from a re-encoding.
  tx.id_memo_ = crypto::Sha256::digest(bytes.first(bytes.size() - r.remaining()));
  if (r.u8() != 0) {
    const auto sig_bytes = r.fixed<64>();
    tx.signature_ = crypto::Signature::from_bytes(
        std::span<const std::uint8_t, 64>{sig_bytes});
  }
  return tx;
}

const crypto::Hash256& Transaction::id() const {
  if (!id_memo_) {
    const auto bytes = signing_bytes();
    id_memo_ = crypto::Sha256::digest(std::span<const std::uint8_t>{bytes});
  }
  return *id_memo_;
}

void Transaction::sign(const crypto::KeyPair& key) { signature_ = key.sign(id()); }

bool Transaction::verify(const crypto::PublicKey& key) const {
  if (!signature_) return false;
  return crypto::verify_cached(key, id(), *signature_);
}

}  // namespace curb::chain
