#include "curb/chain/block.hpp"

#include "curb/chain/serial.hpp"
#include "curb/crypto/merkle.hpp"

namespace curb::chain {

namespace {

/// A serialized block starts with its length-prefixed header.
BlockHeader read_header(ByteReader& r) { return BlockHeader::deserialize(r.bytes()); }

}  // namespace

std::vector<std::uint8_t> BlockHeader::serialize() const {
  ByteWriter w;
  w.u64(height);
  w.fixed(prev_hash);
  w.fixed(merkle_root);
  w.u64(timestamp_us);
  w.u32(proposer_id);
  return w.take();
}

BlockHeader BlockHeader::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  BlockHeader h;
  h.height = r.u64();
  h.prev_hash = r.fixed<32>();
  h.merkle_root = r.fixed<32>();
  h.timestamp_us = r.u64();
  h.proposer_id = r.u32();
  return h;
}

crypto::Hash256 BlockHeader::hash() const {
  const auto bytes = serialize();
  return crypto::Sha256::double_digest(std::span<const std::uint8_t>{bytes});
}

Block Block::create(std::uint64_t height, const crypto::Hash256& prev_hash,
                    std::vector<Transaction> txs, std::uint64_t timestamp_us,
                    std::uint32_t proposer_id) {
  Block b;
  b.header_.height = height;
  b.header_.prev_hash = prev_hash;
  b.header_.merkle_root = merkle_root_of(txs);
  b.header_.timestamp_us = timestamp_us;
  b.header_.proposer_id = proposer_id;
  b.txs_ = std::move(txs);
  return b;
}

crypto::Hash256 Block::merkle_root_of(const std::vector<Transaction>& txs) {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(txs.size());
  for (const Transaction& tx : txs) leaves.push_back(tx.id());
  return crypto::MerkleTree::root_of(leaves);
}

bool Block::well_formed() const { return header_.merkle_root == merkle_root_of(txs_); }

crypto::MerkleTree::Proof Block::merkle_proof(std::size_t index) const {
  if (index >= txs_.size()) throw std::out_of_range{"Block::merkle_proof: bad index"};
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(txs_.size());
  for (const Transaction& tx : txs_) leaves.push_back(tx.id());
  return crypto::MerkleTree{std::move(leaves)}.prove(index);
}

bool Block::verify_inclusion(const Transaction& tx, const crypto::MerkleTree::Proof& proof,
                             const BlockHeader& header) {
  return crypto::MerkleTree::verify(tx.id(), proof, header.merkle_root);
}

std::vector<std::uint8_t> Block::serialize() const {
  ByteWriter w;
  const auto header_bytes = header_.serialize();
  w.bytes(header_bytes);
  w.u32(static_cast<std::uint32_t>(txs_.size()));
  for (const Transaction& tx : txs_) w.bytes(tx.serialize());
  return w.take();
}

Block Block::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  Block b;
  b.header_ = read_header(r);
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 4) throw std::invalid_argument{"block tx count too large"};
  b.txs_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto tx_bytes = r.bytes();
    b.txs_.push_back(Transaction::deserialize(tx_bytes));
  }
  return b;
}

BlockHeader Block::deserialize_header(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  return read_header(r);
}

}  // namespace curb::chain
