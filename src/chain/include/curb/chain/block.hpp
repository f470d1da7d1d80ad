#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "curb/chain/transaction.hpp"
#include "curb/crypto/merkle.hpp"
#include "curb/crypto/sha256.hpp"

namespace curb::chain {

/// Block header: links the chain and commits to the body via a Merkle root.
struct BlockHeader {
  std::uint64_t height = 0;
  crypto::Hash256 prev_hash{};
  crypto::Hash256 merkle_root{};
  /// Virtual time of proposal (microseconds since simulation start).
  std::uint64_t timestamp_us = 0;
  /// Final-committee leader that proposed the block.
  std::uint32_t proposer_id = 0;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static BlockHeader deserialize(std::span<const std::uint8_t> bytes);
  [[nodiscard]] crypto::Hash256 hash() const;

  bool operator==(const BlockHeader&) const = default;
};

/// A block: header + ordered transactions. The body's Merkle root must match
/// the header; `well_formed()` checks exactly that plus per-tx sanity.
class Block {
 public:
  Block() = default;

  /// Build a block over `txs` (computes the Merkle root).
  [[nodiscard]] static Block create(std::uint64_t height, const crypto::Hash256& prev_hash,
                                    std::vector<Transaction> txs, std::uint64_t timestamp_us,
                                    std::uint32_t proposer_id);

  [[nodiscard]] const BlockHeader& header() const { return header_; }
  [[nodiscard]] const std::vector<Transaction>& transactions() const { return txs_; }
  [[nodiscard]] crypto::Hash256 hash() const { return header_.hash(); }

  /// Merkle root over transaction ids in order.
  [[nodiscard]] static crypto::Hash256 merkle_root_of(const std::vector<Transaction>& txs);
  /// Inclusion proof for the transaction at `index` — a light verifier can
  /// check a flow rule against just the block header (the paper's
  /// verifiability property). Throws std::out_of_range.
  [[nodiscard]] crypto::MerkleTree::Proof merkle_proof(std::size_t index) const;
  /// Verify that `tx` is committed by a block header.
  [[nodiscard]] static bool verify_inclusion(const Transaction& tx,
                                             const crypto::MerkleTree::Proof& proof,
                                             const BlockHeader& header);
  /// Header/body consistency (Merkle root matches the transactions).
  [[nodiscard]] bool well_formed() const;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static Block deserialize(std::span<const std::uint8_t> bytes);
  /// Only the header of a serialized block, without decoding the body:
  /// enough to recognise a block already seen. Throws std::out_of_range on a
  /// truncated header, as deserialize() does.
  [[nodiscard]] static BlockHeader deserialize_header(std::span<const std::uint8_t> bytes);

  bool operator==(const Block&) const = default;

 private:
  BlockHeader header_;
  std::vector<Transaction> txs_;
};

}  // namespace curb::chain
