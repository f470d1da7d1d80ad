#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "curb/chain/block.hpp"
#include "curb/crypto/sha256.hpp"
#include "curb/obs/observatory.hpp"

namespace curb::chain {

/// Why a block was rejected by Blockchain::append.
enum class AppendError {
  kWrongHeight,
  kWrongPrevHash,
  kBadMerkleRoot,
  kDuplicateTransaction,
};

[[nodiscard]] constexpr const char* to_string(AppendError e) {
  switch (e) {
    case AppendError::kWrongHeight: return "wrong-height";
    case AppendError::kWrongPrevHash: return "wrong-prev-hash";
    case AppendError::kBadMerkleRoot: return "bad-merkle-root";
    case AppendError::kDuplicateTransaction: return "duplicate-transaction";
  }
  return "?";
}

/// Per-controller blockchain database: an append-only, fully validated chain
/// with a transaction index for duplicate detection and traceability queries
/// ("which block recorded this flow rule?" — the paper's verifiability and
/// traceability properties).
class Blockchain {
 public:
  /// Start from a genesis block (height 0, any prev hash).
  explicit Blockchain(Block genesis);

  /// Validate and append. Returns the error on rejection, nullopt on success.
  std::optional<AppendError> append(const Block& block);

  /// Attach observability (nullptr disables). `owner` labels this chain's
  /// series (one chain per controller). Appends feed block count / chain
  /// height / txs-per-block / inter-block-interval metrics; rejections are
  /// counted by reason.
  void set_observatory(obs::Observatory* obs, std::string owner);

  [[nodiscard]] std::uint64_t height() const { return blocks_.back().header().height; }
  [[nodiscard]] std::size_t size() const { return blocks_.size(); }
  [[nodiscard]] const Block& tip() const { return blocks_.back(); }
  [[nodiscard]] const Block& at(std::uint64_t height) const;
  [[nodiscard]] const Block& genesis() const { return blocks_.front(); }

  /// Whether a transaction id is recorded anywhere in the chain.
  [[nodiscard]] bool contains_transaction(const crypto::Hash256& tx_id) const;
  /// Height of the block containing the transaction, if any.
  [[nodiscard]] std::optional<std::uint64_t> find_transaction(
      const crypto::Hash256& tx_id) const;
  [[nodiscard]] std::size_t total_transactions() const { return tx_index_.size(); }

  /// Two replicas agree iff their tip hashes agree (chains are prefix-closed).
  [[nodiscard]] bool same_view_as(const Blockchain& other) const {
    return tip().hash() == other.tip().hash();
  }

  /// Persist the whole chain ("the blockchain database persistently stores
  /// the chain of blocks"). The stream carries length-prefixed serialized
  /// blocks; load() re-validates every link and throws std::runtime_error
  /// on corruption.
  void save(std::ostream& out) const;
  [[nodiscard]] static Blockchain load(std::istream& in);

 private:
  std::vector<Block> blocks_;
  /// Transaction id -> height. Looked up for every appended transaction and
  /// never iterated, so it is hashed.
  std::unordered_map<crypto::Hash256, std::uint64_t, crypto::DigestHash> tx_index_;

  // Observability (instrument handles cached by set_observatory).
  obs::Observatory* obs_ = nullptr;
  std::string owner_;
  obs::Counter* blocks_appended_ = nullptr;
  obs::Gauge* height_gauge_ = nullptr;
  obs::Histogram* txs_per_block_ = nullptr;
  obs::Histogram* block_interval_us_ = nullptr;
};

}  // namespace curb::chain
