#include "curb/chain/blockchain.hpp"

#include <stdexcept>
#include <utility>

#include "curb/chain/serial.hpp"
#include "curb/prof/profiler.hpp"

namespace curb::chain {

Blockchain::Blockchain(std::shared_ptr<const Block> genesis) {
  if (genesis->header().height != 0) {
    throw std::invalid_argument{"Blockchain: genesis must have height 0"};
  }
  if (!genesis->well_formed()) {
    throw std::invalid_argument{"Blockchain: genesis merkle root mismatch"};
  }
  for (const Transaction& tx : genesis->transactions()) tx_index_[tx.id()] = 0;
  blocks_.push_back(std::move(genesis));
}

std::optional<AppendError> Blockchain::append(std::shared_ptr<const Block> shared) {
  const prof::Scope scope{"chain.append"};
  const auto reject = [this](AppendError err) {
    if (obs_ != nullptr) {
      obs_->metrics
          .counter("chain.rejected", {{"owner", owner_}, {"reason", to_string(err)}})
          .inc();
    }
    return err;
  };
  const Block& block = *shared;
  if (block.header().height != height() + 1) return reject(AppendError::kWrongHeight);
  if (block.header().prev_hash != tip().hash()) return reject(AppendError::kWrongPrevHash);
  if (!block.well_formed()) return reject(AppendError::kBadMerkleRoot);
  // One index probe per transaction: insert, and on a duplicate (in the chain
  // or earlier in this block) take this block's entries out again.
  const std::vector<Transaction>& txs = block.transactions();
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (tx_index_.try_emplace(txs[i].id(), block.header().height).second) continue;
    for (std::size_t j = 0; j < i; ++j) tx_index_.erase(txs[j].id());
    return reject(AppendError::kDuplicateTransaction);
  }
  if (obs_ != nullptr) {
    blocks_appended_->inc();
    height_gauge_->set(static_cast<double>(block.header().height));
    txs_per_block_->record(static_cast<double>(block.transactions().size()));
    block_interval_us_->record(static_cast<double>(block.header().timestamp_us -
                                                   tip().header().timestamp_us));
  }
  blocks_.push_back(std::move(shared));
  return std::nullopt;
}

void Blockchain::set_observatory(obs::Observatory* obs, std::string owner) {
  obs_ = obs;
  owner_ = std::move(owner);
  if (obs_ == nullptr) {
    blocks_appended_ = nullptr;
    height_gauge_ = nullptr;
    txs_per_block_ = nullptr;
    block_interval_us_ = nullptr;
    return;
  }
  auto& registry = obs_->metrics;
  const obs::Labels labels{{"owner", owner_}};
  blocks_appended_ = &registry.counter("chain.blocks_appended", labels);
  height_gauge_ = &registry.gauge("chain.height", labels);
  txs_per_block_ = &registry.histogram("chain.txs_per_block", labels);
  block_interval_us_ = &registry.histogram("chain.block_interval_us", labels);
  height_gauge_->set(static_cast<double>(height()));
}

const std::shared_ptr<const Block>& Blockchain::shared_at(std::uint64_t h) const {
  if (h >= blocks_.size()) throw std::out_of_range{"Blockchain: height out of range"};
  return blocks_[h];
}

bool Blockchain::contains_transaction(const crypto::Hash256& tx_id) const {
  return tx_index_.contains(tx_id);
}

std::optional<std::uint64_t> Blockchain::find_transaction(const crypto::Hash256& tx_id) const {
  const auto it = tx_index_.find(tx_id);
  if (it == tx_index_.end()) return std::nullopt;
  return it->second;
}

void Blockchain::save(std::ostream& out) const {
  ByteWriter header;
  header.u32(0x43555242);  // "CURB"
  header.u32(static_cast<std::uint32_t>(blocks_.size()));
  const auto& hb = header.data();
  out.write(reinterpret_cast<const char*>(hb.data()),
            static_cast<std::streamsize>(hb.size()));
  for (const auto& block : blocks_) {
    ByteWriter w;
    w.bytes(block->serialize());
    const auto& bytes = w.data();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  if (!out) throw std::runtime_error{"Blockchain::save: stream failure"};
}

Blockchain Blockchain::load(std::istream& in) {
  auto read_u32 = [&in]() -> std::uint32_t {
    std::uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    if (!in) throw std::runtime_error{"Blockchain::load: truncated stream"};
    return v;
  };
  if (read_u32() != 0x43555242) {
    throw std::runtime_error{"Blockchain::load: bad magic"};
  }
  const std::uint32_t count = read_u32();
  if (count == 0) throw std::runtime_error{"Blockchain::load: empty chain"};

  auto read_block = [&]() {
    const std::uint32_t len = read_u32();
    constexpr std::uint32_t kMaxBlockBytes = 1u << 28;  // 256 MiB sanity cap
    if (len > kMaxBlockBytes) {
      throw std::runtime_error{"Blockchain::load: implausible block size"};
    }
    std::vector<std::uint8_t> bytes(len);
    in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(len));
    if (!in) throw std::runtime_error{"Blockchain::load: truncated block"};
    return Block::deserialize(bytes);
  };

  Blockchain chain{read_block()};
  for (std::uint32_t i = 1; i < count; ++i) {
    if (const auto err = chain.append(read_block())) {
      throw std::runtime_error{std::string{"Blockchain::load: invalid block: "} +
                               to_string(*err)};
    }
  }
  return chain;
}

}  // namespace curb::chain
