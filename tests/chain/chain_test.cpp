#include "curb/chain/blockchain.hpp"

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <vector>

#include "curb/chain/block.hpp"
#include "curb/chain/transaction.hpp"
#include "curb/crypto/secp256k1.hpp"

namespace curb::chain {
namespace {

Transaction make_tx(std::uint64_t request_id,
                    RequestType type = RequestType::kPacketIn) {
  return Transaction{type, 3, 7, request_id, {0xaa, 0xbb}};
}

Block make_genesis() { return Block::create(0, crypto::Hash256{}, {}, 0, 0); }

TEST(Transaction, SerializeRoundTripUnsigned) {
  const Transaction tx = make_tx(42, RequestType::kReassign);
  const auto bytes = tx.serialize();
  EXPECT_EQ(Transaction::deserialize(bytes), tx);
}

TEST(Transaction, SerializeRoundTripSigned) {
  Transaction tx = make_tx(42);
  const auto key = crypto::KeyPair::from_seed("leader");
  tx.sign(key);
  const auto bytes = tx.serialize();
  const Transaction restored = Transaction::deserialize(bytes);
  EXPECT_EQ(restored, tx);
  EXPECT_TRUE(restored.verify(key.public_key()));
}

TEST(Transaction, IdStableUnderSigning) {
  Transaction tx = make_tx(1);
  const auto id_before = tx.id();
  tx.sign(crypto::KeyPair::from_seed("leader"));
  EXPECT_EQ(tx.id(), id_before);
}

TEST(Transaction, IdDiffersByContent) {
  EXPECT_NE(make_tx(1).id(), make_tx(2).id());
  EXPECT_NE(make_tx(1, RequestType::kPacketIn).id(), make_tx(1, RequestType::kReassign).id());
}

TEST(Transaction, DecodedIdHashesTheSigningBytes) {
  // A decoded transaction takes its id from the wire prefix it was read
  // from, which must be exactly its signing bytes: signed or not, and for
  // any config size.
  const auto key = crypto::KeyPair::from_seed("leader");
  std::vector<std::uint8_t> kib(1024);
  for (std::size_t i = 0; i < kib.size(); ++i) kib[i] = static_cast<std::uint8_t>(i * 31 + 7);
  Transaction signed_tx = make_tx(2);
  signed_tx.sign(key);
  const std::vector<Transaction> cases{
      make_tx(1),
      signed_tx,
      Transaction{RequestType::kPolicyUpdate, 0xffffffff, 4, 3, {}},
      Transaction{RequestType::kReassign, 5, 6, 4, kib},
  };
  for (const Transaction& tx : cases) {
    const Transaction decoded = Transaction::deserialize(tx.serialize());
    const auto signing = decoded.signing_bytes();
    EXPECT_EQ(decoded.id(), crypto::Sha256::digest(std::span<const std::uint8_t>{signing}))
        << "request " << tx.request_id();
    EXPECT_EQ(decoded.id(), tx.id()) << "request " << tx.request_id();
  }
}

TEST(Transaction, DecodedIdCoversEveryConfigByte) {
  const Transaction tx{RequestType::kPacketIn, 3, 7, 1, {0x10, 0x20, 0x30, 0x40}};
  auto bytes = tx.serialize();
  const std::size_t last_config_byte = 1 + 4 + 4 + 8 + 4 + 3;
  ASSERT_EQ(bytes[last_config_byte], 0x40);
  bytes[last_config_byte] ^= 0x01;
  const Transaction flipped = Transaction::deserialize(bytes);
  EXPECT_EQ(flipped.config().back(), 0x41);
  EXPECT_NE(flipped.id(), tx.id());
  const auto signing = flipped.signing_bytes();
  EXPECT_EQ(flipped.id(), crypto::Sha256::digest(std::span<const std::uint8_t>{signing}));
}

TEST(Transaction, VerifyFailsWrongKeyOrUnsigned) {
  Transaction tx = make_tx(9);
  EXPECT_FALSE(tx.verify(crypto::KeyPair::from_seed("any").public_key()));
  tx.sign(crypto::KeyPair::from_seed("alice"));
  EXPECT_FALSE(tx.verify(crypto::KeyPair::from_seed("bob").public_key()));
  EXPECT_TRUE(tx.verify(crypto::KeyPair::from_seed("alice").public_key()));
}

TEST(Transaction, DeserializeRejectsGarbage) {
  const std::vector<std::uint8_t> garbage{0x09, 0x01};
  EXPECT_THROW((void)Transaction::deserialize(garbage), std::invalid_argument);
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW((void)Transaction::deserialize(empty), std::out_of_range);
}

TEST(Block, CreateComputesMerkleRoot) {
  const Block b = Block::create(1, crypto::Hash256{}, {make_tx(1), make_tx(2)}, 123, 5);
  EXPECT_TRUE(b.well_formed());
  EXPECT_EQ(b.header().height, 1u);
  EXPECT_EQ(b.header().timestamp_us, 123u);
  EXPECT_EQ(b.header().proposer_id, 5u);
  EXPECT_EQ(b.transactions().size(), 2u);
}

TEST(Block, SerializeRoundTrip) {
  Transaction signed_tx = make_tx(7);
  signed_tx.sign(crypto::KeyPair::from_seed("k"));
  const Block b = Block::create(3, crypto::Sha256::digest("prev"),
                                {make_tx(1), signed_tx}, 999, 2);
  const auto bytes = b.serialize();
  EXPECT_EQ(Block::deserialize(bytes), b);
}

TEST(Block, HashChangesWithAnyHeaderField) {
  const Block base = Block::create(1, crypto::Hash256{}, {make_tx(1)}, 10, 0);
  EXPECT_NE(Block::create(2, crypto::Hash256{}, {make_tx(1)}, 10, 0).hash(), base.hash());
  EXPECT_NE(Block::create(1, crypto::Sha256::digest("x"), {make_tx(1)}, 10, 0).hash(),
            base.hash());
  EXPECT_NE(Block::create(1, crypto::Hash256{}, {make_tx(2)}, 10, 0).hash(), base.hash());
  EXPECT_NE(Block::create(1, crypto::Hash256{}, {make_tx(1)}, 11, 0).hash(), base.hash());
  EXPECT_NE(Block::create(1, crypto::Hash256{}, {make_tx(1)}, 10, 1).hash(), base.hash());
}

TEST(Block, EmptyBlockIsWellFormed) {
  EXPECT_TRUE(Block::create(1, crypto::Hash256{}, {}, 0, 0).well_formed());
}

TEST(Blockchain, StartsAtGenesis) {
  const Blockchain chain{make_genesis()};
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain.tip().hash(), chain.genesis().hash());
}

TEST(Blockchain, RejectsNonZeroGenesis) {
  EXPECT_THROW(Blockchain{Block::create(1, crypto::Hash256{}, {}, 0, 0)},
               std::invalid_argument);
}

TEST(Blockchain, AppendsLinkedBlocks) {
  Blockchain chain{make_genesis()};
  const Block b1 = Block::create(1, chain.tip().hash(), {make_tx(1)}, 10, 0);
  EXPECT_EQ(chain.append(b1), std::nullopt);
  const Block b2 = Block::create(2, chain.tip().hash(), {make_tx(2)}, 20, 1);
  EXPECT_EQ(chain.append(b2), std::nullopt);
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.at(1).hash(), b1.hash());
  EXPECT_EQ(chain.total_transactions(), 2u);
}

TEST(Blockchain, RejectsWrongHeight) {
  Blockchain chain{make_genesis()};
  const Block skip = Block::create(2, chain.tip().hash(), {}, 0, 0);
  EXPECT_EQ(chain.append(skip), AppendError::kWrongHeight);
}

TEST(Blockchain, RejectsWrongPrevHash) {
  Blockchain chain{make_genesis()};
  const Block bad = Block::create(1, crypto::Sha256::digest("not-the-tip"), {}, 0, 0);
  EXPECT_EQ(chain.append(bad), AppendError::kWrongPrevHash);
}

TEST(Blockchain, RejectsTamperedBody) {
  Blockchain chain{make_genesis()};
  const Block b = Block::create(1, chain.tip().hash(), {make_tx(1)}, 0, 0);
  // Tamper with the transaction payload inside the wire bytes: the config
  // bytes {0xaa, 0xbb} appear verbatim in the stream.
  auto bytes = b.serialize();
  bool flipped = false;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == 0xaa && bytes[i + 1] == 0xbb) {
      bytes[i] = 0xac;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  const Block tampered = Block::deserialize(bytes);
  EXPECT_FALSE(tampered.well_formed());
  EXPECT_EQ(chain.append(tampered), AppendError::kBadMerkleRoot);
}

TEST(Blockchain, RejectsDuplicateTransactionAcrossBlocks) {
  Blockchain chain{make_genesis()};
  const Transaction tx = make_tx(1);
  EXPECT_EQ(chain.append(Block::create(1, chain.tip().hash(), {tx}, 0, 0)), std::nullopt);
  EXPECT_EQ(chain.append(Block::create(2, chain.tip().hash(), {tx}, 0, 0)),
            AppendError::kDuplicateTransaction);
}

TEST(Blockchain, DuplicateLeavesNoIndexEntryOfTheRejectedBlock) {
  // A duplicate rejects the whole block, whether it repeats a transaction of
  // the chain or of the block itself, and the index keeps none of the
  // rejected block's transactions.
  Blockchain chain{make_genesis()};
  const Transaction tx1 = make_tx(1);
  const Transaction tx2 = make_tx(2);
  const Transaction tx3 = make_tx(3);
  EXPECT_EQ(chain.append(Block::create(1, chain.tip().hash(), {tx1, tx2, tx1}, 0, 0)),
            AppendError::kDuplicateTransaction);
  EXPECT_EQ(chain.total_transactions(), 0u);
  EXPECT_FALSE(chain.contains_transaction(tx2.id()));
  EXPECT_EQ(chain.append(Block::create(1, chain.tip().hash(), {tx1, tx2}, 0, 0)), std::nullopt);
  EXPECT_EQ(chain.append(Block::create(2, chain.tip().hash(), {tx3, tx2}, 0, 0)),
            AppendError::kDuplicateTransaction);
  EXPECT_EQ(chain.total_transactions(), 2u);
  EXPECT_FALSE(chain.contains_transaction(tx3.id()));
  EXPECT_EQ(chain.find_transaction(tx2.id()), 1u);
}

TEST(Blockchain, TransactionIndexLookup) {
  Blockchain chain{make_genesis()};
  const Transaction tx1 = make_tx(1);
  const Transaction tx2 = make_tx(2);
  (void)chain.append(Block::create(1, chain.tip().hash(), {tx1}, 0, 0));
  (void)chain.append(Block::create(2, chain.tip().hash(), {tx2}, 0, 0));
  EXPECT_TRUE(chain.contains_transaction(tx1.id()));
  EXPECT_EQ(chain.find_transaction(tx2.id()), 2u);
  EXPECT_FALSE(chain.contains_transaction(make_tx(3).id()));
  EXPECT_EQ(chain.find_transaction(make_tx(3).id()), std::nullopt);
}

TEST(Blockchain, SameViewComparison) {
  Blockchain a{make_genesis()};
  Blockchain b{make_genesis()};
  EXPECT_TRUE(a.same_view_as(b));
  (void)a.append(Block::create(1, a.tip().hash(), {make_tx(1)}, 0, 0));
  EXPECT_FALSE(a.same_view_as(b));
  (void)b.append(Block::create(1, b.tip().hash(), {make_tx(1)}, 0, 0));
  EXPECT_TRUE(a.same_view_as(b));
}

TEST(Block, MerkleInclusionProof) {
  const Block b = Block::create(1, crypto::Hash256{},
                                {make_tx(1), make_tx(2), make_tx(3)}, 0, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto proof = b.merkle_proof(i);
    EXPECT_TRUE(Block::verify_inclusion(b.transactions()[i], proof, b.header()));
  }
  // A proof for one tx does not validate another.
  EXPECT_FALSE(Block::verify_inclusion(b.transactions()[1], b.merkle_proof(0), b.header()));
  // Nor does it validate against a different header.
  const Block other = Block::create(1, crypto::Hash256{}, {make_tx(9)}, 0, 0);
  EXPECT_FALSE(
      Block::verify_inclusion(b.transactions()[0], b.merkle_proof(0), other.header()));
  EXPECT_THROW((void)b.merkle_proof(3), std::out_of_range);
}

TEST(Blockchain, SaveLoadRoundTrip) {
  Blockchain chain{make_genesis()};
  (void)chain.append(Block::create(1, chain.tip().hash(), {make_tx(1)}, 10, 0));
  (void)chain.append(Block::create(2, chain.tip().hash(), {make_tx(2), make_tx(3)}, 20, 1));

  std::stringstream stream;
  chain.save(stream);
  const Blockchain restored = Blockchain::load(stream);
  EXPECT_TRUE(restored.same_view_as(chain));
  EXPECT_EQ(restored.height(), 2u);
  EXPECT_EQ(restored.total_transactions(), 3u);
  EXPECT_TRUE(restored.contains_transaction(make_tx(3).id()));
}

TEST(Blockchain, LoadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW((void)Blockchain::load(empty), std::runtime_error);
  std::stringstream bad_magic{"XXXXXXXXXXXXXXXX"};
  EXPECT_THROW((void)Blockchain::load(bad_magic), std::runtime_error);
}

TEST(Blockchain, LoadRejectsTamperedStream) {
  Blockchain chain{make_genesis()};
  (void)chain.append(Block::create(1, chain.tip().hash(), {make_tx(1)}, 10, 0));
  std::stringstream stream;
  chain.save(stream);
  std::string bytes = stream.str();
  // Flip a byte inside the tx payload region (the 0xaa marker).
  const auto pos = bytes.find('\xaa');
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = '\x13';
  std::stringstream tampered{bytes};
  EXPECT_THROW((void)Blockchain::load(tampered), std::runtime_error);
}

TEST(Blockchain, AtOutOfRangeThrows) {
  const Blockchain chain{make_genesis()};
  EXPECT_THROW((void)chain.at(5), std::out_of_range);
}

}  // namespace
}  // namespace curb::chain
