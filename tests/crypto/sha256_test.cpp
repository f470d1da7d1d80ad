#include "curb/crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

namespace curb::crypto {
namespace {

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(to_hex(Sha256::digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(to_hex(Sha256::digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(to_hex(Sha256::digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  const std::string input(1'000'000, 'a');
  EXPECT_EQ(to_hex(Sha256::digest(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // Lengths on either side of the padding boundaries: up to 55 tail bytes
  // leave room for the 0x80 marker and the 8-byte length in one block, 56 to
  // 63 need a second block. The input is byte i = i % 251; the digests are
  // python3's hashlib.sha256 of the same bytes.
  const std::vector<std::pair<std::size_t, std::string>> golden = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
      {57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f"},
      {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"},
      {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
      {120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
      {127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976"},
      {128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"},
  };
  for (const auto& [length, hex] : golden) {
    std::vector<std::uint8_t> data(length);
    for (std::size_t i = 0; i < length; ++i) data[i] = static_cast<std::uint8_t>(i % 251);
    EXPECT_EQ(to_hex(Sha256::digest(std::span<const std::uint8_t>{data})), hex)
        << length << " bytes, one shot";
    Sha256 inc;
    for (const std::uint8_t byte : data) inc.update(std::span<const std::uint8_t>{&byte, 1});
    EXPECT_EQ(to_hex(inc.finish()), hex) << length << " bytes, one at a time";
  }
}

TEST(Sha256, ShaNiCompressionMatchesPortable) {
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPUID reports no SHA extensions";
  std::mt19937_64 rng{20240517};
  for (int trial = 0; trial < 500; ++trial) {
    detail::Sha256State state;
    for (std::uint32_t& word : state) word = static_cast<std::uint32_t>(rng());
    const std::size_t blocks = 1 + rng() % 4;
    std::vector<std::uint8_t> data(blocks * 64);
    for (std::uint8_t& byte : data) byte = static_cast<std::uint8_t>(rng());
    detail::Sha256State portable = state;
    detail::Sha256State sha_ni = state;
    detail::compress_portable(portable, data.data(), blocks);
    detail::compress_sha_ni(sha_ni, data.data(), blocks);
    ASSERT_EQ(sha_ni, portable) << "trial " << trial << ", " << blocks << " blocks";
  }
}

TEST(Sha256, IncrementalMatchesOneShotOnChunks) {
  const std::string data(1000, 'q');
  Sha256 inc;
  inc.update(std::string_view{data}.substr(0, 10));
  inc.update(std::string_view{data}.substr(10, 100));
  inc.update(std::string_view{data}.substr(110));
  EXPECT_EQ(inc.finish(), Sha256::digest(data));
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("abc");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DoubleDigestDiffersFromSingle) {
  const std::string data = "block";
  const auto bytes = std::span<const std::uint8_t>{
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()};
  EXPECT_NE(Sha256::double_digest(bytes), Sha256::digest(bytes));
  EXPECT_EQ(Sha256::double_digest(bytes),
            Sha256::digest(std::span<const std::uint8_t>{Sha256::digest(bytes)}));
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data{0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>{data}), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0001ABFF7F"), data);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(Hex, ShortHexPrefix) {
  Hash256 h{};
  h[0] = 0xde;
  h[1] = 0xad;
  EXPECT_EQ(short_hex(h, 2), "dead");
}

}  // namespace
}  // namespace curb::crypto
