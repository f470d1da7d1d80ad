#include "curb/crypto/sha256.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "curb/prof/profiler.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace curb::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t big_sigma0(std::uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
constexpr std::uint32_t big_sigma1(std::uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
constexpr std::uint32_t small_sigma0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
constexpr std::uint32_t small_sigma1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

void process_block(detail::Sha256State& state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[i * 4]} << 24) | (std::uint32_t{block[i * 4 + 1]} << 16) |
           (std::uint32_t{block[i * 4 + 2]} << 8) | std::uint32_t{block[i * 4 + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16];
  }

  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 =
        h + big_sigma1(e) + ((e & f) ^ (~e & g)) + kRoundConstants[i] + w[i];
    const std::uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

/// Compresses through the path chosen once from CPUID.
void compress(detail::Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  static const auto path =
      detail::sha_ni_available() ? detail::compress_sha_ni : detail::compress_portable;
  path(state, data, blocks);
}

}  // namespace

namespace detail {

void compress_portable(Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  for (std::size_t i = 0; i < blocks; ++i) process_block(state, data + i * 64);
}

#if defined(__x86_64__)

bool sha_ni_available() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

// The SHA-NI round instructions keep the state as two vectors, ABEF and CDGH
// (A in the top lane). Each sha256rnds2 runs two rounds on the low two words
// of its message-plus-constant operand; sha256msg1/msg2 extend the message
// schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (std::size_t b = 0; b < blocks; ++b, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w0..w3 hold the next sixteen schedule words, four to a vector.
    __m128i w0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), byte_swap);
    __m128i w1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), byte_swap);
    __m128i w2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), byte_swap);
    __m128i w3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), byte_swap);
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      const __m128i wk = _mm_add_epi32(
          w0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * q])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] for the next four t.
      const __m128i next = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)), w3);
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool sha_ni_available() { return false; }

void compress_sha_ni(Sha256State&, const std::uint8_t*, std::size_t) {
  throw std::logic_error{"compress_sha_ni: not an x86-64 build"};
}

#endif

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return *this;
  total_len_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, in, take);
    buffer_len_ += take;
    in += take;
    left -= take;
    if (buffer_len_ < buffer_.size()) return *this;
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (const std::size_t blocks = left / 64; blocks > 0) {
    compress(state_, in, blocks);
    in += blocks * 64;
    left -= blocks * 64;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffer_len_ = left;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view data) {
  return update(std::span{reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
}

Hash256 Sha256::finish() {
  // The tail, the 0x80 marker and the 64-bit big-endian bit length fill one
  // block, or two when the marker and length do not fit after the tail.
  std::array<std::uint8_t, 128> pad{};
  std::memcpy(pad.data(), buffer_.data(), buffer_len_);
  pad[buffer_len_] = 0x80;
  const std::size_t blocks = buffer_len_ + 1 > 56 ? 2 : 1;
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    pad[blocks * 64 - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_, pad.data(), blocks);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4 + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256::digest(std::span<const std::uint8_t> data) {
  const prof::Scope scope{"crypto.sha256"};
  Sha256 h;
  h.update(data);
  return h.finish();
}

Hash256 Sha256::digest(std::string_view data) {
  const prof::Scope scope{"crypto.sha256"};
  Sha256 h;
  h.update(data);
  return h.finish();
}

Hash256 Sha256::double_digest(std::span<const std::uint8_t> data) {
  const Hash256 first = digest(data);
  return digest(std::span<const std::uint8_t>{first});
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

std::string to_hex(const Hash256& h) { return to_hex(std::span<const std::uint8_t>{h}); }

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument{"from_hex: odd length"};
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument{"from_hex: invalid character"};
  };
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((nibble(hex[i * 2]) << 4) | nibble(hex[i * 2 + 1]));
  }
  return out;
}

std::string short_hex(const Hash256& h, std::size_t bytes) {
  return to_hex(std::span<const std::uint8_t>{h.data(), std::min(bytes, h.size())});
}

}  // namespace curb::crypto
