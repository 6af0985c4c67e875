#include "support/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/sha256_impl.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define TANGLEFL_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define TANGLEFL_SHA256_X86 0
#endif

namespace tanglefl {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

namespace sha256_impl {

void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t block_count) noexcept {
  for (; block_count > 0; --block_count, blocks += 64) {
    std::uint32_t w[64];
    for (std::size_t i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
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
}

#if TANGLEFL_SHA256_X86

// The SHA-NI round instructions keep the working variables as two vectors,
// ABEF and CDGH; sha256rnds2 runs two rounds, so each 4-word message group
// takes two of them. Message words 16..63 come from sha256msg1/msg2 plus
// the W[t-7] term, which is the previous two groups shifted by one word.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks,
    std::size_t block_count) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // state[0..7] = A..H. Shuffle into the ABEF / CDGH register layout.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; block_count > 0; --block_count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (std::size_t group = 0; group < 16; ++group) {
      __m128i& words = msg[group & 3];
      if (group < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * group)),
            byte_swap);
      } else {
        const __m128i& previous = msg[(group + 3) & 3];
        words = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(words, msg[(group + 1) & 3]),
                          _mm_alignr_epi8(previous, msg[(group + 2) & 3], 4)),
            previous);
      }
      __m128i wk = _mm_add_epi32(
          words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                     kRoundConstants.data() + 4 * group)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // Back from ABEF / CDGH to A..H order.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool shani_supported() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse41 && (ebx & bit_SHA) != 0;
}

#else

// No SHA-NI on this target: shani_supported() is false, so Sha256 never
// selects this; it computes the same digest for callers that ignore that.
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t block_count) noexcept {
  compress_scalar(state, blocks, block_count);
}

bool shani_supported() noexcept { return false; }

#endif

CompressFn active_compress() noexcept {
  static const CompressFn compress =
      shani_supported() ? &compress_shani : &compress_scalar;
  return compress;
}

}  // namespace sha256_impl

Sha256::Sha256() noexcept { reset(); }

void Sha256::reset() noexcept {
  state_ = kInitialState;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  const sha256_impl::CompressFn compress = sha256_impl::active_compress();
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ < buffer_.size()) return;
    compress(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256Digest Sha256::finish() noexcept {
  const sha256_impl::CompressFn compress = sha256_impl::active_compress();
  // Padding: a 0x80 byte, zeros up to byte 56 of a block, then the message
  // length in bits as a big-endian 64-bit integer. When fewer than 9 bytes
  // are left in the current block, the length goes into one more block.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    compress(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress(state_.data(), buffer_.data(), 1);
  buffered_ = 0;

  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string to_hex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

int leading_zero_bits(const Sha256Digest& digest) noexcept {
  int bits = 0;
  for (const std::uint8_t byte : digest) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    bits += std::countl_zero(byte);
    break;
  }
  return bits;
}

}  // namespace tanglefl
