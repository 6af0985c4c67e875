#include "support/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "support/sha256_impl.hpp"

namespace tanglefl {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(to_hex(hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  const std::string msg(64, 'x');
  const auto digest = Sha256::hash(msg);
  // Same input, streamed in odd-sized chunks, must agree.
  Sha256 hasher;
  hasher.update(msg.substr(0, 7));
  hasher.update(msg.substr(7, 31));
  hasher.update(msg.substr(38));
  EXPECT_EQ(to_hex(hasher.finish()), to_hex(digest));
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes fits length in one block; 56 forces an extra block.
  const auto d55 = Sha256::hash(std::string(55, 'y'));
  const auto d56 = Sha256::hash(std::string(56, 'y'));
  EXPECT_NE(to_hex(d55), to_hex(d56));
}

TEST(Sha256, ResetRestoresInitialState) {
  Sha256 hasher;
  hasher.update("garbage");
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(to_hex(hasher.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(to_hex(Sha256::hash("model-a")), to_hex(Sha256::hash("model-b")));
}

TEST(Sha256, LeadingZeroBitsAllZero) {
  Sha256Digest digest{};
  EXPECT_EQ(leading_zero_bits(digest), 256);
}

TEST(Sha256, LeadingZeroBitsTopBitSet) {
  Sha256Digest digest{};
  digest[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(digest), 0);
}

TEST(Sha256, LeadingZeroBitsPartialByte) {
  Sha256Digest digest{};
  digest[0] = 0x00;
  digest[1] = 0x10;  // 0001 0000 -> 8 + 3 leading zeros
  EXPECT_EQ(leading_zero_bits(digest), 11);
}

TEST(Sha256, HexEncodingLength) {
  EXPECT_EQ(to_hex(Sha256::hash("x")).size(), 64u);
}

// ------------------------------------------- SHA-NI vs scalar compression

using sha256_impl::CompressFn;

/// Full SHA-256 over `data` with a given compression function and padding
/// written here, independent of Sha256::finish.
Sha256Digest hash_with(CompressFn compress,
                       const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> padded = data;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      digest[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return digest;
}

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return {text.begin(), text.end()};
}

void expect_nist_vectors(CompressFn compress) {
  EXPECT_EQ(to_hex(hash_with(compress, {})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(hash_with(compress, bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const std::string two_blocks =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(to_hex(hash_with(compress, bytes_of(two_blocks))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(hash_with(compress,
                             std::vector<std::uint8_t>(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

/// Random inputs of every length up to 130 bytes (each padding edge:
/// 55/56, 63/64/65, 119/120, 128) and of random lengths up to 1 KiB, each
/// hashed by `compress` and by Sha256, one-shot and fed in random split
/// sizes; all must agree. Sha256::finish writes its padding straight into
/// the block buffer, so this also pins it against the padding above.
void expect_matches_streaming(CompressFn compress) {
  std::mt19937 rng(20240613);
  std::vector<std::size_t> lengths = {1023, 1024};
  for (std::size_t length = 0; length <= 130; ++length) {
    lengths.push_back(length);
  }
  for (int i = 0; i < 200; ++i) lengths.push_back(rng() % 1025);
  for (const std::size_t length : lengths) {
    std::vector<std::uint8_t> data(length);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
    const Sha256Digest expected =
        hash_with(&sha256_impl::compress_scalar, data);
    EXPECT_EQ(to_hex(hash_with(compress, data)), to_hex(expected))
        << "length " << length;
    Sha256 streaming;
    std::size_t offset = 0;
    while (offset < length) {
      const std::size_t take =
          std::min<std::size_t>(length - offset, rng() % 150);
      streaming.update(
          std::span<const std::uint8_t>(data.data() + offset, take));
      offset += take;
    }
    EXPECT_EQ(to_hex(streaming.finish()), to_hex(expected))
        << "streamed length " << length;
    EXPECT_EQ(to_hex(Sha256::hash(data)), to_hex(expected))
        << "one-shot length " << length;
  }
}

TEST(Sha256Compress, ScalarMatchesNistVectors) {
  expect_nist_vectors(&sha256_impl::compress_scalar);
}

TEST(Sha256Compress, ScalarMatchesStreamingOnRandomInputs) {
  expect_matches_streaming(&sha256_impl::compress_scalar);
}

TEST(Sha256Compress, ShaNiMatchesNistVectors) {
  if (!sha256_impl::shani_supported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; SHA-NI half not run";
  }
  expect_nist_vectors(&sha256_impl::compress_shani);
}

TEST(Sha256Compress, ShaNiMatchesScalarOnRandomInputs) {
  if (!sha256_impl::shani_supported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; SHA-NI half not run";
  }
  expect_matches_streaming(&sha256_impl::compress_shani);
}

TEST(Sha256Compress, DispatchPicksShaNiExactlyWhenSupported) {
  EXPECT_EQ(sha256_impl::active_compress(),
            sha256_impl::shani_supported() ? &sha256_impl::compress_shani
                                           : &sha256_impl::compress_scalar);
}

}  // namespace
}  // namespace tanglefl
