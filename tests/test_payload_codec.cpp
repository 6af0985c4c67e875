#include "tangle/payload_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "nn/privacy.hpp"
#include "support/rng.hpp"
#include "support/sha256.hpp"

namespace tanglefl::tangle {
namespace {

std::uint32_t bits_of(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool bit_equal(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits_of(a[i]) != bits_of(b[i])) return false;
  }
  return true;
}

/// A payload that looks like a trained update: base + small perturbations
/// on a fraction of coordinates, so delta/topk/entropy all have structure
/// to work with.
struct CodecFixture {
  nn::ParamVector base;
  nn::ParamVector params;

  explicit CodecFixture(std::size_t n = 2048, std::uint64_t seed = 7) {
    Rng rng(seed);
    base.resize(n);
    params.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = static_cast<float>(rng.normal()) * 0.3f;
      params[i] = base[i];
      if (rng.uniform() < 0.3) {
        params[i] += static_cast<float>(rng.normal()) * 0.01f;
      }
    }
  }
};

/// Every parameter equal to its base: a zero XOR delta, and constant raw
/// words, so both dense streams are long runs of near-certain bits.
CodecFixture all_equal_fixture(std::size_t n) {
  CodecFixture f(0);
  f.base.assign(n, 0.25f);
  f.params = f.base;
  return f;
}

/// Parameters drawn independently of the base, as a poisoned publish is:
/// the XOR delta then carries less structure than the raw words.
CodecFixture independent_fixture(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CodecFixture f(0);
  f.base.resize(n);
  f.params.resize(n);
  for (float& value : f.base) value = static_cast<float>(rng.normal()) * 0.3f;
  for (float& value : f.params) value = static_cast<float>(rng.uniform());
  return f;
}

/// Uniformly random 32-bit patterns (NaNs and infinities included) for both
/// parameters and base: neither dense stream is compressible.
CodecFixture random_bits_fixture(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CodecFixture f(0);
  f.base.resize(n);
  f.params.resize(n);
  for (auto* values : {&f.base, &f.params}) {
    for (float& value : *values) {
      const auto bits = static_cast<std::uint32_t>(rng());
      std::memcpy(&value, &bits, sizeof value);
    }
  }
  return f;
}

/// Signed zeros, denormals, infinities, a NaN and the float extremes,
/// against a constant base.
CodecFixture special_values_fixture() {
  CodecFixture f(0);
  f.params = {0.0f,
              -0.0f,
              std::numeric_limits<float>::denorm_min(),
              -std::numeric_limits<float>::denorm_min(),
              std::numeric_limits<float>::infinity(),
              -std::numeric_limits<float>::infinity(),
              std::numeric_limits<float>::quiet_NaN(),
              std::numeric_limits<float>::max(),
              std::numeric_limits<float>::lowest(),
              1.0f};
  f.base.assign(f.params.size(), 0.5f);
  return f;
}

PayloadCodecConfig combo_config(unsigned combo) {
  PayloadCodecConfig config;
  config.delta = (combo & 1u) != 0;
  config.topk = (combo & 2u) != 0;
  config.topk_fraction = 0.05;
  config.quantize = (combo & 4u) != 0;
  config.entropy = (combo & 8u) != 0;
  return config;
}

// --------------------------------------------------------------- round trips

// For every stage combination, with and without a resolvable base:
// decode(encode(x)) must itself be a fixpoint of the codec — re-encoding
// the published payload and decoding again reproduces it bit-exactly.
// That is the ledger contract: the stored payload is exactly what any
// decoder reconstructs.
TEST(PayloadCodec, AllStageCombosRoundTripToPublishedPayload) {
  const CodecFixture f;
  const std::span<const float> no_base;
  for (unsigned combo = 0; combo < 16; ++combo) {
    const PayloadCodec codec(combo_config(combo));
    for (const bool with_base : {false, true}) {
      const std::span<const float> base =
          with_base ? std::span<const float>(f.base) : no_base;
      const EncodedPayload encoded = codec.encode(f.params, base);
      const nn::ParamVector published = codec.decode(encoded, base);
      ASSERT_EQ(published.size(), f.params.size())
          << "combo " << combo << " base " << with_base;
      const EncodedPayload re_encoded = codec.encode(published, base);
      const nn::ParamVector again = codec.decode(re_encoded, base);
      EXPECT_TRUE(bit_equal(published, again))
          << "combo " << combo << " base " << with_base
          << ": decode(encode(.)) is not idempotent";
    }
  }
}

TEST(PayloadCodec, LosslessCombosAreBitExact) {
  const CodecFixture f;
  const std::span<const float> no_base;
  for (unsigned combo = 0; combo < 16; ++combo) {
    const PayloadCodecConfig config = combo_config(combo);
    if (config.lossy()) continue;  // delta/entropy only
    const PayloadCodec codec(config);
    for (const bool with_base : {false, true}) {
      const std::span<const float> base =
          with_base ? std::span<const float>(f.base) : no_base;
      const nn::ParamVector decoded = codec.decode(codec.encode(f.params, base), base);
      EXPECT_TRUE(bit_equal(decoded, f.params))
          << "lossless combo " << combo << " base " << with_base;
    }
  }
}

TEST(PayloadCodec, LosslessPreservesSpecialValues) {
  // The dense lossless path works on raw float bit patterns; signed zeros,
  // denormals, infinities and NaN payloads must survive unchanged.
  const CodecFixture f = special_values_fixture();
  for (unsigned combo : {0u, 1u, 8u, 9u}) {  // off, delta, entropy, both
    const PayloadCodec codec(combo_config(combo));
    const nn::ParamVector decoded =
        codec.decode(codec.encode(f.params, f.base), f.base);
    EXPECT_TRUE(bit_equal(decoded, f.params)) << "combo " << combo;
  }
}

TEST(PayloadCodec, EmptyAndSingleParamPayloads) {
  const nn::ParamVector empty;
  const nn::ParamVector one = {0.25f};
  for (unsigned combo = 0; combo < 16; ++combo) {
    const PayloadCodec codec(combo_config(combo));
    const nn::ParamVector decoded_empty =
        codec.decode(codec.encode(empty, {}), {});
    EXPECT_TRUE(decoded_empty.empty()) << "combo " << combo;
    const nn::ParamVector decoded_one = codec.decode(codec.encode(one, {}), {});
    ASSERT_EQ(decoded_one.size(), 1u) << "combo " << combo;
  }
}

TEST(PayloadCodec, MismatchedBaseSizeThrows) {
  PayloadCodecConfig config;
  config.delta = true;
  const PayloadCodec codec(config);
  const nn::ParamVector params(8, 1.0f);
  const nn::ParamVector base(4, 0.0f);
  EXPECT_THROW((void)codec.encode(params, base), std::invalid_argument);
}

TEST(PayloadCodec, EncodeIsDeterministic) {
  const CodecFixture f;
  for (unsigned combo = 0; combo < 16; ++combo) {
    const PayloadCodec codec(combo_config(combo));
    const EncodedPayload a = codec.encode(f.params, f.base);
    const EncodedPayload b = codec.encode(f.params, f.base);
    EXPECT_EQ(a.bytes, b.bytes) << "combo " << combo;
  }
}

// ------------------------------------------------------------ encoded bytes

/// The fixtures the encoded-byte pins cover, by name.
std::vector<std::pair<std::string, CodecFixture>> pin_fixtures() {
  std::vector<std::pair<std::string, CodecFixture>> fixtures;
  fixtures.emplace_back("trained", CodecFixture());
  fixtures.emplace_back("all_equal", all_equal_fixture(2048));
  fixtures.emplace_back("independent", independent_fixture(2048, 1));
  fixtures.emplace_back("special", special_values_fixture());
  fixtures.emplace_back("n0", CodecFixture(0));
  fixtures.emplace_back("n1", CodecFixture(1));
  fixtures.emplace_back("n3", CodecFixture(3));
  return fixtures;
}

struct EncodedPin {
  const char* fixture;
  unsigned combo;
  bool with_base;
  std::size_t size;
  const char* sha256;  // nullptr: encode() throws (quantizing a non-finite)
};

// SHA-256 and length of every encode() output over pin_fixtures() x 16
// stage combinations x {no base, base}. The payload bytes feed the
// transaction ids, so a codec change that moves any byte shows up here.
constexpr EncodedPin kEncodedPins[] = {
    {"trained", 0, false, 8203,
     "2ba6f6b3bdd95d80cf5d2ef40da5b2fd2e8ed5b3558fa0525605a4e1ef51131e"},
    {"trained", 0, true, 8203,
     "2ba6f6b3bdd95d80cf5d2ef40da5b2fd2e8ed5b3558fa0525605a4e1ef51131e"},
    {"trained", 1, false, 8203,
     "2ba6f6b3bdd95d80cf5d2ef40da5b2fd2e8ed5b3558fa0525605a4e1ef51131e"},
    {"trained", 1, true, 8203,
     "0f00f2ed419b9888aca5cacabd6a36bfa986248744c54209ccaecc1543076fe9"},
    {"trained", 2, false, 523,
     "290179c8af6306396f55f47b657f8e3090cc358dc521736fb056fe327aec4c9e"},
    {"trained", 2, true, 523,
     "290179c8af6306396f55f47b657f8e3090cc358dc521736fb056fe327aec4c9e"},
    {"trained", 3, false, 523,
     "290179c8af6306396f55f47b657f8e3090cc358dc521736fb056fe327aec4c9e"},
    {"trained", 3, true, 523,
     "5d752243c67fe483c2aa2c56f02c97f5dacff4375b95353406892002e286a1b3"},
    {"trained", 4, false, 2063,
     "6099babb08a17aebe3937cfb00b4a240788bdb32cba85f589b4918521b7a48ba"},
    {"trained", 4, true, 2063,
     "6099babb08a17aebe3937cfb00b4a240788bdb32cba85f589b4918521b7a48ba"},
    {"trained", 5, false, 2063,
     "6099babb08a17aebe3937cfb00b4a240788bdb32cba85f589b4918521b7a48ba"},
    {"trained", 5, true, 2063,
     "d7ee41298e066fcc508eee3d1682a7fb5f275f102b29aea8ac3468784bcca1fd"},
    {"trained", 6, false, 221,
     "6ec06561b27a394f2b2dc05fc4b92b95daa8c891de1ed297aaa9b1c269c5b00e"},
    {"trained", 6, true, 221,
     "6ec06561b27a394f2b2dc05fc4b92b95daa8c891de1ed297aaa9b1c269c5b00e"},
    {"trained", 7, false, 221,
     "6ec06561b27a394f2b2dc05fc4b92b95daa8c891de1ed297aaa9b1c269c5b00e"},
    {"trained", 7, true, 221,
     "4ea71ba74be3f5968d38f0e2668750d0f3799921937378449da00fc377647aa8"},
    {"trained", 8, false, 7026,
     "c0d4a37bf3d6506337be039b34ebcee6c75cdca47020a548157f91b2fac07d28"},
    {"trained", 8, true, 7026,
     "c0d4a37bf3d6506337be039b34ebcee6c75cdca47020a548157f91b2fac07d28"},
    {"trained", 9, false, 7026,
     "c0d4a37bf3d6506337be039b34ebcee6c75cdca47020a548157f91b2fac07d28"},
    {"trained", 9, true, 2248,
     "47d6e69bc58a5acc13df198e1fb9c9c70cb8ad19bffaaf806900b7957d8d9d94"},
    {"trained", 10, false, 463,
     "c311bfd6df1d70dfedb551be187ac8ab5037fc83c3431b9a30e1e497230739ea"},
    {"trained", 10, true, 463,
     "c311bfd6df1d70dfedb551be187ac8ab5037fc83c3431b9a30e1e497230739ea"},
    {"trained", 11, false, 463,
     "c311bfd6df1d70dfedb551be187ac8ab5037fc83c3431b9a30e1e497230739ea"},
    {"trained", 11, true, 487,
     "7de3001aa9a2d5ed509d37827b2d5af0abe12a2610b76c3af4d23563497ec68b"},
    {"trained", 12, false, 1904,
     "a905c520dec532db530b48552be2493ce53368b230c22642a238030235c7f201"},
    {"trained", 12, true, 1904,
     "a905c520dec532db530b48552be2493ce53368b230c22642a238030235c7f201"},
    {"trained", 13, false, 1904,
     "a905c520dec532db530b48552be2493ce53368b230c22642a238030235c7f201"},
    {"trained", 13, true, 867,
     "2420fdb2703f0f9fce60e51b77119d0ef4818ee7c2eb3b28df6a6e88709499e3"},
    {"trained", 14, false, 190,
     "db2c3bd9651a9dbf3fcbf579661dfda1798afa28b6052de6fe1da71635965154"},
    {"trained", 14, true, 190,
     "db2c3bd9651a9dbf3fcbf579661dfda1798afa28b6052de6fe1da71635965154"},
    {"trained", 15, false, 190,
     "db2c3bd9651a9dbf3fcbf579661dfda1798afa28b6052de6fe1da71635965154"},
    {"trained", 15, true, 205,
     "a6145d9355f147d50ca668bc459941a8373878a83c92437a292f7e3234562cc2"},
    {"all_equal", 0, false, 8203,
     "7d25135651d496c544aeafb62829c425cc51b7bf85b6b9b0caf4f8913390af7f"},
    {"all_equal", 0, true, 8203,
     "7d25135651d496c544aeafb62829c425cc51b7bf85b6b9b0caf4f8913390af7f"},
    {"all_equal", 1, false, 8203,
     "7d25135651d496c544aeafb62829c425cc51b7bf85b6b9b0caf4f8913390af7f"},
    {"all_equal", 1, true, 8203,
     "bb7984fba5969d4d8b37f05c7a98d4209816770d2721ea2e5692483fbfc69f52"},
    {"all_equal", 2, false, 522,
     "b5bd8eb4f4257b7c17c73442c480b2cce1c650f23f4ded2a3acee861de3439bc"},
    {"all_equal", 2, true, 522,
     "b5bd8eb4f4257b7c17c73442c480b2cce1c650f23f4ded2a3acee861de3439bc"},
    {"all_equal", 3, false, 522,
     "b5bd8eb4f4257b7c17c73442c480b2cce1c650f23f4ded2a3acee861de3439bc"},
    {"all_equal", 3, true, 12,
     "62ec84fd80056ea74fe77d4a18f12b8645062b57e54f17deb1c6acde61cbf333"},
    {"all_equal", 4, false, 2063,
     "2394ac607c29e0569def81f56fdd25532f38cae99c4c364c92772584cd9f3b9f"},
    {"all_equal", 4, true, 2063,
     "2394ac607c29e0569def81f56fdd25532f38cae99c4c364c92772584cd9f3b9f"},
    {"all_equal", 5, false, 2063,
     "2394ac607c29e0569def81f56fdd25532f38cae99c4c364c92772584cd9f3b9f"},
    {"all_equal", 5, true, 2063,
     "10a8d9964b6acf398ef0f81adef1c90c9786a671e621d73f9a0c2f3013c84d0b"},
    {"all_equal", 6, false, 220,
     "2d2812a85abf41aa7907f2e69e97d26cbc3ec80db8579327ffb848ca038e134f"},
    {"all_equal", 6, true, 220,
     "2d2812a85abf41aa7907f2e69e97d26cbc3ec80db8579327ffb848ca038e134f"},
    {"all_equal", 7, false, 220,
     "2d2812a85abf41aa7907f2e69e97d26cbc3ec80db8579327ffb848ca038e134f"},
    {"all_equal", 7, true, 16,
     "20bd7d46cf4bf5a432e949371d258cd6abfa69efd53f1bfd321002621d138ca6"},
    {"all_equal", 8, false, 156,
     "3a5fc5f911816076baee11ab78372cf9f810054829064f7e417c20b4ee439c23"},
    {"all_equal", 8, true, 156,
     "3a5fc5f911816076baee11ab78372cf9f810054829064f7e417c20b4ee439c23"},
    {"all_equal", 9, false, 156,
     "3a5fc5f911816076baee11ab78372cf9f810054829064f7e417c20b4ee439c23"},
    {"all_equal", 9, true, 156,
     "02dac83fd6884c09684525739ea288175a69f381dac17fc4086045be24d75b08"},
    {"all_equal", 10, false, 143,
     "a52dee3299a7b0a647c63b6cc4af2130ebc06189b78dc977864b20164886d23c"},
    {"all_equal", 10, true, 143,
     "a52dee3299a7b0a647c63b6cc4af2130ebc06189b78dc977864b20164886d23c"},
    {"all_equal", 11, false, 143,
     "a52dee3299a7b0a647c63b6cc4af2130ebc06189b78dc977864b20164886d23c"},
    {"all_equal", 11, true, 18,
     "5e1c86f21178506fb5bd9b2d21bde6a486e4633d2051db3bc3ca5e0c83a24ad0"},
    {"all_equal", 12, false, 56,
     "aa5c2cd6c9f4934d5bd97011b7e6d427148050039283d142f16ee7944241960d"},
    {"all_equal", 12, true, 56,
     "aa5c2cd6c9f4934d5bd97011b7e6d427148050039283d142f16ee7944241960d"},
    {"all_equal", 13, false, 56,
     "aa5c2cd6c9f4934d5bd97011b7e6d427148050039283d142f16ee7944241960d"},
    {"all_equal", 13, true, 54,
     "cdbd1da0eb9d72c46c4746eda52de4fb6145623508fb7e5d3a5a1f78f93ed319"},
    {"all_equal", 14, false, 52,
     "f8f829c9f8ada82222d748cba6f70878e37f130debbc77dc05cc34d93b549a50"},
    {"all_equal", 14, true, 52,
     "f8f829c9f8ada82222d748cba6f70878e37f130debbc77dc05cc34d93b549a50"},
    {"all_equal", 15, false, 52,
     "f8f829c9f8ada82222d748cba6f70878e37f130debbc77dc05cc34d93b549a50"},
    {"all_equal", 15, true, 21,
     "e33054ed77816b13a66f8cd3cbcb531f3c906889b48da5198a4ed4140b532e7a"},
    {"independent", 0, false, 8203,
     "089539558e2234a789483b7c08f6dc8f1c21ceacccd89cc664f4a601fe452cfa"},
    {"independent", 0, true, 8203,
     "089539558e2234a789483b7c08f6dc8f1c21ceacccd89cc664f4a601fe452cfa"},
    {"independent", 1, false, 8203,
     "089539558e2234a789483b7c08f6dc8f1c21ceacccd89cc664f4a601fe452cfa"},
    {"independent", 1, true, 8203,
     "aefaff1e638983424ca899eef5787ddcd9c15348d81d3101c130bcd70ec8f768"},
    {"independent", 2, false, 522,
     "7697ade32ace94eea2b9a3469882157af21b0ed52abb24c6e630e404df93c38a"},
    {"independent", 2, true, 522,
     "7697ade32ace94eea2b9a3469882157af21b0ed52abb24c6e630e404df93c38a"},
    {"independent", 3, false, 522,
     "7697ade32ace94eea2b9a3469882157af21b0ed52abb24c6e630e404df93c38a"},
    {"independent", 3, true, 522,
     "f69c0ad375de9025534f55f8e83491feee2605c7165d34fa10c6dc31fb100ee6"},
    {"independent", 4, false, 2063,
     "049440e69bbd7e6463aa6dc02dc0e4e51ddf6c91b2097686932dbdc7c4cdf30d"},
    {"independent", 4, true, 2063,
     "049440e69bbd7e6463aa6dc02dc0e4e51ddf6c91b2097686932dbdc7c4cdf30d"},
    {"independent", 5, false, 2063,
     "049440e69bbd7e6463aa6dc02dc0e4e51ddf6c91b2097686932dbdc7c4cdf30d"},
    {"independent", 5, true, 2063,
     "47ad3343f81cee4d5bff87b1857183eff84900d384071b98e83fab6917f074c8"},
    {"independent", 6, false, 220,
     "8f78de9094eaec1239edb01740e2710048b5484da02dc9a06d286f9343671876"},
    {"independent", 6, true, 220,
     "8f78de9094eaec1239edb01740e2710048b5484da02dc9a06d286f9343671876"},
    {"independent", 7, false, 220,
     "8f78de9094eaec1239edb01740e2710048b5484da02dc9a06d286f9343671876"},
    {"independent", 7, true, 220,
     "ea5ed3862b55df741deefa17579b7fe47361e722dc3d89cc1924d68921bcf6dc"},
    {"independent", 8, false, 6699,
     "912644d870580ef6477507f1bed7e446418a4fc8df9ac7a1f6a58105f6d954d5"},
    {"independent", 8, true, 6699,
     "912644d870580ef6477507f1bed7e446418a4fc8df9ac7a1f6a58105f6d954d5"},
    {"independent", 9, false, 6699,
     "912644d870580ef6477507f1bed7e446418a4fc8df9ac7a1f6a58105f6d954d5"},
    {"independent", 9, true, 6699,
     "8892c480209cd5b8448f535ce8e939a022cefe94b0a63f6fc5104c01aabfa3c4"},
    {"independent", 10, false, 438,
     "829fe207ef9854214e6b4eb0da382d487ab8606521a5a0dbbf3940c2a8c6fc56"},
    {"independent", 10, true, 438,
     "829fe207ef9854214e6b4eb0da382d487ab8606521a5a0dbbf3940c2a8c6fc56"},
    {"independent", 11, false, 438,
     "829fe207ef9854214e6b4eb0da382d487ab8606521a5a0dbbf3940c2a8c6fc56"},
    {"independent", 11, true, 449,
     "bc692581a91a7367a2b729ff8b065e3bb57ed85777a639548f54547531d1eba7"},
    {"independent", 12, false, 1859,
     "b2478942ae88dbbd49ee832e73237dae1377c3b65a98d10658d0410c9db92f8a"},
    {"independent", 12, true, 1859,
     "b2478942ae88dbbd49ee832e73237dae1377c3b65a98d10658d0410c9db92f8a"},
    {"independent", 13, false, 1859,
     "b2478942ae88dbbd49ee832e73237dae1377c3b65a98d10658d0410c9db92f8a"},
    {"independent", 13, true, 1846,
     "f834857f1263119317628ee398431bb463c5277e4de48c41cadbfe2d2fd4f268"},
    {"independent", 14, false, 152,
     "d4a3ad79eaa0ecf61c74c4de0a8016846f58d039ef30238389a4c51bf6f7ffd1"},
    {"independent", 14, true, 152,
     "d4a3ad79eaa0ecf61c74c4de0a8016846f58d039ef30238389a4c51bf6f7ffd1"},
    {"independent", 15, false, 152,
     "d4a3ad79eaa0ecf61c74c4de0a8016846f58d039ef30238389a4c51bf6f7ffd1"},
    {"independent", 15, true, 179,
     "277fd026483d7161a6cc12b6167efca663868c8cf40473cc27f281bfc96e8244"},
    {"special", 0, false, 50,
     "e919f4b99c197934a56971319ed64420115eb561105d871458d4d6ba81cdd113"},
    {"special", 0, true, 50,
     "e919f4b99c197934a56971319ed64420115eb561105d871458d4d6ba81cdd113"},
    {"special", 1, false, 50,
     "e919f4b99c197934a56971319ed64420115eb561105d871458d4d6ba81cdd113"},
    {"special", 1, true, 50,
     "b3b0df32001484f6e92982efc2526cd21a171e300be57ed1c3d655e5bf741bdf"},
    {"special", 2, false, 16,
     "439e2e780d85c7968456ef81bd322ca8fddc665a57af5390132c9f5534f6a514"},
    {"special", 2, true, 16,
     "439e2e780d85c7968456ef81bd322ca8fddc665a57af5390132c9f5534f6a514"},
    {"special", 3, false, 16,
     "439e2e780d85c7968456ef81bd322ca8fddc665a57af5390132c9f5534f6a514"},
    {"special", 3, true, 16,
     "bbd9f9c2e8f9302cb03a7efd35c7fc8c9c31a54cd515fea8d817cdd4abfe8fab"},
    {"special", 4, false, 0, nullptr},
    {"special", 4, true, 0, nullptr},
    {"special", 5, false, 0, nullptr},
    {"special", 5, true, 0, nullptr},
    {"special", 6, false, 0, nullptr},
    {"special", 6, true, 0, nullptr},
    {"special", 7, false, 0, nullptr},
    {"special", 7, true, 0, nullptr},
    {"special", 8, false, 53,
     "23bebb4bcc8149d2313c7f2f7aa2c15da97b4bec2183d666c2fd64afe70b00eb"},
    {"special", 8, true, 53,
     "23bebb4bcc8149d2313c7f2f7aa2c15da97b4bec2183d666c2fd64afe70b00eb"},
    {"special", 9, false, 53,
     "23bebb4bcc8149d2313c7f2f7aa2c15da97b4bec2183d666c2fd64afe70b00eb"},
    {"special", 9, true, 51,
     "5b611ee9bc1db34067fd721f895e9f0181c5570f922b4c5be2a18cce16b28881"},
    {"special", 10, false, 21,
     "2ca03ee118fabd9e9af58fe622254a33d24cc945c8475e680cd39fe1eecaea02"},
    {"special", 10, true, 21,
     "2ca03ee118fabd9e9af58fe622254a33d24cc945c8475e680cd39fe1eecaea02"},
    {"special", 11, false, 21,
     "2ca03ee118fabd9e9af58fe622254a33d24cc945c8475e680cd39fe1eecaea02"},
    {"special", 11, true, 21,
     "f8d2689ea38452fb215a37c667762dcd7ab3def9d4c009feec36faddade53b1b"},
    {"special", 12, false, 0, nullptr},
    {"special", 12, true, 0, nullptr},
    {"special", 13, false, 0, nullptr},
    {"special", 13, true, 0, nullptr},
    {"special", 14, false, 0, nullptr},
    {"special", 14, true, 0, nullptr},
    {"special", 15, false, 0, nullptr},
    {"special", 15, true, 0, nullptr},
    {"n0", 0, false, 10,
     "01d448afd928065458cf670b60f5a594d735af0172c8d67f22a81680132681ca"},
    {"n0", 0, true, 10,
     "01d448afd928065458cf670b60f5a594d735af0172c8d67f22a81680132681ca"},
    {"n0", 1, false, 10,
     "01d448afd928065458cf670b60f5a594d735af0172c8d67f22a81680132681ca"},
    {"n0", 1, true, 10,
     "01d448afd928065458cf670b60f5a594d735af0172c8d67f22a81680132681ca"},
    {"n0", 2, false, 11,
     "88c0e7cc161f44829f11fd49de716f8a7fd5ff316c1eb2ebec2a320078dfa3d7"},
    {"n0", 2, true, 11,
     "88c0e7cc161f44829f11fd49de716f8a7fd5ff316c1eb2ebec2a320078dfa3d7"},
    {"n0", 3, false, 11,
     "88c0e7cc161f44829f11fd49de716f8a7fd5ff316c1eb2ebec2a320078dfa3d7"},
    {"n0", 3, true, 11,
     "88c0e7cc161f44829f11fd49de716f8a7fd5ff316c1eb2ebec2a320078dfa3d7"},
    {"n0", 4, false, 14,
     "dafacedf2e23a218e893c62b77cf70506e36c07ac560c2fff6f66e80cd4018f7"},
    {"n0", 4, true, 14,
     "dafacedf2e23a218e893c62b77cf70506e36c07ac560c2fff6f66e80cd4018f7"},
    {"n0", 5, false, 14,
     "dafacedf2e23a218e893c62b77cf70506e36c07ac560c2fff6f66e80cd4018f7"},
    {"n0", 5, true, 14,
     "dafacedf2e23a218e893c62b77cf70506e36c07ac560c2fff6f66e80cd4018f7"},
    {"n0", 6, false, 15,
     "9a9f28b54b3c6f70377c4564152df3a9763c37b7cbbdbf43e687846d980c58aa"},
    {"n0", 6, true, 15,
     "9a9f28b54b3c6f70377c4564152df3a9763c37b7cbbdbf43e687846d980c58aa"},
    {"n0", 7, false, 15,
     "9a9f28b54b3c6f70377c4564152df3a9763c37b7cbbdbf43e687846d980c58aa"},
    {"n0", 7, true, 15,
     "9a9f28b54b3c6f70377c4564152df3a9763c37b7cbbdbf43e687846d980c58aa"},
    {"n0", 8, false, 16,
     "482985b39e38cc1e0f0854959010c49512d301d5b3e5b25f42f23af96601c1e3"},
    {"n0", 8, true, 16,
     "482985b39e38cc1e0f0854959010c49512d301d5b3e5b25f42f23af96601c1e3"},
    {"n0", 9, false, 16,
     "482985b39e38cc1e0f0854959010c49512d301d5b3e5b25f42f23af96601c1e3"},
    {"n0", 9, true, 16,
     "482985b39e38cc1e0f0854959010c49512d301d5b3e5b25f42f23af96601c1e3"},
    {"n0", 10, false, 17,
     "380ed4b61673c3099e6a006549c4d745de482268c12c4f8d27db9711d01b4b26"},
    {"n0", 10, true, 17,
     "380ed4b61673c3099e6a006549c4d745de482268c12c4f8d27db9711d01b4b26"},
    {"n0", 11, false, 17,
     "380ed4b61673c3099e6a006549c4d745de482268c12c4f8d27db9711d01b4b26"},
    {"n0", 11, true, 17,
     "380ed4b61673c3099e6a006549c4d745de482268c12c4f8d27db9711d01b4b26"},
    {"n0", 12, false, 19,
     "38a8e4cc230466d0b90c59e2847605e682b693925c33958751795ef80e468843"},
    {"n0", 12, true, 19,
     "38a8e4cc230466d0b90c59e2847605e682b693925c33958751795ef80e468843"},
    {"n0", 13, false, 19,
     "38a8e4cc230466d0b90c59e2847605e682b693925c33958751795ef80e468843"},
    {"n0", 13, true, 19,
     "38a8e4cc230466d0b90c59e2847605e682b693925c33958751795ef80e468843"},
    {"n0", 14, false, 20,
     "a621243b85a95be22cf1014a63bd27802ba6181c2a26aee2b8ae783c65ebcc48"},
    {"n0", 14, true, 20,
     "a621243b85a95be22cf1014a63bd27802ba6181c2a26aee2b8ae783c65ebcc48"},
    {"n0", 15, false, 20,
     "a621243b85a95be22cf1014a63bd27802ba6181c2a26aee2b8ae783c65ebcc48"},
    {"n0", 15, true, 20,
     "a621243b85a95be22cf1014a63bd27802ba6181c2a26aee2b8ae783c65ebcc48"},
    {"n1", 0, false, 14,
     "858de8b4d7b8842d5c3f804208a182338872eedc622a6f2b3162d23c55b94065"},
    {"n1", 0, true, 14,
     "858de8b4d7b8842d5c3f804208a182338872eedc622a6f2b3162d23c55b94065"},
    {"n1", 1, false, 14,
     "858de8b4d7b8842d5c3f804208a182338872eedc622a6f2b3162d23c55b94065"},
    {"n1", 1, true, 14,
     "97ca32f149299fedebcd4ee785628772ebc9d6ea5e5a533c200eabfadecc128b"},
    {"n1", 2, false, 16,
     "420b0f027ea757a97a341de408e9ad2e2bb0b4a2373b42f90bb0346aa2c124e6"},
    {"n1", 2, true, 16,
     "420b0f027ea757a97a341de408e9ad2e2bb0b4a2373b42f90bb0346aa2c124e6"},
    {"n1", 3, false, 16,
     "420b0f027ea757a97a341de408e9ad2e2bb0b4a2373b42f90bb0346aa2c124e6"},
    {"n1", 3, true, 11,
     "8818f569e4d2ba57225880d3ff5d9ec621fec9e2764243c761e42e32b4ffd1d1"},
    {"n1", 4, false, 15,
     "68a2698da3bdb49e7eccb6264d595972de68c631bf78b7bda4fa750732868404"},
    {"n1", 4, true, 15,
     "68a2698da3bdb49e7eccb6264d595972de68c631bf78b7bda4fa750732868404"},
    {"n1", 5, false, 15,
     "68a2698da3bdb49e7eccb6264d595972de68c631bf78b7bda4fa750732868404"},
    {"n1", 5, true, 15,
     "3efce5ea6cde4f116414aee01efe627c89921f8663972f6d9f4a6d38360d8301"},
    {"n1", 6, false, 17,
     "5f933880fdc250dcbc4c0c26deab3ed60889d41fc8be1c8487e8ea76cdece7db"},
    {"n1", 6, true, 17,
     "5f933880fdc250dcbc4c0c26deab3ed60889d41fc8be1c8487e8ea76cdece7db"},
    {"n1", 7, false, 17,
     "5f933880fdc250dcbc4c0c26deab3ed60889d41fc8be1c8487e8ea76cdece7db"},
    {"n1", 7, true, 15,
     "ee51e1eb2a12b62bdd94fee0449c16e5700fd842e42ac168c156e367dc74e18b"},
    {"n1", 8, false, 19,
     "634110be0c99573a23143eb93a301f1bb89c700ce9d4ff3fe2b4947224ebd594"},
    {"n1", 8, true, 19,
     "634110be0c99573a23143eb93a301f1bb89c700ce9d4ff3fe2b4947224ebd594"},
    {"n1", 9, false, 19,
     "634110be0c99573a23143eb93a301f1bb89c700ce9d4ff3fe2b4947224ebd594"},
    {"n1", 9, true, 19,
     "8ff1c333956f3edf0668439af0d9c063e229cce33b9b4e5f35b76b924ca5bd23"},
    {"n1", 10, false, 21,
     "d425aa671955cfc066c165fdc47f4e4b927c94d2ecf0c871e03b86106937062f"},
    {"n1", 10, true, 21,
     "d425aa671955cfc066c165fdc47f4e4b927c94d2ecf0c871e03b86106937062f"},
    {"n1", 11, false, 21,
     "d425aa671955cfc066c165fdc47f4e4b927c94d2ecf0c871e03b86106937062f"},
    {"n1", 11, true, 17,
     "61730753de15b730728a0b8110a20bde1f9232e5c71db53fc321f25b217e3ae3"},
    {"n1", 12, false, 20,
     "46bb7dd79fbf6659b9432ae73a5178219947b260e1ee052b895f7bb72c38e931"},
    {"n1", 12, true, 20,
     "46bb7dd79fbf6659b9432ae73a5178219947b260e1ee052b895f7bb72c38e931"},
    {"n1", 13, false, 20,
     "46bb7dd79fbf6659b9432ae73a5178219947b260e1ee052b895f7bb72c38e931"},
    {"n1", 13, true, 20,
     "cb51df0c8700aa51bf791ba8f27b83a304d3bc5e1f62774fa84d02405873318e"},
    {"n1", 14, false, 22,
     "e39c97faf6f3c3a4171f21fe8ec66ebe8abd5ac51ceffc0917e9d63afc0fcb36"},
    {"n1", 14, true, 22,
     "e39c97faf6f3c3a4171f21fe8ec66ebe8abd5ac51ceffc0917e9d63afc0fcb36"},
    {"n1", 15, false, 22,
     "e39c97faf6f3c3a4171f21fe8ec66ebe8abd5ac51ceffc0917e9d63afc0fcb36"},
    {"n1", 15, true, 20,
     "db6bcff9a21d12c2338394592471372b972ecbad4f9adbf1b03dbe6b1da78095"},
    {"n3", 0, false, 22,
     "f84869cc66ccc84d792ae732c6ceb4a3422e2d9a9143d7cb1a665c1814b91a70"},
    {"n3", 0, true, 22,
     "f84869cc66ccc84d792ae732c6ceb4a3422e2d9a9143d7cb1a665c1814b91a70"},
    {"n3", 1, false, 22,
     "f84869cc66ccc84d792ae732c6ceb4a3422e2d9a9143d7cb1a665c1814b91a70"},
    {"n3", 1, true, 22,
     "1cd7e7130c82e230f91252f4836a2764f3b531e0527b552fb8a54b71be104c90"},
    {"n3", 2, false, 16,
     "f28e204a13014da1de7ab424d1a267e1f519e4bf5e8423d118a0813c2714dd95"},
    {"n3", 2, true, 16,
     "f28e204a13014da1de7ab424d1a267e1f519e4bf5e8423d118a0813c2714dd95"},
    {"n3", 3, false, 16,
     "f28e204a13014da1de7ab424d1a267e1f519e4bf5e8423d118a0813c2714dd95"},
    {"n3", 3, true, 11,
     "d6a894d46053ef6f18afb3e2ece96c9eae28462a7695e148c4e7841155ec95f0"},
    {"n3", 4, false, 17,
     "559a8efdbbc46a58823de84140b448a67f18452bd1f889cbc1b438e4c7162b59"},
    {"n3", 4, true, 17,
     "559a8efdbbc46a58823de84140b448a67f18452bd1f889cbc1b438e4c7162b59"},
    {"n3", 5, false, 17,
     "559a8efdbbc46a58823de84140b448a67f18452bd1f889cbc1b438e4c7162b59"},
    {"n3", 5, true, 17,
     "086dd5c55c88738f6374b0d2a3210ca49561a835f61867f1aa6d1ad4c896a673"},
    {"n3", 6, false, 17,
     "4ccc28943429f86a797ca7907a5773eec7a784dfdd7272cf13d8a707d3ede5ff"},
    {"n3", 6, true, 17,
     "4ccc28943429f86a797ca7907a5773eec7a784dfdd7272cf13d8a707d3ede5ff"},
    {"n3", 7, false, 17,
     "4ccc28943429f86a797ca7907a5773eec7a784dfdd7272cf13d8a707d3ede5ff"},
    {"n3", 7, true, 15,
     "a380cac6278607476ee8e65ccad859802530a8bbea77b62d72da6ee5f379fd1e"},
    {"n3", 8, false, 28,
     "a3503dc305a9421f669fc66f4c5bac8fd627a1978f20a683092ce1bde15ca68b"},
    {"n3", 8, true, 28,
     "a3503dc305a9421f669fc66f4c5bac8fd627a1978f20a683092ce1bde15ca68b"},
    {"n3", 9, false, 28,
     "a3503dc305a9421f669fc66f4c5bac8fd627a1978f20a683092ce1bde15ca68b"},
    {"n3", 9, true, 27,
     "ecdcf935a27e5a4b92743ad00ffb7f36d8ab917b237e0184989f2af50fcc579f"},
    {"n3", 10, false, 21,
     "00fec35c053cd038ae05bdb66fda87a384d2b5d9d2922e8e7c6fa4d1d466d8aa"},
    {"n3", 10, true, 21,
     "00fec35c053cd038ae05bdb66fda87a384d2b5d9d2922e8e7c6fa4d1d466d8aa"},
    {"n3", 11, false, 21,
     "00fec35c053cd038ae05bdb66fda87a384d2b5d9d2922e8e7c6fa4d1d466d8aa"},
    {"n3", 11, true, 17,
     "d9e8561707e38d111a78e82b4cdb54bbdedc0571d237d3e623d38d96e9e839e3"},
    {"n3", 12, false, 22,
     "73e7d370bf600b74c542e54b738d2823c011ce85ce80cf47bea76a93940a5fd4"},
    {"n3", 12, true, 22,
     "73e7d370bf600b74c542e54b738d2823c011ce85ce80cf47bea76a93940a5fd4"},
    {"n3", 13, false, 22,
     "73e7d370bf600b74c542e54b738d2823c011ce85ce80cf47bea76a93940a5fd4"},
    {"n3", 13, true, 22,
     "ed0c30de3ba0718352de62d864bf240075c4a16ee04f1bf80ceff9e67d89bd5a"},
    {"n3", 14, false, 22,
     "7e5d28b3d3170e3c738efe1d99acaece2f54b37ae827f33810e2305572dba0a3"},
    {"n3", 14, true, 22,
     "7e5d28b3d3170e3c738efe1d99acaece2f54b37ae827f33810e2305572dba0a3"},
    {"n3", 15, false, 22,
     "7e5d28b3d3170e3c738efe1d99acaece2f54b37ae827f33810e2305572dba0a3"},
    {"n3", 15, true, 20,
     "463d8524b5715ecb22167cefc574e0b942b10e0104255c9c920209af2cbb999f"},
};

TEST(PayloadCodec, EncodedBytesMatchPins) {
  const auto fixtures = pin_fixtures();
  ASSERT_EQ(std::size(kEncodedPins), fixtures.size() * 16 * 2);
  for (const EncodedPin& pin : kEncodedPins) {
    const auto fixture = std::find_if(
        fixtures.begin(), fixtures.end(),
        [&](const auto& entry) { return entry.first == pin.fixture; });
    ASSERT_NE(fixture, fixtures.end()) << pin.fixture;
    const CodecFixture& f = fixture->second;
    const std::span<const float> base =
        pin.with_base ? std::span<const float>(f.base)
                      : std::span<const float>{};
    const PayloadCodec codec(combo_config(pin.combo));
    if (pin.sha256 == nullptr) {
      EXPECT_ANY_THROW((void)codec.encode(f.params, base))
          << pin.fixture << " combo " << pin.combo << " base " << pin.with_base;
      continue;
    }
    const EncodedPayload encoded = codec.encode(f.params, base);
    EXPECT_EQ(encoded.bytes.size(), pin.size)
        << pin.fixture << " combo " << pin.combo << " base " << pin.with_base;
    EXPECT_EQ(to_hex(Sha256::hash(encoded.bytes)), pin.sha256)
        << pin.fixture << " combo " << pin.combo << " base " << pin.with_base;
  }
}

// Under delta,entropy the dense path codes both the XOR-delta and the raw
// word stream and keeps the smaller; a payload unrelated to its base picks
// raw. Then the stream after the flag byte is the entropy-only encoding,
// and otherwise the delta stream is no longer than that encoding.
TEST(PayloadCodec, DenseBestOfKeepsTheSmallerStream) {
  constexpr std::uint8_t kDenseRaw = 0x10;
  const PayloadCodec best_of(parse_codec_spec("delta,entropy"));
  const PayloadCodec raw_only(parse_codec_spec("entropy"));
  auto fixtures = pin_fixtures();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    fixtures.emplace_back("trained", CodecFixture(4096, seed));
    fixtures.emplace_back("independent", independent_fixture(4096, seed));
  }
  std::size_t raw_picks = 0;
  std::size_t delta_picks = 0;
  for (const auto& [name, f] : fixtures) {
    const EncodedPayload encoded = best_of.encode(f.params, f.base);
    const EncodedPayload raw = raw_only.encode(f.params, {});
    if ((encoded.bytes.at(0) & kDenseRaw) != 0) {
      ++raw_picks;
      EXPECT_TRUE(std::equal(encoded.bytes.begin() + 1, encoded.bytes.end(),
                             raw.bytes.begin() + 1, raw.bytes.end()))
          << name << ": raw pick differs from the entropy-only stream";
    } else {
      ++delta_picks;
      EXPECT_LE(encoded.bytes.size(), raw.bytes.size()) << name;
    }
    EXPECT_TRUE(bit_equal(best_of.decode(encoded, f.base), f.params)) << name;
  }
  EXPECT_GT(raw_picks, 0u);
  EXPECT_GT(delta_picks, 0u);
}

// Long and incompressible payloads: a million equal parameters (long runs
// of near-certain bits), and 100k random bit patterns whose streams
// outgrow the encoder's first buffer of half the plain size, on the dense
// word coder and on the byte coder the sparse stages use.
TEST(PayloadCodec, LongPayloadsRoundTrip) {
  const CodecFixture equal = all_equal_fixture(std::size_t{1} << 20);
  const CodecFixture random = random_bits_fixture(100000, 5);
  for (const char* spec : {"entropy", "delta,entropy"}) {
    const PayloadCodec codec(parse_codec_spec(spec));
    const EncodedPayload flat = codec.encode(equal.params, equal.base);
    EXPECT_TRUE(bit_equal(codec.decode(flat, equal.base), equal.params))
        << spec;
    const EncodedPayload noisy = codec.encode(random.params, random.base);
    EXPECT_GT(noisy.bytes.size(), noisy.raw_bytes()) << spec;
    EXPECT_TRUE(bit_equal(codec.decode(noisy, random.base), random.params))
        << spec;
  }
  // topk:1 keeps every nonzero coordinate, so uniform draws in [0, 1)
  // round-trip exactly; their random mantissas keep the stream above half
  // of the plain 5 bytes per parameter.
  const CodecFixture uniform = independent_fixture(100000, 5);
  const PayloadCodec sparse(parse_codec_spec("topk:1,entropy"));
  const EncodedPayload encoded = sparse.encode(uniform.params, {});
  EXPECT_GT(encoded.bytes.size(), uniform.params.size() * 5 / 2);
  EXPECT_TRUE(bit_equal(sparse.decode(encoded, {}), uniform.params));
}

TEST(PayloadCodec, EntropyShrinksStructuredUpdates) {
  // A trained-update-shaped payload (most coordinates equal to the base)
  // must compress well below raw size under delta+entropy.
  const CodecFixture f(8192);
  PayloadCodecConfig config;
  config.delta = true;
  config.entropy = true;
  const PayloadCodec codec(config);
  const EncodedPayload encoded = codec.encode(f.params, f.base);
  EXPECT_LT(encoded.bytes.size(), encoded.raw_bytes() * 3 / 4);
  EXPECT_TRUE(bit_equal(codec.decode(encoded, f.base), f.params));
}

TEST(PayloadCodec, TopkKeepsRequestedFraction) {
  const CodecFixture f(1000);
  PayloadCodecConfig config;
  config.delta = true;
  config.topk = true;
  config.topk_fraction = 0.05;
  const PayloadCodec codec(config);
  const nn::ParamVector decoded =
      codec.decode(codec.encode(f.params, f.base), f.base);
  // At most 5% of coordinates moved off the base (the kept set), everything
  // else decodes to the base exactly.
  std::size_t moved = 0;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (bits_of(decoded[i]) != bits_of(f.base[i])) ++moved;
  }
  EXPECT_LE(moved, 50u);
  EXPECT_GT(moved, 0u);
}

// ------------------------------------------------------------ hostile input

/// Re-emits an entropy-coded payload with its plain-size varint (the third
/// header field, after the flags byte and the parameter count) replaced.
EncodedPayload with_plain_size(const EncodedPayload& encoded,
                               std::uint64_t plain_size) {
  std::size_t pos = 1;
  const auto skip_varint = [&] {
    while (encoded.bytes.at(pos) & 0x80u) ++pos;
    ++pos;
  };
  skip_varint();  // parameter count
  const std::size_t size_start = pos;
  skip_varint();  // plain size
  EncodedPayload out;
  out.param_count = encoded.param_count;
  out.bytes.assign(encoded.bytes.begin(),
                   encoded.bytes.begin() +
                       static_cast<std::ptrdiff_t>(size_start));
  do {
    std::uint8_t byte = plain_size & 0x7fu;
    plain_size >>= 7;
    if (plain_size != 0) byte |= 0x80u;
    out.bytes.push_back(byte);
  } while (plain_size != 0);
  out.bytes.insert(out.bytes.end(),
                   encoded.bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                   encoded.bytes.end());
  return out;
}

TEST(PayloadCodec, DenseDeltaRejectsInflatedPlainSize) {
  // A 64-float delta,entropy payload declares 256 plain bytes; at 512 the
  // word decoder would read the 64-float delta base out of bounds.
  const CodecFixture f(64);
  const PayloadCodec codec(parse_codec_spec("delta,entropy"));
  const EncodedPayload encoded = codec.encode(f.params, f.base);
  ASSERT_TRUE(bit_equal(codec.decode(encoded, f.base), f.params));
  EXPECT_EQ(encoded.bytes.at(2), 0x80u);  // varint 256 = 0x80 0x02
  EXPECT_EQ(encoded.bytes.at(3), 0x02u);
  for (const std::uint64_t size : {512ull, 255ull, 0ull, 1ull << 40}) {
    EXPECT_THROW((void)codec.decode(with_plain_size(encoded, size), f.base),
                 SerializeError)
        << "plain size " << size;
  }
}

TEST(PayloadCodec, SparseRejectsPlainSizeBeyondParameterBound) {
  // The sparse stages size their output buffer from the same varint, so a
  // huge value is a decompression bomb unless bounded by the count.
  const CodecFixture f(64);
  for (const char* spec : {"topk,entropy", "quantize,entropy",
                           "delta,topk,quantize,entropy"}) {
    const PayloadCodec codec(parse_codec_spec(spec));
    const EncodedPayload encoded = codec.encode(f.params, f.base);
    (void)codec.decode(encoded, f.base);
    EXPECT_THROW(
        (void)codec.decode(with_plain_size(encoded, 1ull << 40), f.base),
        SerializeError)
        << spec;
  }
}

// ---------------------------------------------------------------- spec parse

TEST(CodecSpec, OffAndDefaultPresets) {
  const PayloadCodecConfig off = parse_codec_spec("off");
  EXPECT_FALSE(off.enabled());
  const PayloadCodecConfig none = parse_codec_spec("");
  EXPECT_FALSE(none.enabled());
  const PayloadCodecConfig preset = parse_codec_spec("default");
  EXPECT_TRUE(preset.delta);
  EXPECT_TRUE(preset.entropy);
  EXPECT_TRUE(preset.chunk);
  EXPECT_FALSE(preset.topk);
  EXPECT_FALSE(preset.quantize);
  EXPECT_FALSE(preset.lossy());
}

TEST(CodecSpec, FullListParses) {
  const PayloadCodecConfig config =
      parse_codec_spec("delta,topk:0.25,quantize,entropy,chunk");
  EXPECT_TRUE(config.delta);
  EXPECT_TRUE(config.topk);
  EXPECT_DOUBLE_EQ(config.topk_fraction, 0.25);
  EXPECT_TRUE(config.quantize);
  EXPECT_TRUE(config.entropy);
  EXPECT_TRUE(config.chunk);
  EXPECT_TRUE(config.lossy());
}

TEST(CodecSpec, SpecStringRoundTrips) {
  for (const char* spec : {"off", "delta", "delta,entropy",
                           "delta,quantize,entropy", "chunk",
                           "delta,entropy,chunk"}) {
    const PayloadCodecConfig config = parse_codec_spec(spec);
    EXPECT_EQ(codec_spec_string(config), spec);
    const PayloadCodecConfig reparsed = parse_codec_spec(codec_spec_string(config));
    EXPECT_EQ(codec_spec_string(reparsed), spec);
  }
}

TEST(CodecSpec, BadSpecsThrow) {
  EXPECT_THROW((void)parse_codec_spec("gzip"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("delta,"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk=0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("topk:1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_codec_spec("delta,,entropy"), std::invalid_argument);
}

// ---------------------------------------------------------- chunk boundaries

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  return bytes;
}

TEST(ChunkBoundaries, PartitionWithinBounds) {
  const std::vector<std::uint8_t> data = random_bytes(100000, 11);
  const ChunkParams params;  // 512..8192, mask 11
  const std::vector<std::size_t> ends = chunk_boundaries(data, params);
  ASSERT_FALSE(ends.empty());
  EXPECT_EQ(ends.back(), data.size());
  std::size_t begin = 0;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    ASSERT_GT(ends[i], begin);
    const std::size_t size = ends[i] - begin;
    EXPECT_LE(size, params.max_bytes);
    if (i + 1 < ends.size()) {
      EXPECT_GE(size, params.min_bytes);
    }
    begin = ends[i];
  }
}

TEST(ChunkBoundaries, EmptyInputYieldsNoChunks) {
  EXPECT_TRUE(chunk_boundaries({}, ChunkParams{}).empty());
}

TEST(ChunkBoundaries, DeterministicAndPrefixStable) {
  const std::vector<std::uint8_t> data = random_bytes(50000, 13);
  const ChunkParams params;
  const std::vector<std::size_t> ends = chunk_boundaries(data, params);
  EXPECT_EQ(chunk_boundaries(data, params), ends);
  // Cuts are computed left to right with the hash reset at every cut, so
  // appending data never moves an earlier boundary: every full-data cut
  // strictly inside a prefix is also a cut of that prefix.
  const std::size_t prefix_size = data.size() / 2;
  const std::vector<std::size_t> prefix_ends = chunk_boundaries(
      std::span<const std::uint8_t>(data.data(), prefix_size), params);
  for (std::size_t i = 0; i < ends.size() && ends[i] < prefix_size; ++i) {
    ASSERT_LT(i, prefix_ends.size());
    EXPECT_EQ(prefix_ends[i], ends[i]);
  }
}

TEST(ChunkBoundaries, SharedContentProducesSharedChunks) {
  // Content-defined cutting: inserting bytes at the front leaves the cuts
  // in the unchanged tail at the same content positions (after the cutter
  // resynchronizes), which is what makes chunk-level dedup work.
  const std::vector<std::uint8_t> tail = random_bytes(60000, 17);
  std::vector<std::uint8_t> shifted = random_bytes(1000, 19);
  shifted.insert(shifted.end(), tail.begin(), tail.end());

  const ChunkParams params;
  const std::vector<std::size_t> ends_a = chunk_boundaries(tail, params);
  const std::vector<std::size_t> ends_b = chunk_boundaries(shifted, params);
  // Compare cut positions relative to the shared tail content.
  std::vector<std::size_t> cuts_a(ends_a.begin(), ends_a.end());
  std::vector<std::size_t> cuts_b;
  for (const std::size_t end : ends_b) {
    if (end > 1000) cuts_b.push_back(end - 1000);
  }
  std::size_t shared = 0;
  for (const std::size_t cut : cuts_b) {
    for (const std::size_t other : cuts_a) {
      if (cut == other) {
        ++shared;
        break;
      }
    }
  }
  // The vast majority of tail cuts must line up once resynchronized.
  EXPECT_GE(shared, cuts_a.size() / 2);
}

// ------------------------------------------------------------ engine parity

data::FederatedDataset small_dataset() {
  data::FemnistSynthConfig config;
  config.num_users = 10;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 15.0;
  config.seed = 3;
  return data::make_femnist_synth(config);
}

nn::ModelFactory small_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

core::SimulationConfig fast_config(std::uint64_t rounds = 4) {
  core::SimulationConfig config;
  config.rounds = rounds;
  config.nodes_per_round = 4;
  config.eval_every = 2;
  config.eval_nodes_fraction = 0.5;
  config.node.training.epochs = 1;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 1;
  return config;
}

std::vector<std::string> tx_hexes(const Tangle& tangle) {
  std::vector<std::string> out;
  for (TxIndex i = 0; i < tangle.size(); ++i) {
    out.push_back(to_hex(tangle.transaction(i).id));
  }
  return out;
}

TEST(PayloadCodecEngine, LosslessCodecMatchesCodecOffBitExactly) {
  const auto dataset = small_dataset();
  const auto factory = small_factory();

  core::TangleSimulation off(dataset, factory, fast_config());
  const core::RunResult result_off = off.run();

  core::SimulationConfig codec_config = fast_config();
  codec_config.codec = parse_codec_spec("default");  // delta+entropy+chunk
  core::TangleSimulation on(dataset, factory, codec_config);
  const core::RunResult result_on = on.run();

  // Same ledger (transaction ids hash payload bytes) and same accuracy
  // trajectory: the lossless codec is invisible to results.
  EXPECT_EQ(tx_hexes(on.tangle()), tx_hexes(off.tangle()));
  ASSERT_EQ(result_on.history.size(), result_off.history.size());
  for (std::size_t i = 0; i < result_on.history.size(); ++i) {
    EXPECT_EQ(result_on.history[i].accuracy, result_off.history[i].accuracy);
    EXPECT_EQ(result_on.history[i].loss, result_off.history[i].loss);
  }
  // And the chunked store actually engaged.
  EXPECT_TRUE(on.store().chunking_enabled());
  EXPECT_GT(on.store().chunk_count(), 0u);
}

TEST(PayloadCodecEngine, LossyCodecChangesPayloadsButStaysDeterministic) {
  const auto dataset = small_dataset();
  const auto factory = small_factory();

  core::SimulationConfig codec_config = fast_config();
  codec_config.codec = parse_codec_spec("delta,quantize,entropy");
  core::TangleSimulation a(dataset, factory, codec_config);
  (void)a.run();
  core::TangleSimulation b(dataset, factory, codec_config);
  (void)b.run();
  EXPECT_EQ(tx_hexes(a.tangle()), tx_hexes(b.tangle()));

  core::TangleSimulation off(dataset, factory, fast_config());
  (void)off.run();
  EXPECT_NE(tx_hexes(a.tangle()), tx_hexes(off.tangle()));
}

TEST(PayloadCodecEngine, BitIdenticalAcrossKernelThreadCounts) {
  const auto dataset = small_dataset();
  const auto factory = small_factory();

  std::vector<std::vector<std::string>> ledgers;
  std::vector<core::RunResult> results;
  for (const std::size_t kernel_threads : {1u, 2u, 4u}) {
    core::SimulationConfig config = fast_config();
    config.codec = parse_codec_spec("default");
    config.kernel_threads = kernel_threads;
    core::TangleSimulation sim(dataset, factory, config);
    results.push_back(sim.run());
    ledgers.push_back(tx_hexes(sim.tangle()));
  }
  for (std::size_t i = 1; i < ledgers.size(); ++i) {
    EXPECT_EQ(ledgers[i], ledgers[0]) << "kernel thread variant " << i;
    const auto& history = results[i].history;
    const auto& reference = results[0].history;
    ASSERT_EQ(history.size(), reference.size());
    for (std::size_t j = 0; j < history.size(); ++j) {
      EXPECT_EQ(history[j].accuracy, reference[j].accuracy);
      EXPECT_EQ(history[j].loss, reference[j].loss);
    }
  }
}

// Each publishing step encodes and prepares its payload in its own pool
// lane, so node threads must not change a byte of the ledger: the lossy
// preset is the sharp case, because its decoded payload depends on the
// delta base read from the parents, and pruning releases payloads between
// rounds.
TEST(PayloadCodecEngine, BitIdenticalAcrossNodeThreadCounts) {
  const auto dataset = small_dataset();
  const auto factory = small_factory();

  for (const std::string spec : {"default", "delta,quantize,entropy,chunk"}) {
    std::vector<std::vector<std::string>> ledgers;
    std::vector<core::RunResult> results;
    std::vector<std::vector<std::uint8_t>> stores;
    std::vector<TxIndex> floors;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      core::SimulationConfig config = fast_config(/*rounds=*/12);
      config.nodes_per_round = 6;
      config.codec = parse_codec_spec(spec);
      config.threads = threads;
      config.prune.enabled = true;
      config.prune.interval = 2;
      config.prune.keep_recent = 6;
      core::TangleSimulation sim(dataset, factory, config);
      results.push_back(sim.run());
      ledgers.push_back(tx_hexes(sim.tangle()));
      ByteWriter writer;
      sim.store().serialize(writer);
      stores.push_back(writer.bytes());
      floors.push_back(sim.tangle().prune_floor());
    }
    // Pruning really released payloads, so the run covered the released
    // delta-base path.
    EXPECT_GT(floors[0], 0u) << spec;
    for (std::size_t i = 1; i < ledgers.size(); ++i) {
      EXPECT_EQ(ledgers[i], ledgers[0]) << spec << " thread variant " << i;
      EXPECT_EQ(stores[i], stores[0]) << spec << " thread variant " << i;
      EXPECT_EQ(floors[i], floors[0]) << spec << " thread variant " << i;
      const auto& history = results[i].history;
      const auto& reference = results[0].history;
      ASSERT_EQ(history.size(), reference.size());
      for (std::size_t j = 0; j < history.size(); ++j) {
        EXPECT_EQ(history[j].accuracy, reference[j].accuracy) << spec;
        EXPECT_EQ(history[j].loss, reference[j].loss) << spec;
      }
    }
  }
}

}  // namespace
}  // namespace tanglefl::tangle
