#include "tangle/payload_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "nn/privacy.hpp"
#include "support/rng.hpp"

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
  nn::ParamVector params = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest(),
                            1.0f};
  nn::ParamVector base(params.size(), 0.5f);
  for (unsigned combo : {0u, 1u, 8u, 9u}) {  // off, delta, entropy, both
    const PayloadCodec codec(combo_config(combo));
    const nn::ParamVector decoded =
        codec.decode(codec.encode(params, base), base);
    EXPECT_TRUE(bit_equal(decoded, params)) << "combo " << combo;
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
