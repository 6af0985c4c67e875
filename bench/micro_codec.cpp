// Micro-benchmarks for the payload codec pipeline and the chunked
// ModelStore: per-stage encode/decode throughput on realistic model-delta
// shapes, content-defined chunking, and chunk-dedup insertion cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "nn/params.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "tangle/model_store.hpp"
#include "tangle/payload_codec.hpp"

namespace {

using namespace tanglefl;
using namespace tanglefl::tangle;

/// Base model plus a trained-looking update: small Gaussian deltas on a
/// fraction of coordinates, mirroring one node round of SGD on a shared
/// parent average.
struct PayloadFixture {
  nn::ParamVector base;
  nn::ParamVector params;

  explicit PayloadFixture(std::size_t n) : base(n), params(n) {
    Rng rng(7);
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = static_cast<float>(rng.normal(0.0, 0.3));
      const bool touched = rng.bernoulli(0.3);
      params[i] =
          base[i] +
          (touched ? static_cast<float>(rng.normal(0.0, 0.01)) : 0.0f);
    }
  }
};

/// Parameters drawn independently of the base, as a poisoned publish is:
/// the raw word stream codes shorter than the XOR delta, so the dense
/// best-of runs its raw pass to the end.
PayloadFixture independent_fixture(std::size_t n) {
  PayloadFixture fixture(n);
  Rng rng(11);
  for (float& value : fixture.params) {
    value = static_cast<float>(rng.uniform());
  }
  return fixture;
}

const std::vector<std::string>& codec_specs() {
  static const std::vector<std::string> specs = {
      "delta",
      "delta,entropy",
      "delta,quantize,entropy",
      "topk:0.05,quantize,entropy",
  };
  return specs;
}

void BM_PayloadCodec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string& spec = codec_specs()[
      static_cast<std::size_t>(state.range(1))];
  const PayloadFixture fixture(n);
  const PayloadCodec codec(parse_codec_spec(spec));
  std::size_t encoded_bytes = 0;
  for (auto _ : state) {
    const EncodedPayload encoded = codec.encode(fixture.params, fixture.base);
    nn::ParamVector decoded = codec.decode(encoded, fixture.base);
    encoded_bytes = encoded.bytes.size();
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetLabel(spec);
  state.counters["encoded_bytes"] =
      benchmark::Counter(static_cast<double>(encoded_bytes));
  state.counters["ratio"] = benchmark::Counter(
      static_cast<double>(encoded_bytes) /
      static_cast<double>(n * sizeof(float)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_PayloadCodec)
    ->ArgsProduct({{4096, 33000}, {0, 1, 2, 3}});

void BM_PayloadEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string& spec = codec_specs()[
      static_cast<std::size_t>(state.range(1))];
  const PayloadFixture fixture(n);
  const PayloadCodec codec(parse_codec_spec(spec));
  for (auto _ : state) {
    const EncodedPayload encoded = codec.encode(fixture.params, fixture.base);
    benchmark::DoNotOptimize(encoded.bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(spec);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_PayloadEncode)->ArgsProduct({{33000}, {0, 1, 2, 3}});

void BM_PayloadDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string& spec = codec_specs()[
      static_cast<std::size_t>(state.range(1))];
  const PayloadFixture fixture(n);
  const PayloadCodec codec(parse_codec_spec(spec));
  const EncodedPayload encoded = codec.encode(fixture.params, fixture.base);
  for (auto _ : state) {
    nn::ParamVector decoded = codec.decode(encoded, fixture.base);
    benchmark::DoNotOptimize(decoded.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(spec);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_PayloadDecode)->ArgsProduct({{33000}, {0, 1, 2, 3}});

/// delta,entropy on a payload unrelated to its base: the raw pass wins, so
/// it is never cut short.
void BM_PayloadEncodeRawWins(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PayloadFixture fixture = independent_fixture(n);
  const PayloadCodec codec(parse_codec_spec("delta,entropy"));
  std::size_t encoded_bytes = 0;
  for (auto _ : state) {
    const EncodedPayload encoded = codec.encode(fixture.params, fixture.base);
    encoded_bytes = encoded.bytes.size();
    benchmark::DoNotOptimize(encoded.bytes.data());
    benchmark::ClobberMemory();
  }
  state.counters["ratio"] = benchmark::Counter(
      static_cast<double>(encoded_bytes) /
      static_cast<double>(n * sizeof(float)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_PayloadEncodeRawWins)->Arg(33000);

void BM_ChunkBoundaries(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PayloadFixture fixture(n);
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(fixture.params.data()),
      fixture.params.size() * sizeof(float));
  for (auto _ : state) {
    auto ends = chunk_boundaries(bytes, ChunkParams{});
    benchmark::DoNotOptimize(ends.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_ChunkBoundaries)->Arg(4096)->Arg(33000);

/// Insert a stream of near-identical payloads (shared prefix, distinct
/// tail) into a chunking store — the ledger-growth pattern chunk dedup is
/// built for.
void BM_ChunkStore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PayloadFixture fixture(n);
  for (auto _ : state) {
    ModelStore store;
    store.configure_chunking(ChunkParams{});
    for (std::size_t k = 0; k < 8; ++k) {
      nn::ParamVector params = fixture.params;
      params[n - 1] = static_cast<float>(k + 1);
      store.add(std::move(params));
    }
    benchmark::DoNotOptimize(store.chunk_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_ChunkStore)->Arg(4096)->Arg(33000);

/// Flat-store baseline for the same insertion stream (whole-payload
/// hashing only), isolating the chunking overhead.
void BM_FlatStore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PayloadFixture fixture(n);
  for (auto _ : state) {
    ModelStore store;
    for (std::size_t k = 0; k < 8; ++k) {
      nn::ParamVector params = fixture.params;
      params[n - 1] = static_cast<float>(k + 1);
      store.add(std::move(params));
    }
    benchmark::DoNotOptimize(store.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_FlatStore)->Arg(4096)->Arg(33000);

}  // namespace

// google-benchmark rejects unrecognized flags, so the run manifest is
// requested through the environment instead: set TANGLEFL_METRICS_JSON to a
// path to enable domain-metric timing and write the manifest there.
int main(int argc, char** argv) {
  const char* manifest_path = std::getenv("TANGLEFL_METRICS_JSON");
  if (manifest_path != nullptr && *manifest_path != '\0') {
    tanglefl::obs::MetricsRegistry::global().reset();
    tanglefl::obs::set_timing_enabled(true);
  }
  tanglefl::Stopwatch total;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (manifest_path != nullptr && *manifest_path != '\0') {
    tanglefl::obs::RunManifest manifest;
    manifest.name = "micro_codec";
    manifest.total_seconds = total.seconds();
    const auto snapshot = tanglefl::obs::MetricsRegistry::global().snapshot(
        tanglefl::obs::SnapshotKind::kFull);
    if (!tanglefl::obs::write_manifest(manifest_path, manifest, snapshot)) {
      std::fprintf(stderr, "failed to write run manifest %s\n",
                   manifest_path);
      return 1;
    }
  }
  return 0;
}
