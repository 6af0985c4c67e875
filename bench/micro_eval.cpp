// Micro-benchmarks for the evaluation path: the per-probe cost Algorithm 2
// and the Section III-E defence pay for every loss lookup. Cold = the
// pre-engine path (factory() + set_parameters + data::evaluate per probe);
// Pooled = model lease + pre-batched split; CacheHit = repeated probe of a
// payload already in the (params, split) result cache.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/eval_engine.hpp"
#include "data/training.hpp"
#include "nn/model_zoo.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace tanglefl;

struct EvalFixture {
  nn::ModelFactory factory;
  nn::ParamVector params;
  data::DataSplit split;
};

// FEMNIST shape: 28x28 grayscale, 62 classes (Table I).
EvalFixture make_cnn_fixture(std::size_t samples) {
  EvalFixture fixture;
  fixture.factory = [] {
    nn::ImageCnnConfig config;
    config.image_size = 28;
    config.num_classes = 62;
    return nn::make_image_cnn(config);
  };
  nn::Model model = fixture.factory();
  Rng rng(1);
  model.init(rng);
  fixture.params = model.get_parameters();
  fixture.split.features = nn::Tensor({samples, 1, 28, 28});
  for (auto& v : fixture.split.features.values()) {
    v = static_cast<float>(rng.normal());
  }
  fixture.split.labels.resize(samples);
  for (auto& l : fixture.split.labels) {
    l = static_cast<std::int32_t>(rng.uniform_index(62));
  }
  return fixture;
}

// Shakespeare shape: sequence 80, vocab 80, hidden 256 (Table I).
EvalFixture make_lstm_fixture(std::size_t samples) {
  EvalFixture fixture;
  fixture.factory = [] {
    nn::CharLstmConfig config;
    config.vocab_size = 80;
    config.seq_length = 80;
    config.embedding_dim = 8;
    config.hidden_dim = 256;
    return nn::make_char_lstm(config);
  };
  nn::Model model = fixture.factory();
  Rng rng(1);
  model.init(rng);
  fixture.params = model.get_parameters();
  fixture.split.features = nn::Tensor({samples, 80});
  for (auto& v : fixture.split.features.values()) {
    v = static_cast<float>(rng.uniform_index(80));
  }
  fixture.split.labels.resize(samples);
  for (auto& l : fixture.split.labels) {
    l = static_cast<std::int32_t>(rng.uniform_index(80));
  }
  return fixture;
}

EvalFixture make_fixture(bool lstm, std::size_t samples) {
  return lstm ? make_lstm_fixture(samples) : make_cnn_fixture(samples);
}

// The pre-engine probe: a fresh model instance and per-batch gathers each
// iteration, exactly what params_loss used to do per candidate.
void params_loss_cold_loop(benchmark::State& state, bool lstm) {
  const EvalFixture fixture = make_fixture(lstm, 64);
  for (auto _ : state) {
    nn::Model model = fixture.factory();
    model.set_parameters(fixture.params);
    const data::EvalResult result = data::evaluate(model, fixture.split);
    benchmark::DoNotOptimize(result.loss);
  }
}

void BM_ParamsLossColdCNN(benchmark::State& state) {
  params_loss_cold_loop(state, /*lstm=*/false);
}
BENCHMARK(BM_ParamsLossColdCNN)->Unit(benchmark::kMillisecond);

void BM_ParamsLossColdLSTM(benchmark::State& state) {
  params_loss_cold_loop(state, /*lstm=*/true);
}
BENCHMARK(BM_ParamsLossColdLSTM)->Unit(benchmark::kMillisecond);

// Engine probe without cache reuse: pooled model instance + pre-batched
// split, but a full forward sweep per iteration (acquire + evaluate never
// consults the result cache, isolating the pool + batching win).
void params_loss_pooled_loop(benchmark::State& state, bool lstm) {
  const EvalFixture fixture = make_fixture(lstm, 64);
  core::EvalEngine engine(fixture.factory);
  const auto prepared = engine.prepare(fixture.split);
  for (auto _ : state) {
    core::EvalEngine::ModelLease lease = engine.acquire();
    lease.model().set_parameters(fixture.params);
    const data::EvalResult result = engine.evaluate(lease.model(), *prepared);
    benchmark::DoNotOptimize(result.loss);
  }
}

void BM_ParamsLossPooledCNN(benchmark::State& state) {
  params_loss_pooled_loop(state, /*lstm=*/false);
}
BENCHMARK(BM_ParamsLossPooledCNN)->Unit(benchmark::kMillisecond);

void BM_ParamsLossPooledLSTM(benchmark::State& state) {
  params_loss_pooled_loop(state, /*lstm=*/true);
}
BENCHMARK(BM_ParamsLossPooledLSTM)->Unit(benchmark::kMillisecond);

// Warm probe: the (params, split) result is already cached, so the probe
// costs one sharded map lookup — the robust-mode steady state where most
// candidate tips were already scored in earlier rounds.
void eval_cache_hit_loop(benchmark::State& state, bool lstm) {
  const EvalFixture fixture = make_fixture(lstm, 64);
  core::EvalEngine engine(fixture.factory);
  const auto prepared = engine.prepare(fixture.split);
  const std::array<core::EvalRequest, 1> requests{
      core::EvalRequest{fixture.params, core::ParamsKey{{42}}}};
  engine.evaluate_many(requests, *prepared);  // warm the cache
  for (auto _ : state) {
    const std::vector<core::EvalOutcome> outcomes =
        engine.evaluate_many(requests, *prepared);
    benchmark::DoNotOptimize(outcomes.front().result.loss);
  }
}

void BM_EvalCacheHitCNN(benchmark::State& state) {
  eval_cache_hit_loop(state, /*lstm=*/false);
}
BENCHMARK(BM_EvalCacheHitCNN);

void BM_EvalCacheHitLSTM(benchmark::State& state) {
  eval_cache_hit_loop(state, /*lstm=*/true);
}
BENCHMARK(BM_EvalCacheHitLSTM);

// ------------------------------------------------------- multi-model probes
//
// Robust tip selection's per-step workload: k same-architecture candidate
// models scored on the paper CNN shape. Cold is the pre-engine path per
// candidate; SerialMiss is the pre-batching engine path (one standalone
// pooled forward per candidate); Fused is one evaluate_many group of
// keyless requests, which shares each batch's conv im2col + panel pack
// across the k models and drives the k×batches grid through a kernel
// ThreadPool. Neither consults the result cache, so every iteration pays
// its forwards. All three produce bit-identical losses.

std::vector<nn::ParamVector> make_candidates(const EvalFixture& fixture,
                                             std::size_t k) {
  std::vector<nn::ParamVector> candidates(k, fixture.params);
  Rng rng(7);
  for (auto& params : candidates) {
    for (auto& v : params) v += 0.01f * static_cast<float>(rng.normal());
  }
  return candidates;
}

void BM_MultiEvalCold(benchmark::State& state) {
  const EvalFixture fixture = make_cnn_fixture(64);
  const auto candidates =
      make_candidates(fixture, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& params : candidates) {
      nn::Model model = fixture.factory();
      model.set_parameters(params);
      sum += data::evaluate(model, fixture.split).loss;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_MultiEvalCold)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_MultiEvalSerialMiss(benchmark::State& state) {
  const EvalFixture fixture = make_cnn_fixture(64);
  const auto candidates =
      make_candidates(fixture, static_cast<std::size_t>(state.range(0)));
  core::EvalEngine engine(fixture.factory);
  const auto prepared = engine.prepare(fixture.split);
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& params : candidates) {
      core::EvalEngine::ModelLease lease = engine.acquire();
      lease.model().set_parameters(params);
      sum += engine.evaluate(lease.model(), *prepared).loss;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_MultiEvalSerialMiss)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_MultiEvalFused(benchmark::State& state) {
  const EvalFixture fixture = make_cnn_fixture(64);
  const auto candidates =
      make_candidates(fixture, static_cast<std::size_t>(state.range(0)));
  core::EvalEngine engine(fixture.factory);
  const auto prepared = engine.prepare(fixture.split);
  ThreadPool pool;  // hardware concurrency, as the sim harness kernel pool
  std::vector<core::EvalRequest> requests(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    requests[i].params = candidates[i];  // keyless: never a cache hit
  }
  for (auto _ : state) {
    double sum = 0.0;
    const std::vector<core::EvalOutcome> outcomes =
        engine.evaluate_many(requests, *prepared, &pool);
    for (const core::EvalOutcome& outcome : outcomes) {
      sum += outcome.result.loss;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_MultiEvalFused)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

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
    manifest.name = "micro_eval";
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
