// Tests for the shared evaluation engine (core/eval_engine): content-keyed
// split identity, bit-exact cached evaluation, fused multi-model groups
// against the serial probe path, model pooling under concurrent probes, and
// end-to-end byte-identity across node-thread counts.
#include "core/eval_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/node.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"
#include "tangle/model_store.hpp"

namespace tanglefl::core {
namespace {

using tangle::ModelStore;
using tangle::Tangle;
using tangle::TxIndex;

data::DataSplit make_split(std::size_t n, std::uint64_t seed,
                           std::int32_t classes = 2) {
  Rng rng(seed);
  data::DataSplit split;
  split.features = nn::Tensor({n, 2});
  split.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    split.features.at(i, 0) = static_cast<float>(rng.normal());
    split.features.at(i, 1) = static_cast<float>(rng.normal());
    split.labels[i] =
        static_cast<std::int32_t>(rng.uniform_index(
            static_cast<std::uint64_t>(classes)));
  }
  return split;
}

nn::ModelFactory mlp_factory() {
  return [] { return nn::make_mlp(2, 6, 2); };
}

nn::ParamVector random_params(const nn::ModelFactory& factory,
                              std::uint64_t seed) {
  nn::Model model = factory();
  Rng rng(seed);
  model.init(rng);
  return model.get_parameters();
}

/// One cached probe: a single-request evaluate_many group.
EvalOutcome probe_once(EvalEngine& engine, const ParamsKey& key,
                  std::span<const float> params, const BatchedSplit& batched) {
  const std::array<EvalRequest, 1> requests{EvalRequest{params, key}};
  return engine.evaluate_many(requests, batched).front();
}

/// One cached probe of a store payload, keyed by its id.
EvalOutcome probe_once(EvalEngine& engine, const ModelStore& store,
                  tangle::PayloadId id, const BatchedSplit& batched) {
  return probe_once(engine, ParamsKey::single(id), store.get(id), batched);
}

TEST(EvalEngine, SplitKeyIsContentIdentity) {
  EvalEngine engine(mlp_factory());
  const data::DataSplit split = make_split(30, 5);
  data::DataSplit copy = split;  // distinct object, identical contents

  const auto a = engine.prepare(split);
  const auto b = engine.prepare(copy);
  EXPECT_EQ(a.get(), b.get());  // reused by content, not by address
  EXPECT_EQ(a->key(), b->key());
  EXPECT_EQ(engine.cached_splits(), 1u);

  copy.features.at(0, 0) += 1.0f;
  const auto c = engine.prepare(copy);
  EXPECT_NE(a.get(), c.get());
  EXPECT_FALSE(a->key() == c->key());

  data::DataSplit relabeled = split;
  relabeled.labels[0] = 1 - relabeled.labels[0];
  const auto d = engine.prepare(relabeled);
  EXPECT_NE(a.get(), d.get());
  EXPECT_FALSE(a->key() == d->key());
  EXPECT_EQ(engine.cached_splits(), 3u);
}

TEST(EvalEngine, EvaluateMatchesDataEvaluateBitwise) {
  // 150 samples -> batches of 64, 64, 22: exercises the partial tail batch
  // and the per-batch mean-times-count accumulation order.
  EvalEngine engine(mlp_factory());
  const data::DataSplit split = make_split(150, 11);
  const auto prepared = engine.prepare(split);
  ASSERT_EQ(prepared->samples(), 150u);
  ASSERT_EQ(prepared->batch_count(), 3u);

  nn::Model model = mlp_factory()();
  Rng rng(21);
  model.init(rng);

  const data::EvalResult direct = data::evaluate(model, split);
  const data::EvalResult pooled = engine.evaluate(model, *prepared);
  EXPECT_EQ(direct.loss, pooled.loss);  // bitwise, not approximate
  EXPECT_EQ(direct.accuracy, pooled.accuracy);
}

TEST(EvalEngine, PayloadEvalCachesAcrossProbesAndDedupedPayloads) {
  EvalEngine engine(mlp_factory());
  ModelStore store;
  const nn::ParamVector params = random_params(mlp_factory(), 7);
  const auto first = store.add(params);
  const auto duplicate = store.add(params);  // content-deduplicated
  ASSERT_EQ(first.id, duplicate.id);

  const data::DataSplit split = make_split(40, 13);
  const auto prepared = engine.prepare(split);

  const EvalOutcome miss = probe_once(engine, store, first.id, *prepared);
  EXPECT_FALSE(miss.cache_hit);
  const EvalOutcome hit = probe_once(engine, store, duplicate.id, *prepared);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(miss.result.loss, hit.result.loss);
  EXPECT_EQ(miss.result.accuracy, hit.result.accuracy);
  EXPECT_EQ(engine.cached_results(), 1u);

  // Same payload on a different split is a distinct cache entry.
  const auto other = engine.prepare(make_split(40, 14));
  EXPECT_FALSE(probe_once(engine, store, first.id, *other).cache_hit);
  EXPECT_EQ(engine.cached_results(), 2u);
}

TEST(EvalEngine, ParamsEvalKeyedByOrderedPayloadList) {
  EvalEngine engine(mlp_factory());
  ModelStore store;
  const auto a = store.add(random_params(mlp_factory(), 31));
  const auto b = store.add(random_params(mlp_factory(), 32));
  const std::vector<const nn::ParamVector*> pointers = {&store.get(a.id),
                                                        &store.get(b.id)};
  const nn::ParamVector averaged = nn::average_params(pointers);

  const data::DataSplit split = make_split(50, 15);
  const auto prepared = engine.prepare(split);

  const ParamsKey key{{a.id, b.id}};
  const EvalOutcome miss = probe_once(engine, key, averaged, *prepared);
  EXPECT_FALSE(miss.cache_hit);
  const EvalOutcome hit = probe_once(engine, key, averaged, *prepared);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(miss.result.loss, hit.result.loss);

  // The reversed list is a different identity (average_params is order-
  // sensitive in float arithmetic only by convention; the key is exact).
  const EvalOutcome reversed =
      probe_once(engine, ParamsKey{{b.id, a.id}}, averaged, *prepared);
  EXPECT_FALSE(reversed.cache_hit);

  // The cached value equals the direct uncached computation bitwise.
  nn::Model model = mlp_factory()();
  model.set_parameters(averaged);
  const data::EvalResult direct = data::evaluate(model, split);
  EXPECT_EQ(hit.result.loss, direct.loss);
  EXPECT_EQ(hit.result.accuracy, direct.accuracy);
}

TEST(EvalEngine, ParamsKeyCachesPayloadHash) {
  const ParamsKey a{{1, 2, 3}};
  const ParamsKey b{{1, 2, 3}};
  const ParamsKey c{{3, 2, 1}};
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());  // order-sensitive, like the identity
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(ParamsKey::single(7).payloads(), (std::vector<tangle::PayloadId>{7}));
}

// An image split matching small_factory()'s 8x8 single-channel input, so
// evaluate_many exercises the fused conv path (shared input packs).
data::DataSplit make_image_split(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::DataSplit split;
  split.features = nn::Tensor({n, 1, 8, 8});
  for (auto& v : split.features.values()) {
    v = static_cast<float>(rng.normal());
  }
  split.labels.resize(n);
  for (auto& l : split.labels) {
    l = static_cast<std::int32_t>(rng.uniform_index(3));
  }
  return split;
}

nn::ModelFactory conv_factory() {
  return [] {
    nn::ImageCnnConfig config;
    config.image_size = 8;
    config.num_classes = 3;
    config.conv1_channels = 2;
    config.conv2_channels = 4;
    config.hidden = 8;
    return nn::make_image_cnn(config);
  };
}

TEST(EvalEngine, EvaluateManyMatchesPerModelEvaluateBitExactly) {
  // CNN stack: the group runs the fused pass (shared conv input packs,
  // grid on a kernel pool). 150 samples -> batches of 64/64/22, so the
  // per-model reduction crosses a partial tail batch.
  const nn::ModelFactory factory = conv_factory();
  EvalEngine engine(factory);
  const data::DataSplit split = make_image_split(150, 71);
  const auto prepared = engine.prepare(split);

  ModelStore store;
  std::vector<tangle::PayloadId> ids;
  for (std::size_t i = 0; i < 5; ++i) {
    ids.push_back(store.add(random_params(factory, 300 + i)).id);
  }

  std::vector<data::EvalResult> expected;
  for (const tangle::PayloadId id : ids) {
    nn::Model model = factory();
    model.set_parameters(store.get(id));
    expected.push_back(data::evaluate(model, split));
  }

  ThreadPool pool(3);
  const std::vector<EvalOutcome> outcomes =
      engine.payloads_eval_many(store, ids, *prepared, &pool);
  ASSERT_EQ(outcomes.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_FALSE(outcomes[i].cache_hit);
    EXPECT_EQ(outcomes[i].result.loss, expected[i].loss);  // bitwise
    EXPECT_EQ(outcomes[i].result.accuracy, expected[i].accuracy);
    EXPECT_EQ(outcomes[i].result.samples, expected[i].samples);
  }

  // A repeat group resolves entirely from the cache.
  const std::vector<EvalOutcome> again =
      engine.payloads_eval_many(store, ids, *prepared, &pool);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(again[i].cache_hit);
    EXPECT_EQ(again[i].result.loss, expected[i].loss);
  }
}

TEST(EvalEngine, EvaluateManyNonConvStackMatchesBitExactly) {
  // MLP stack: no conv to fuse, so the group takes the per-model grid
  // fallback — results must still match the standalone path bitwise.
  EvalEngine engine(mlp_factory());
  const data::DataSplit split = make_split(150, 72);
  const auto prepared = engine.prepare(split);
  ModelStore store;
  std::vector<tangle::PayloadId> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    ids.push_back(store.add(random_params(mlp_factory(), 400 + i)).id);
  }
  const std::vector<EvalOutcome> outcomes =
      engine.payloads_eval_many(store, ids, *prepared, nullptr);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    nn::Model model = mlp_factory()();
    model.set_parameters(store.get(ids[i]));
    const data::EvalResult direct = data::evaluate(model, split);
    EXPECT_FALSE(outcomes[i].cache_hit);
    EXPECT_EQ(outcomes[i].result.loss, direct.loss);
    EXPECT_EQ(outcomes[i].result.accuracy, direct.accuracy);
  }
}

TEST(EvalEngine, EvaluateManyCacheInterleavings) {
  const nn::ModelFactory factory = conv_factory();
  EvalEngine engine(factory);
  const data::DataSplit split = make_image_split(90, 73);
  const auto prepared = engine.prepare(split);
  ModelStore store;
  const auto warm = store.add(random_params(factory, 500));
  const auto cold = store.add(random_params(factory, 501));
  const nn::ParamVector fresh = random_params(factory, 502);

  probe_once(engine, store, warm.id, *prepared);  // pre-warm one key
  ASSERT_EQ(engine.cached_results(), 1u);

  // Group mixing: a cached key, a missing key, an in-group duplicate of
  // that missing key, and a keyless request.
  const std::vector<EvalRequest> requests{
      EvalRequest{store.get(warm.id), ParamsKey::single(warm.id)},
      EvalRequest{store.get(cold.id), ParamsKey::single(cold.id)},
      EvalRequest{store.get(cold.id), ParamsKey::single(cold.id)},
      EvalRequest{fresh, std::nullopt},
  };
  const std::vector<EvalOutcome> outcomes =
      engine.evaluate_many(requests, *prepared, nullptr);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].cache_hit);
  EXPECT_FALSE(outcomes[1].cache_hit);  // first occurrence pays the eval
  EXPECT_TRUE(outcomes[2].cache_hit);   // duplicate resolves against it
  EXPECT_FALSE(outcomes[3].cache_hit);  // keyless: always evaluated
  EXPECT_EQ(outcomes[1].result.loss, outcomes[2].result.loss);

  // Bit-exact against the standalone path for every distinct probe.
  for (const auto& [params, expected_index] :
       std::vector<std::pair<std::span<const float>, std::size_t>>{
           {store.get(warm.id), 0}, {store.get(cold.id), 1}, {fresh, 3}}) {
    nn::Model model = factory();
    model.set_parameters(params);
    const data::EvalResult direct = data::evaluate(model, split);
    EXPECT_EQ(outcomes[expected_index].result.loss, direct.loss);
    EXPECT_EQ(outcomes[expected_index].result.accuracy, direct.accuracy);
  }

  // The keyless result was not cached; the duplicate added one entry.
  EXPECT_EQ(engine.cached_results(), 2u);
}

TEST(EvalEngine, EvaluateManyBatchedOffReplaysSerialPath) {
  // One fused group on a pool against the same probes run one at a time
  // (per-item single-request groups on a second engine): losses, hit flags and
  // eval.cache.* totals must all agree. The group repeats one payload so
  // the in-group alias resolves as a hit, like the serial re-probe.
  const nn::ModelFactory factory = conv_factory();
  EvalEngine batched(factory);
  EvalEngine serial(factory);
  const data::DataSplit split = make_image_split(90, 74);
  const auto prepared_batched = batched.prepare(split);
  const auto prepared_serial = serial.prepare(split);

  ModelStore store;
  std::vector<tangle::PayloadId> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    ids.push_back(store.add(random_params(factory, 600 + i)).id);
  }
  ids.push_back(ids[1]);

  obs::Counter& hits = obs::MetricsRegistry::global().counter("eval.cache.hit");
  obs::Counter& misses =
      obs::MetricsRegistry::global().counter("eval.cache.miss");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  ThreadPool pool(2);
  const auto a = batched.payloads_eval_many(store, ids, *prepared_batched,
                                            &pool);
  const std::uint64_t fused_hits = hits.value() - hits_before;
  const std::uint64_t fused_misses = misses.value() - misses_before;

  std::vector<EvalOutcome> b;
  for (const tangle::PayloadId id : ids) {
    b.push_back(probe_once(serial, store, id, *prepared_serial));
  }
  EXPECT_EQ(hits.value() - hits_before - fused_hits, fused_hits);
  EXPECT_EQ(misses.value() - misses_before - fused_misses, fused_misses);
  EXPECT_EQ(fused_hits, 1u);
  EXPECT_EQ(fused_misses, 4u);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cache_hit, b[i].cache_hit);
    EXPECT_EQ(a[i].result.loss, b[i].result.loss);  // bitwise
    EXPECT_EQ(a[i].result.accuracy, b[i].result.accuracy);
  }
}

TEST(EvalEngine, PoolReusesInstancesUnderParallelFor) {
  // Every probe carries a distinct key, so every probe misses, runs a
  // forward pass and needs a model. parallel_for runs at most (workers +
  // caller) lanes, so the pool must not create more instances than that —
  // and far fewer than probes.
  EvalEngine engine(mlp_factory());
  ModelStore store;
  constexpr std::size_t kPayloads = 8;
  std::vector<tangle::PayloadId> ids;
  for (std::size_t i = 0; i < kPayloads; ++i) {
    ids.push_back(store.add(random_params(mlp_factory(), 100 + i)).id);
  }
  const data::DataSplit split = make_split(60, 17);
  const auto prepared = engine.prepare(split);

  std::vector<double> expected(kPayloads);
  for (std::size_t i = 0; i < kPayloads; ++i) {
    nn::Model model = mlp_factory()();
    model.set_parameters(store.get(ids[i]));
    expected[i] = data::evaluate(model, split).loss;
  }

  constexpr std::size_t kProbes = 64;
  std::vector<double> losses(kProbes, 0.0);
  ThreadPool pool(3);
  pool.parallel_for(kProbes, [&](std::size_t i) {
    const EvalOutcome outcome =
        probe_once(engine, ParamsKey::single(1000 + i),
                           store.get(ids[i % kPayloads]), *prepared);
    EXPECT_FALSE(outcome.cache_hit);
    losses[i] = outcome.result.loss;
  });
  for (std::size_t i = 0; i < kProbes; ++i) {
    EXPECT_EQ(losses[i], expected[i % kPayloads]) << "probe " << i;
  }
  EXPECT_LE(engine.models_created(), 4u);  // 3 workers + the caller lane
  EXPECT_EQ(engine.pool_size(), engine.models_created());  // all returned
}

TEST(EvalEngine, SplitLruEvictsOverBudgetAndKeepsOutstandingEntries) {
  const data::DataSplit split_a = make_split(64, 101);
  const data::DataSplit split_b = make_split(64, 102);
  const data::DataSplit split_c = make_split(64, 103);

  // All three splits have the same shape, hence the same retained bytes;
  // a budget of exactly two of them makes the third insert evict the LRU.
  std::size_t bytes_per = 0;
  {
    EvalEngine probe(mlp_factory());
    bytes_per = probe.prepare(split_a)->bytes();
  }
  ASSERT_GT(bytes_per, 0u);
  EvalEngineConfig config;
  config.batched_budget_bytes = 2 * bytes_per;
  EvalEngine engine(mlp_factory(), config);

  const auto a = engine.prepare(split_a);
  const auto b = engine.prepare(split_b);
  EXPECT_EQ(engine.cached_splits(), 2u);
  EXPECT_EQ(engine.prepare(split_a).get(), a.get());  // refresh a's LRU tick
  const auto c = engine.prepare(split_c);             // over budget: b evicted
  EXPECT_EQ(engine.cached_splits(), 2u);

  // a was refreshed and survived; b was the LRU and is gone (a re-prepare
  // rebuilds a distinct instance — `b` is still alive, so the address
  // cannot be reused).
  EXPECT_EQ(engine.prepare(split_a).get(), a.get());
  EXPECT_NE(engine.prepare(split_b).get(), b.get());

  // Regression for the eviction restructure: an outstanding reference to
  // the evicted BatchedSplit stays fully usable (eviction only drops the
  // cache's reference; destruction is deferred past the lock), and
  // evaluating through it is still bit-exact.
  nn::Model model = mlp_factory()();
  Rng rng(33);
  model.init(rng);
  const data::EvalResult direct = data::evaluate(model, split_b);
  const data::EvalResult via_evicted = engine.evaluate(model, *b);
  EXPECT_EQ(direct.loss, via_evicted.loss);
  EXPECT_EQ(direct.accuracy, via_evicted.accuracy);
  (void)c;
}

// --- end-to-end byte-identity -------------------------------------------

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

void expect_identical_runs(const Tangle& tangle_a, const Tangle& tangle_b,
                           const RunResult& a, const RunResult& b) {
  ASSERT_EQ(tangle_a.size(), tangle_b.size());
  for (TxIndex i = 0; i < tangle_a.size(); ++i) {
    EXPECT_EQ(to_hex(tangle_a.transaction(i).id),
              to_hex(tangle_b.transaction(i).id));
  }
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const RoundRecord& ra = a.history[i];
    const RoundRecord& rb = b.history[i];
    EXPECT_EQ(ra.round, rb.round);
    EXPECT_EQ(ra.accuracy, rb.accuracy);  // bitwise
    EXPECT_EQ(ra.loss, rb.loss);
    EXPECT_EQ(ra.target_misclassification, rb.target_misclassification);
    EXPECT_EQ(ra.backdoor_success, rb.backdoor_success);
    EXPECT_EQ(ra.tangle_size, rb.tangle_size);
    EXPECT_EQ(ra.tip_count, rb.tip_count);
    EXPECT_EQ(ra.publish_rate, rb.publish_rate);
    EXPECT_EQ(ra.published_cumulative, rb.published_cumulative);
    EXPECT_EQ(ra.suppressed_cumulative, rb.suppressed_cumulative);
    EXPECT_EQ(ra.ledger_bytes, rb.ledger_bytes);
  }
}

TEST(EvalEngine, SimulationByteIdenticalAcrossThreadCounts) {
  // The engine's sharded cache must not perturb determinism when node
  // steps probe it concurrently.
  const auto dataset = small_dataset();
  SimulationConfig one;
  one.rounds = 4;
  one.nodes_per_round = 4;
  one.eval_every = 2;
  one.eval_nodes_fraction = 0.5;
  one.node.training.epochs = 1;
  one.node.training.sgd.learning_rate = 0.05;
  one.node.num_tips = 2;
  one.node.tip_sample_size = 4;
  one.seed = 1;
  one.threads = 1;
  SimulationConfig four = one;
  four.threads = 4;

  TangleSimulation a(dataset, small_factory(), one);
  TangleSimulation b(dataset, small_factory(), four);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  expect_identical_runs(a.tangle(), b.tangle(), ra, rb);
}

}  // namespace
}  // namespace tanglefl::core
