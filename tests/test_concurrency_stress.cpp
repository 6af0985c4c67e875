// ThreadSanitizer-oriented stress tests for the shared-state hot paths the
// parallel simulation engine exercises: the ModelStore under concurrent
// writers and readers, ThreadPool::parallel_for driven from several
// external threads at once, and a multi-threaded simulation round. These
// tests pass in any configuration; their value is highest under
// `cmake --preset tsan` (and `--preset asan`), where the sanitizer turns
// latent races and dangling references into hard failures.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <iterator>
#include <thread>
#include <vector>

#include "core/eval_engine.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tangle/model_store.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl {
namespace {

// Regression stress for a real bug: ModelStore used to keep entries in a
// std::vector, so the references handed out by get()/hash_of() dangled as
// soon as a concurrent add() forced a reallocation. The deque-backed store
// must keep them valid while writers grow the store.
TEST(ConcurrencyStress, ModelStoreReadersDuringGrowth) {
  tangle::ModelStore store;
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 200;

  // Seed one payload so readers always have something to chase.
  const auto seeded = store.add({0.0f, 0.0f});

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> read_checksum{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t visible = store.size();
        for (std::size_t id = 0; id < visible; ++id) {
          // Hold the references across further concurrent adds and touch
          // them afterwards: stale addresses fault under ASan/TSan.
          const nn::ParamVector& params = store.get(id);
          const Sha256Digest& digest = store.hash_of(id);
          read_checksum.fetch_add(
              static_cast<std::uint64_t>(params.size()) + digest[0],
              std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        const float unique =
            static_cast<float>(w * kPerWriter + i) + 1.0f;
        const auto added = store.add({unique, unique * 0.5f});
        // The reference must be valid immediately and stay valid.
        ASSERT_EQ(store.get(added.id).front(), unique);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(store.size(), 1 + kWriters * kPerWriter);
  EXPECT_GT(read_checksum.load(), 0u);
  EXPECT_EQ(store.get(seeded.id), (nn::ParamVector{0.0f, 0.0f}));
}

// Publishing node steps call ModelStore::prepare in their pool lanes while
// other lanes read parent payloads and the engine's barrier, or pruning,
// writes. prepare() reads only the chunk layout under the reader lock;
// this runs it against get()/is_released() readers and a writer that adds
// and releases, so ThreadSanitizer sees every pairing.
TEST(ConcurrencyStress, PrepareAlongsideReadersAndWriter) {
  tangle::ModelStore store;
  tangle::ChunkParams chunks;
  chunks.min_bytes = 8;
  chunks.max_bytes = 64;
  chunks.mask_bits = 4;
  store.configure_chunking(chunks);

  const auto payload = [](float seed) {
    nn::ParamVector params(48);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] = seed + static_cast<float>(i % 7);
    }
    return params;
  };
  // Even ids stay live for the readers; the writer releases the odd ones.
  constexpr std::size_t kSeeded = 40;
  for (std::size_t i = 0; i < kSeeded; ++i) {
    store.add(payload(static_cast<float>(i) * 10.0f));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> read_checksum{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::size_t id = 0; id < kSeeded; ++id) {
          const bool released = store.is_released(id);
          if (id % 2 == 0) {
            EXPECT_FALSE(released);
            read_checksum.fetch_add(store.get(id).size(),
                                    std::memory_order_relaxed);
          }
        }
      }
    });
  }

  constexpr std::size_t kPreparers = 3;
  constexpr std::size_t kPerPreparer = 60;
  std::vector<std::vector<tangle::PreparedPayload>> prepared(kPreparers);
  std::vector<std::thread> preparers;
  for (std::size_t p = 0; p < kPreparers; ++p) {
    preparers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerPreparer; ++i) {
        prepared[p].push_back(store.prepare(
            payload(1000.0f + static_cast<float>(p * kPerPreparer + i))));
      }
    });
  }
  for (std::size_t i = 1; i < kSeeded; i += 2) {
    store.release(i);
    store.add(payload(5000.0f + static_cast<float>(i)));
  }
  for (auto& t : preparers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (const auto& batch : prepared) {
    for (const tangle::PreparedPayload& ready : batch) {
      const auto added = store.add(ready);
      EXPECT_FALSE(added.deduplicated);
      EXPECT_EQ(added.hash, tangle::ModelStore::hash_params(ready.params()));
      EXPECT_EQ(store.get(added.id), ready.params());
    }
  }
  EXPECT_EQ(store.size(), kSeeded + kSeeded / 2 + kPreparers * kPerPreparer);
  EXPECT_GT(read_checksum.load(), 0u);
}

TEST(ConcurrencyStress, ModelStoreConcurrentDeduplication) {
  tangle::ModelStore store;
  constexpr int kThreads = 8;
  std::atomic<int> dedup_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &dedup_hits] {
      for (int i = 0; i < 50; ++i) {
        // All threads insert the same small set of payloads; exactly one
        // insertion per distinct payload may win.
        const auto added = store.add({static_cast<float>(i % 10)});
        if (added.deduplicated) dedup_hits.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(dedup_hits.load(), kThreads * 50 - 10);
}

TEST(ConcurrencyStress, ParallelForFromMultipleExternalThreads) {
  ThreadPool pool(4);
  constexpr int kDrivers = 4;
  constexpr std::size_t kIterations = 500;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&pool, &total] {
      for (int repeat = 0; repeat < 5; ++repeat) {
        pool.parallel_for(kIterations, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(total.load(), kDrivers * 5 * kIterations);
}

TEST(ConcurrencyStress, SubmitStormWhileParallelForRuns) {
  ThreadPool pool(4);
  std::atomic<int> submitted_done{0};
  std::vector<std::future<void>> futures;
  std::atomic<std::size_t> loop_done{0};
  std::thread storm([&] {
    for (int i = 0; i < 200; ++i) {
      futures.push_back(
          pool.submit([&submitted_done] { submitted_done.fetch_add(1); }));
    }
  });
  pool.parallel_for(200, [&loop_done](std::size_t) {
    loop_done.fetch_add(1, std::memory_order_relaxed);
  });
  storm.join();
  for (auto& f : futures) f.get();
  EXPECT_EQ(submitted_done.load(), 200);
  EXPECT_EQ(loop_done.load(), 200u);
}

// End-to-end: a simulation round trains nodes on a real worker pool, all
// slots reading the shared TangleView and ModelStore concurrently. Under
// TSan this covers the engine's actual sharing pattern, and determinism is
// asserted on top: thread count must not change the resulting ledger.
TEST(ConcurrencyStress, ParallelSimulationRoundMatchesSerial) {
  data::FemnistSynthConfig data_config;
  data_config.num_users = 8;
  data_config.num_classes = 3;
  data_config.image_size = 8;
  data_config.mean_samples_per_user = 12.0;
  data_config.seed = 7;
  const auto dataset = data::make_femnist_synth(data_config);

  nn::ImageCnnConfig model_config;
  model_config.image_size = 8;
  model_config.num_classes = 3;
  model_config.conv1_channels = 2;
  model_config.conv2_channels = 4;
  model_config.hidden = 8;
  const auto factory = [model_config] {
    return nn::make_image_cnn(model_config);
  };

  core::SimulationConfig config;
  config.rounds = 3;
  config.nodes_per_round = 6;
  config.eval_every = 3;
  config.node.training.epochs = 1;
  config.seed = 11;

  config.threads = 4;
  core::TangleSimulation parallel_sim(dataset, factory, config);
  for (std::uint64_t r = 1; r <= config.rounds; ++r) {
    parallel_sim.run_round(r);
  }

  config.threads = 1;
  core::TangleSimulation serial_sim(dataset, factory, config);
  for (std::uint64_t r = 1; r <= config.rounds; ++r) {
    serial_sim.run_round(r);
  }

  ASSERT_EQ(parallel_sim.tangle().size(), serial_sim.tangle().size());
  for (tangle::TxIndex i = 0; i < parallel_sim.tangle().size(); ++i) {
    EXPECT_EQ(parallel_sim.tangle().transaction(i).id,
              serial_sim.tangle().transaction(i).id)
        << "transaction " << i << " diverged across thread counts";
  }
}

// The two LRU caches (ViewCache cone entries, EvalEngine batched splits)
// hammered from the same worker pool with a deliberate mix of hits, misses
// and evictions: capacity 2 against a rotation of six prefixes, and a split
// budget of two against a rotation of three splits. Under TSan this is the
// regression net for the lock-layer restructure — outstanding shared_ptrs
// must stay valid while other workers evict the slots they came from, and
// every result must equal its serially computed expectation.
TEST(ConcurrencyStress, ViewCacheAndEvalEngineSharedUnderOnePool) {
  // A small random DAG, grown like the ViewCache unit-test fixture.
  tangle::ModelStore ledger_store;
  const auto genesis = ledger_store.add({0.0f});
  tangle::Tangle tangle(genesis.id, genesis.hash);
  Rng grow_rng(91);
  for (std::size_t i = 0; i < 60; ++i) {
    const std::size_t n = tangle.size();
    std::vector<tangle::TxIndex> parents = {
        static_cast<tangle::TxIndex>(grow_rng.uniform_index(n))};
    if (grow_rng.uniform() < 0.7) {
      parents.push_back(
          static_cast<tangle::TxIndex>(grow_rng.uniform_index(n)));
    }
    const auto added = ledger_store.add({static_cast<float>(i) + 1.0f});
    tangle.add_transaction(parents, added.id, added.hash, i + 1);
  }
  const std::size_t prefixes[] = {10, 20, 30, 40, 50, 61};
  std::vector<std::uint64_t> expected_cone_sum(std::size(prefixes), 0);
  for (std::size_t p = 0; p < std::size(prefixes); ++p) {
    for (const std::uint32_t c :
         tangle.view_prefix(prefixes[p]).past_cone_sizes()) {
      expected_cone_sum[p] += c;
    }
  }

  // Three payloads evaluated against three rotating splits.
  const auto factory = [] { return nn::make_mlp(2, 6, 2); };
  tangle::ModelStore model_store;
  std::vector<tangle::PayloadId> payloads;
  std::vector<data::DataSplit> splits;
  std::vector<double> expected_loss;
  for (std::size_t k = 0; k < 3; ++k) {
    nn::Model model = factory();
    Rng init_rng(200 + k);
    model.init(init_rng);
    payloads.push_back(model_store.add(model.get_parameters()).id);

    data::DataSplit split;
    const std::size_t samples = 48;
    split.features = nn::Tensor({samples, 2});
    split.labels.resize(samples);
    Rng data_rng(300 + k);
    for (std::size_t i = 0; i < samples; ++i) {
      split.features.at(i, 0) = static_cast<float>(data_rng.normal());
      split.features.at(i, 1) = static_cast<float>(data_rng.normal());
      split.labels[i] =
          static_cast<std::int32_t>(data_rng.uniform_index(2));
    }
    splits.push_back(std::move(split));
  }
  for (std::size_t k = 0; k < 3; ++k) {
    nn::Model model = factory();
    model.set_parameters(model_store.get(payloads[k]));
    expected_loss.push_back(data::evaluate(model, splits[k]).loss);
  }

  core::EvalEngineConfig engine_config;
  {
    core::EvalEngine probe(factory);
    engine_config.batched_budget_bytes = 2 * probe.prepare(splits[0])->bytes();
  }
  core::EvalEngine engine(factory, engine_config);
  tangle::ViewCache cache(2);

  ThreadPool pool(4);
  std::atomic<std::uint64_t> checksum{0};
  constexpr std::size_t kIterations = 240;
  pool.parallel_for(kIterations, [&](std::size_t i) {
    // Cone-cache side: rotating prefixes overflow capacity 2 constantly.
    const std::size_t p = i % std::size(prefixes);
    const auto entry = cache.get(tangle.view_prefix(prefixes[p]));
    ASSERT_EQ(entry->view_size(), prefixes[p]);
    std::uint64_t cone_sum = 0;
    for (const std::uint32_t c : entry->past_cone_sizes()) cone_sum += c;
    ASSERT_EQ(cone_sum, expected_cone_sum[p]);  // entry valid post-eviction

    // Eval side: splits rotate through a budget of two, so every third
    // prepare() rebuilds and evicts while other workers still hold the
    // evicted BatchedSplit.
    const std::size_t k = (i / 2) % 3;
    const auto prepared = engine.prepare(splits[k]);
    const std::array<tangle::PayloadId, 1> probe{payloads[k]};
    const auto outcomes =
        engine.payloads_eval_many(model_store, probe, *prepared);
    ASSERT_EQ(outcomes.front().result.loss, expected_loss[k]);
    checksum.fetch_add(cone_sum + static_cast<std::uint64_t>(k),
                       std::memory_order_relaxed);
  });
  EXPECT_GT(checksum.load(), 0u);
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(engine.cached_splits(), 2u);
}

}  // namespace
}  // namespace tanglefl
