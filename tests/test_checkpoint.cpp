#include "tangle/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/async_simulation.hpp"
#include "core/gossip_simulation.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"

namespace tanglefl::tangle {
namespace {

/// A checkpoint path private to the running test: ctest runs this file's
/// tests as parallel processes, so one fixed path would race.
std::string test_path(const std::string& tag = "") {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "tanglefl_" + info->test_suite_name() + "_" +
         info->name() + tag + ".bin";
}

struct Fixture {
  ModelStore store;
  Tangle tangle;

  Fixture() : tangle(make_genesis(store)) {}

  static Tangle make_genesis(ModelStore& store) {
    const auto added = store.add({0.0f, 1.0f});
    return Tangle(added.id, added.hash);
  }

  TxIndex add(std::vector<TxIndex> parents, nn::ParamVector params,
              std::uint64_t round) {
    const auto added = store.add(std::move(params));
    return tangle.add_transaction(parents, added.id, added.hash, round);
  }
};

TEST(Checkpoint, RoundTripPreservesLedger) {
  Fixture f;
  const TxIndex a = f.add({0}, {1.0f, 2.0f}, 1);
  f.add({0, a}, {3.0f, 4.0f}, 2);

  save_ledger(test_path(), f.tangle, f.store);
  ModelStore restored_store;
  const Tangle restored = load_ledger(test_path(), restored_store);

  ASSERT_EQ(restored.size(), f.tangle.size());
  for (TxIndex i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored.transaction(i).id, f.tangle.transaction(i).id);
    EXPECT_EQ(restored_store.get(restored.transaction(i).payload),
              f.store.get(f.tangle.transaction(i).payload));
  }
  std::remove(test_path().c_str());
}

TEST(Checkpoint, PayloadIdsStayValid) {
  Fixture f;
  f.add({0}, {5.0f}, 1);
  save_ledger(test_path(), f.tangle, f.store);
  ModelStore restored_store;
  const Tangle restored = load_ledger(test_path(), restored_store);
  // Payload handle 1 still addresses {5.0f}.
  EXPECT_EQ(restored_store.get(restored.transaction(1).payload),
            (nn::ParamVector{5.0f}));
  std::remove(test_path().c_str());
}

TEST(Checkpoint, BadMagicRejected) {
  {
    std::ofstream out(test_path(), std::ios::binary | std::ios::trunc);
    out << "not a ledger at all, definitely";
  }
  ModelStore store;
  EXPECT_THROW((void)load_ledger(test_path(), store), SerializeError);
  std::remove(test_path().c_str());
}

TEST(Checkpoint, TruncatedFileRejected) {
  Fixture f;
  f.add({0}, {1.0f}, 1);
  save_ledger(test_path(), f.tangle, f.store);
  // Truncate the file in the middle.
  {
    std::ifstream in(test_path(), std::ios::binary | std::ios::ate);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<char> bytes(size / 2);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(test_path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ModelStore store;
  EXPECT_THROW((void)load_ledger(test_path(), store), SerializeError);
  std::remove(test_path().c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  ModelStore store;
  EXPECT_THROW((void)load_ledger("/tmp/tanglefl_definitely_missing.bin", store),
               std::runtime_error);
}

TEST(Checkpoint, NonEmptyStoreRejected) {
  Fixture f;
  save_ledger(test_path(), f.tangle, f.store);
  ModelStore busy;
  busy.add({9.0f});
  EXPECT_THROW((void)load_ledger(test_path(), busy), std::invalid_argument);
  std::remove(test_path().c_str());
}

TEST(Checkpoint, DanglingPayloadIdRejected) {
  // A transaction whose payload handle does not resolve in the store must
  // fail validation at load time, not deep inside a simulation.
  Fixture f;
  f.add({0}, {1.0f}, 1);
  const Transaction& tx = f.tangle.transaction(1);
  const std::vector<TxIndex> parents{1};
  f.tangle.add_transaction(parents, /*payload=*/99, tx.payload_hash, 2);
  save_ledger(test_path(), f.tangle, f.store);
  ModelStore store;
  EXPECT_THROW((void)load_ledger(test_path(), store), SerializeError);
  std::remove(test_path().c_str());
}

TEST(Checkpoint, PayloadHashMismatchRejected) {
  Fixture f;
  f.add({0}, {1.0f}, 1);
  Sha256Digest wrong = f.tangle.transaction(1).payload_hash;
  wrong[0] ^= 0xff;
  const std::vector<TxIndex> parents{1};
  f.tangle.add_transaction(parents, f.tangle.transaction(1).payload, wrong,
                           2);
  save_ledger(test_path(), f.tangle, f.store);
  ModelStore store;
  EXPECT_THROW((void)load_ledger(test_path(), store), SerializeError);
  std::remove(test_path().c_str());
}

TEST(Checkpoint, PruneFloorRoundTrips) {
  Fixture f;
  TxIndex last = f.add({0}, {1.0f}, 1);
  for (std::uint64_t r = 2; r <= 6; ++r) {
    last = f.add({last}, {static_cast<float>(r)}, r);
  }
  f.tangle.set_prune_floor(3);
  save_ledger(test_path(), f.tangle, f.store);
  ModelStore store;
  const Tangle restored = load_ledger(test_path(), store);
  EXPECT_EQ(restored.prune_floor(), 3u);
  std::remove(test_path().c_str());
}

TEST(Checkpoint, ConeSidecarRoundTrips) {
  Fixture f;
  TxIndex last = f.add({0}, {1.0f}, 1);
  for (std::uint64_t r = 2; r <= 6; ++r) {
    last = f.add({last}, {static_cast<float>(r)}, r);
  }
  ConeStateCheckpoint cones;
  cones.past.assign(f.tangle.size(), 7);
  cones.future.assign(f.tangle.size(), 9);
  save_ledger(test_path(), f.tangle, f.store, &cones);
  ModelStore store;
  ConeStateCheckpoint restored_cones;
  (void)load_ledger(test_path(), store, &restored_cones);
  EXPECT_EQ(restored_cones.past, cones.past);
  EXPECT_EQ(restored_cones.future, cones.future);
  std::remove(test_path().c_str());
}

TEST(Checkpoint, ConeSidecarSizeMismatchRejected) {
  Fixture f;
  f.add({0}, {1.0f}, 1);
  ConeStateCheckpoint cones;
  cones.past.assign(1, 0);  // tangle has 2 transactions
  cones.future.assign(1, 0);
  save_ledger(test_path(), f.tangle, f.store, &cones);
  ModelStore store;
  EXPECT_THROW((void)load_ledger(test_path(), store), SerializeError);
  std::remove(test_path().c_str());
}

TEST(Checkpoint, ReleasedPayloadsRoundTrip) {
  // A pruned ledger carries released (tombstoned) payloads: the dump must
  // preserve tombstones and their hashes so validation still passes.
  Fixture f;
  TxIndex last = f.add({0}, {1.0f, 2.0f}, 1);
  for (std::uint64_t r = 2; r <= 8; ++r) {
    last = f.add({last}, {static_cast<float>(r), 0.5f}, r);
  }
  f.tangle.set_prune_floor(5);
  std::size_t released = 0;
  {
    std::vector<bool> live(f.store.size(), false);
    for (TxIndex i = 5; i < f.tangle.size(); ++i) {
      live[f.tangle.transaction(i).payload] = true;
    }
    for (PayloadId id = 0; id < live.size(); ++id) {
      if (!live[id]) {
        f.store.release(id);
        ++released;
      }
    }
  }
  ASSERT_GT(released, 0u);

  save_ledger(test_path(), f.tangle, f.store);
  ModelStore store;
  const Tangle restored = load_ledger(test_path(), store);
  ASSERT_EQ(store.size(), f.store.size());
  for (PayloadId id = 0; id < store.size(); ++id) {
    EXPECT_EQ(store.is_released(id), f.store.is_released(id));
    EXPECT_EQ(store.hash_of(id), f.store.hash_of(id));
    if (!store.is_released(id)) {
      EXPECT_EQ(store.get(id), f.store.get(id));
    }
  }
  EXPECT_EQ(restored.prune_floor(), 5u);

  // Lossless: re-saving the restored ledger is byte-identical.
  const std::string kPath2 = test_path("_resave");
  save_ledger(kPath2, restored, store);
  std::ifstream a(test_path(), std::ios::binary);
  std::ifstream b(kPath2, std::ios::binary);
  const std::vector<char> bytes_a((std::istreambuf_iterator<char>(a)),
                                  std::istreambuf_iterator<char>());
  const std::vector<char> bytes_b((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(test_path().c_str());
  std::remove(kPath2.c_str());
}

TEST(Checkpoint, SimulationLedgerRoundTrips) {
  // A ledger produced by an actual simulation round-trips bit-exact.
  data::FemnistSynthConfig data_config;
  data_config.num_users = 8;
  data_config.num_classes = 3;
  data_config.image_size = 8;
  data_config.seed = 4;
  const auto dataset = data::make_femnist_synth(data_config);
  nn::ImageCnnConfig model_config;
  model_config.image_size = 8;
  model_config.num_classes = 3;
  model_config.conv1_channels = 2;
  model_config.conv2_channels = 4;
  model_config.hidden = 8;
  const nn::ModelFactory factory = [model_config] {
    return nn::make_image_cnn(model_config);
  };

  core::SimulationConfig config;
  config.rounds = 4;
  config.nodes_per_round = 4;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 9;
  core::TangleSimulation sim(dataset, factory, config);
  for (std::uint64_t r = 1; r <= 4; ++r) sim.run_round(r);

  save_ledger(test_path(), sim.tangle(), sim.store());
  ModelStore restored_store;
  const Tangle restored = load_ledger(test_path(), restored_store);
  ASSERT_EQ(restored.size(), sim.tangle().size());
  EXPECT_EQ(restored.view().tips(), sim.tangle().view().tips());
  EXPECT_EQ(restored_store.size(), sim.store().size());
  std::remove(test_path().c_str());
}

TEST(Checkpoint, ChunkedStoreLedgerRoundTrips) {
  // A ledger whose store runs content-defined chunk dedup must round-trip
  // with the chunk configuration, payload bytes, and tombstones intact —
  // and re-saving the restored ledger is byte-identical.
  ModelStore store;
  ChunkParams chunk_params;
  chunk_params.min_bytes = 8;
  chunk_params.max_bytes = 64;
  chunk_params.mask_bits = 4;
  store.configure_chunking(chunk_params);
  const auto genesis = store.add({0.0f, 1.0f});
  Tangle tangle(genesis.id, genesis.hash);
  nn::ParamVector params(120);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] = static_cast<float>(i) * 0.5f;
  }
  TxIndex last = 0;
  for (std::uint64_t r = 1; r <= 4; ++r) {
    params[0] = static_cast<float>(r);  // near-identical payloads: dedup
    const auto added = store.add(params);
    const std::vector<TxIndex> parents{last};
    last = tangle.add_transaction(parents, added.id, added.hash, r);
  }
  store.release(1);
  ASSERT_GT(store.chunk_count(), 0u);

  save_ledger(test_path(), tangle, store);
  ModelStore restored_store;
  const Tangle restored = load_ledger(test_path(), restored_store);
  ASSERT_EQ(restored.size(), tangle.size());
  EXPECT_TRUE(restored_store.chunking_enabled());
  EXPECT_EQ(restored_store.chunk_params().mask_bits, chunk_params.mask_bits);
  EXPECT_EQ(restored_store.chunk_count(), store.chunk_count());
  for (PayloadId id = 0; id < store.size(); ++id) {
    EXPECT_EQ(restored_store.is_released(id), store.is_released(id));
    if (!store.is_released(id)) {
      EXPECT_EQ(restored_store.get(id), store.get(id));
    }
  }

  // Reloading re-chunks live payloads, which compacts freed slots — so the
  // first re-save may differ from the original dump. It must be a fixpoint
  // after that one normalization: save(load(save(load(x)))) == save(load(x)).
  const std::string kPath2 = test_path("_resave");
  const std::string kPath3 = test_path("_resave2");
  save_ledger(kPath2, restored, restored_store);
  ModelStore second_store;
  const Tangle second = load_ledger(kPath2, second_store);
  save_ledger(kPath3, second, second_store);
  std::ifstream a(kPath2, std::ios::binary);
  std::ifstream b(kPath3, std::ios::binary);
  const std::vector<char> bytes_a((std::istreambuf_iterator<char>(a)),
                                  std::istreambuf_iterator<char>());
  const std::vector<char> bytes_b((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(test_path().c_str());
  std::remove(kPath2.c_str());
  std::remove(kPath3.c_str());
}

void write_file(const std::string& path, const ByteWriter& writer) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto& bytes = writer.bytes();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, RetiredVersionsThrow) {
  // Version 3 is the one checkpoint format. Dumps in the retired layouts
  // (version 1: flag-less store, no frontier; version 2: liveness flags,
  // no chunk flag) are rejected at the header, before the store is
  // touched.
  Fixture f;
  f.add({0}, {1.0f, 2.0f}, 1);
  for (const std::uint32_t version : {1u, 2u}) {
    ByteWriter writer;
    writer.write_u32(0x544e474c);  // "TNGL"
    writer.write_u32(version);
    f.tangle.serialize(writer);
    writer.write_u64(f.store.size());
    for (PayloadId id = 0; id < f.store.size(); ++id) {
      if (version == 2) writer.write_u8(1);
      writer.write_f32_span(f.store.get(id));
    }
    if (version == 2) {
      writer.write_u64(0);  // prune floor
      writer.write_u8(0);   // no cone sidecar
    }
    write_file(test_path(), writer);

    ModelStore store;
    EXPECT_THROW((void)load_ledger(test_path(), store), SerializeError)
        << "version " << version;
    EXPECT_EQ(store.size(), 0u);
  }
  std::remove(test_path().c_str());
}

// --- pruned-ledger round trips through every engine ---------------------

data::FederatedDataset engine_dataset() {
  data::FemnistSynthConfig config;
  config.num_users = 8;
  config.num_classes = 3;
  config.image_size = 8;
  config.seed = 4;
  return data::make_femnist_synth(config);
}

nn::ModelFactory engine_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

/// Save -> load -> re-save must be byte-identical (the dump is a faithful
/// fixpoint), and the restored ledger must mirror the live one exactly,
/// prune frontier and payload tombstones included.
void expect_pruned_ledger_round_trips(const Tangle& tangle,
                                      const ModelStore& store) {
  const std::string path_a = test_path("_a");
  const std::string path_b = test_path("_b");
  save_ledger(path_a, tangle, store);
  ModelStore restored_store;
  const Tangle restored = load_ledger(path_a, restored_store);

  ASSERT_EQ(restored.size(), tangle.size());
  EXPECT_EQ(restored.prune_floor(), tangle.prune_floor());
  EXPECT_EQ(restored.view().tips(), tangle.view().tips());
  ASSERT_EQ(restored_store.size(), store.size());
  for (PayloadId id = 0; id < store.size(); ++id) {
    EXPECT_EQ(restored_store.is_released(id), store.is_released(id));
    EXPECT_EQ(restored_store.hash_of(id), store.hash_of(id));
  }

  save_ledger(path_b, restored, restored_store);
  std::ifstream a(path_a, std::ios::binary);
  std::ifstream b(path_b, std::ios::binary);
  const std::vector<char> bytes_a((std::istreambuf_iterator<char>(a)),
                                  std::istreambuf_iterator<char>());
  const std::vector<char> bytes_b((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(Checkpoint, PrunedSimulationLedgerRoundTrips) {
  const auto dataset = engine_dataset();
  core::SimulationConfig config;
  config.rounds = 12;
  config.nodes_per_round = 4;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 9;
  config.prune.enabled = true;
  config.prune.interval = 2;
  config.prune.keep_recent = 6;
  core::TangleSimulation sim(dataset, engine_factory(), config);
  (void)sim.run();
  ASSERT_GT(sim.tangle().prune_floor(), 0u);
  expect_pruned_ledger_round_trips(sim.tangle(), sim.store());
}

TEST(Checkpoint, PrunedAsyncLedgerRoundTrips) {
  const auto dataset = engine_dataset();
  core::AsyncSimulationConfig config;
  config.duration_seconds = 30.0;
  config.wake_rate_per_node = 0.4;
  config.mean_training_seconds = 0.5;
  config.eval_every_seconds = 5.0;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 11;
  config.prune.enabled = true;
  config.prune.interval = 1;
  config.prune.keep_recent = 6;
  core::AsyncTangleSimulation sim(dataset, engine_factory(), config);
  (void)sim.run();
  expect_pruned_ledger_round_trips(sim.tangle(), sim.store());
}

TEST(Checkpoint, PrunedGossipLedgerRoundTrips) {
  const auto dataset = engine_dataset();
  core::GossipConfig config;
  config.rounds = 14;
  config.nodes_per_round = 4;
  config.peers_per_node = 3;
  config.gossip_exchanges = 2;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 13;
  config.prune.enabled = true;
  config.prune.interval = 2;
  config.prune.keep_recent = 6;
  core::GossipSimulation sim(dataset, engine_factory(), config);
  (void)sim.run();
  expect_pruned_ledger_round_trips(sim.tangle(), sim.store());
}

}  // namespace
}  // namespace tanglefl::tangle
