#include "tangle/model_store.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace tanglefl::tangle {
namespace {

TEST(ModelStore, AddAndGet) {
  ModelStore store;
  const auto added = store.add({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(store.get(added.id), (nn::ParamVector{1.0f, 2.0f, 3.0f}));
  EXPECT_FALSE(added.deduplicated);
}

TEST(ModelStore, DeduplicatesIdenticalPayloads) {
  ModelStore store;
  const auto first = store.add({1.0f, 2.0f});
  const auto second = store.add({1.0f, 2.0f});
  EXPECT_EQ(first.id, second.id);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ModelStore, DistinctPayloadsGetDistinctIds) {
  ModelStore store;
  const auto a = store.add({1.0f});
  const auto b = store.add({2.0f});
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(to_hex(a.hash), to_hex(b.hash));
  EXPECT_EQ(store.size(), 2u);
}

TEST(ModelStore, HashMatchesStaticHasher) {
  ModelStore store;
  const nn::ParamVector params = {0.5f, -1.5f};
  const auto added = store.add(params);
  EXPECT_EQ(to_hex(added.hash), to_hex(ModelStore::hash_params(params)));
  EXPECT_EQ(to_hex(store.hash_of(added.id)), to_hex(added.hash));
}

TEST(ModelStore, UnknownIdThrows) {
  ModelStore store;
  EXPECT_THROW((void)store.get(0), std::out_of_range);
  EXPECT_THROW((void)store.hash_of(42), std::out_of_range);
}

TEST(ModelStore, ReferencesStableAcrossGrowth) {
  ModelStore store;
  const auto first = store.add({7.0f});
  const nn::ParamVector* address = &store.get(first.id);
  for (int i = 0; i < 100; ++i) {
    store.add({static_cast<float>(i) + 100.0f});
  }
  EXPECT_EQ(&store.get(first.id), address);
  EXPECT_EQ(store.get(first.id)[0], 7.0f);
}

TEST(ModelStore, TotalParameters) {
  ModelStore store;
  store.add({1, 2, 3});
  store.add({4, 5});
  EXPECT_EQ(store.total_parameters(), 5u);
}

TEST(ModelStore, ConcurrentReadsAndWrites) {
  ModelStore store;
  const auto base = store.add({1.0f, 2.0f});
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        if (store.get(base.id).size() != 2) failed = true;
        // Offset to avoid colliding with the base payload {1, 2}.
        store.add({static_cast<float>(t) + 10.0f, static_cast<float>(i)});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  // 4 threads x 200 unique (t, i) pairs plus the base payload.
  EXPECT_EQ(store.size(), 801u);
}

TEST(ModelStore, EmptyPayloadAllowed) {
  ModelStore store;
  const auto added = store.add({});
  EXPECT_TRUE(store.get(added.id).empty());
}

TEST(ModelStore, ReleaseKeepsHashDropsParams) {
  ModelStore store;
  const auto a = store.add({1.0f, 2.0f});
  const auto b = store.add({3.0f});
  store.release(a.id);
  EXPECT_TRUE(store.is_released(a.id));
  EXPECT_FALSE(store.is_released(b.id));
  EXPECT_THROW((void)store.get(a.id), std::logic_error);
  EXPECT_EQ(to_hex(store.hash_of(a.id)), to_hex(a.hash));  // hash survives
  EXPECT_EQ(store.get(b.id), (nn::ParamVector{3.0f}));
  EXPECT_EQ(store.total_parameters(), 1u);  // only b's params remain
  store.release(a.id);  // idempotent
  EXPECT_EQ(store.size(), 2u);
}

TEST(ModelStore, ReleasedHashCanBeReAdded) {
  // Releasing drops the dedup index entry: re-adding the same params mints
  // a fresh id instead of resurrecting the tombstone.
  ModelStore store;
  const auto a = store.add({4.0f, 5.0f});
  store.release(a.id);
  const auto again = store.add({4.0f, 5.0f});
  EXPECT_NE(again.id, a.id);
  EXPECT_FALSE(again.deduplicated);
  EXPECT_TRUE(store.is_released(a.id));
  EXPECT_EQ(store.get(again.id), (nn::ParamVector{4.0f, 5.0f}));
}

TEST(ModelStore, LiveBytesTracksAddsAndReleases) {
  // Regression: released entries must leave the live-payload accounting,
  // and hash-only tombstones contribute nothing.
  ModelStore store;
  EXPECT_EQ(store.live_bytes(), 0u);
  const auto a = store.add({1.0f, 2.0f, 3.0f});
  const auto b = store.add({4.0f, 5.0f});
  EXPECT_EQ(store.live_bytes(), 5 * sizeof(float));
  EXPECT_EQ(store.live_bytes(), store.total_parameters() * sizeof(float));

  store.release(a.id);
  EXPECT_EQ(store.live_bytes(), 2 * sizeof(float));
  store.release(a.id);  // idempotent: no double subtraction
  EXPECT_EQ(store.live_bytes(), 2 * sizeof(float));

  const nn::ParamVector tombstone = {9.0f};
  store.add_released(ModelStore::hash_params(tombstone));
  EXPECT_EQ(store.live_bytes(), 2 * sizeof(float));
  store.release(b.id);
  EXPECT_EQ(store.live_bytes(), 0u);
  EXPECT_EQ(store.total_parameters(), 0u);
}

// ------------------------------------------------------------- chunked store

/// Tiny chunks so a handful of floats spans several of them.
ChunkParams tiny_chunks() {
  ChunkParams params;
  params.min_bytes = 8;
  params.max_bytes = 64;
  params.mask_bits = 4;
  return params;
}

nn::ParamVector patterned_params(std::size_t n, float seed) {
  nn::ParamVector params(n);
  for (std::size_t i = 0; i < n; ++i) {
    params[i] = seed + static_cast<float>(i) * 0.25f;
  }
  return params;
}

/// Slot-table size as persisted by serialize(): chunked flag (u8), three
/// cutter parameters (u64, u64, u32), then the u64 slot count.
std::uint64_t serialized_chunk_slots(const ModelStore& store) {
  ByteWriter writer;
  store.serialize(writer);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u8(), 1u);
  (void)reader.read_u64();
  (void)reader.read_u64();
  (void)reader.read_u32();
  return reader.read_u64();
}

TEST(ModelStoreChunked, ConfigureRules) {
  ModelStore store;
  ChunkParams bad = tiny_chunks();
  bad.min_bytes = 0;
  EXPECT_THROW(store.configure_chunking(bad), std::invalid_argument);
  bad = tiny_chunks();
  bad.max_bytes = bad.min_bytes - 1;
  EXPECT_THROW(store.configure_chunking(bad), std::invalid_argument);

  EXPECT_FALSE(store.chunking_enabled());
  store.configure_chunking(tiny_chunks());
  EXPECT_TRUE(store.chunking_enabled());
  EXPECT_EQ(store.chunk_params().min_bytes, tiny_chunks().min_bytes);

  ModelStore busy;
  busy.add({1.0f});
  EXPECT_THROW(busy.configure_chunking(tiny_chunks()), std::logic_error);
}

TEST(ModelStoreChunked, PayloadsReadBackExactly) {
  ModelStore store;
  store.configure_chunking(tiny_chunks());
  const nn::ParamVector params = patterned_params(100, 1.0f);
  const auto added = store.add(params);
  EXPECT_EQ(store.get(added.id), params);
  EXPECT_GT(store.chunk_count(), 1u);
}

TEST(ModelStoreChunked, SharedContentDeduplicatesChunks) {
  // Two payloads sharing a long prefix must share its chunks: adding the
  // second grows the chunk table by far less than a standalone copy would.
  ModelStore store;
  store.configure_chunking(tiny_chunks());
  nn::ParamVector first = patterned_params(200, 1.0f);
  nn::ParamVector second = first;
  second.back() += 1.0f;  // distinct payload, nearly identical bytes

  store.add(first);
  const std::size_t after_first = store.chunk_count();
  store.add(second);
  const std::size_t after_second = store.chunk_count();
  EXPECT_GT(after_first, 1u);
  // Only the tail chunk(s) differ.
  EXPECT_LT(after_second - after_first, after_first / 2 + 1);
}

TEST(ModelStoreChunked, ReleaseFreesChunksAndRecyclesSlots) {
  ModelStore store;
  store.configure_chunking(tiny_chunks());
  const auto a = store.add(patterned_params(150, 1.0f));
  const auto b = store.add(patterned_params(150, 500.0f));
  const std::size_t live_before = store.chunk_count();
  const std::uint64_t slots_before = serialized_chunk_slots(store);

  store.release(a.id);
  EXPECT_LT(store.chunk_count(), live_before);
  EXPECT_THROW((void)store.get(a.id), std::logic_error);
  EXPECT_EQ(store.get(b.id), patterned_params(150, 500.0f));

  // Re-adding the released content re-chunks to the same cuts, so the
  // freed slots are recycled and the table does not grow.
  store.add(patterned_params(150, 1.0f));
  EXPECT_EQ(store.chunk_count(), live_before);
  EXPECT_EQ(serialized_chunk_slots(store), slots_before);
}

TEST(ModelStoreChunked, SerializeRoundTripsChunkedStore) {
  ModelStore store;
  store.configure_chunking(tiny_chunks());
  const auto a = store.add(patterned_params(120, 1.0f));
  const auto b = store.add(patterned_params(80, 50.0f));
  const auto c = store.add(patterned_params(64, 75.0f));
  store.release(b.id);

  ByteWriter writer;
  store.serialize(writer);
  ByteReader reader(writer.bytes());
  ModelStore restored;
  ModelStore::deserialize_into(reader, restored);

  ASSERT_EQ(restored.size(), 3u);
  EXPECT_TRUE(restored.chunking_enabled());
  EXPECT_EQ(restored.chunk_params().max_bytes, tiny_chunks().max_bytes);
  EXPECT_EQ(restored.get(a.id), patterned_params(120, 1.0f));
  EXPECT_TRUE(restored.is_released(b.id));
  EXPECT_EQ(to_hex(restored.hash_of(b.id)), to_hex(b.hash));
  EXPECT_EQ(restored.get(c.id), patterned_params(64, 75.0f));
  EXPECT_EQ(restored.chunk_count(), store.chunk_count());
  EXPECT_EQ(restored.live_bytes(), store.live_bytes());
}

TEST(ModelStoreChunked, FlatDumpLoadsIntoFlatStore) {
  // The chunked flag is per-dump: a flat store's dump must stay loadable
  // and flat (byte-compatible with the pre-chunking v2 body).
  ModelStore flat;
  flat.add({1.0f, 2.0f});
  ByteWriter writer;
  flat.serialize(writer);
  ByteReader reader(writer.bytes());
  ModelStore restored;
  ModelStore::deserialize_into(reader, restored);
  EXPECT_FALSE(restored.chunking_enabled());
  EXPECT_EQ(restored.get(0), (nn::ParamVector{1.0f, 2.0f}));
}

// add(prepare(p)) is the one insert path; add(p) must stay exactly it, in
// ids, hashes, dedup, chunk ids (visible in the serialized chunk spans) and
// serialized bytes, across duplicates, releases and slot recycling.
TEST(ModelStorePrepared, PreparedAddMatchesDirectAdd) {
  for (const bool chunked : {false, true}) {
    ModelStore direct;
    ModelStore prepared;
    if (chunked) {
      direct.configure_chunking(tiny_chunks());
      prepared.configure_chunking(tiny_chunks());
    }
    const std::vector<nn::ParamVector> payloads = {
        patterned_params(120, 1.0f), patterned_params(80, 50.0f),
        patterned_params(120, 1.0f),  // whole-payload duplicate
        patterned_params(64, 75.0f), patterned_params(121, 1.0f)};
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const auto a = direct.add(payloads[i]);
      const PreparedPayload ready = prepared.prepare(payloads[i]);
      EXPECT_EQ(ready.params(), payloads[i]);
      EXPECT_EQ(ready.hash(), ModelStore::hash_params(payloads[i]));
      const auto b = prepared.add(ready);
      EXPECT_EQ(a.id, b.id) << "payload " << i;
      EXPECT_EQ(a.hash, b.hash) << "payload " << i;
      EXPECT_EQ(a.deduplicated, b.deduplicated) << "payload " << i;
      if (i == 1) {
        direct.release(a.id);
        prepared.release(b.id);
      }
    }
    // Re-adding released content recycles the freed chunk slots.
    EXPECT_EQ(direct.add(patterned_params(80, 50.0f)).id,
              prepared.add(prepared.prepare(patterned_params(80, 50.0f))).id);
    EXPECT_EQ(direct.chunk_count(), prepared.chunk_count());
    ByteWriter direct_bytes;
    direct.serialize(direct_bytes);
    ByteWriter prepared_bytes;
    prepared.serialize(prepared_bytes);
    EXPECT_EQ(direct_bytes.bytes(), prepared_bytes.bytes())
        << (chunked ? "chunked" : "flat");
  }
}

TEST(ModelStorePrepared, PayloadPreparedForAnotherLayoutThrows) {
  ModelStore flat;
  ModelStore chunked;
  chunked.configure_chunking(tiny_chunks());
  ModelStore coarse;
  ChunkParams coarse_params = tiny_chunks();
  coarse_params.max_bytes = 128;
  coarse.configure_chunking(coarse_params);

  const nn::ParamVector params = patterned_params(50, 2.0f);
  EXPECT_THROW((void)chunked.add(flat.prepare(params)), std::logic_error);
  EXPECT_THROW((void)flat.add(chunked.prepare(params)), std::logic_error);
  EXPECT_THROW((void)coarse.add(chunked.prepare(params)), std::logic_error);
  EXPECT_EQ(chunked.size(), 0u);
  EXPECT_EQ(flat.size(), 0u);
  // A payload prepared by another store with the same layout is fine.
  ModelStore twin;
  twin.configure_chunking(tiny_chunks());
  EXPECT_EQ(twin.add(chunked.prepare(params)).hash,
            ModelStore::hash_params(params));
}

TEST(ModelStore, SerializeRoundTripsReleasedEntries) {
  ModelStore store;
  const auto a = store.add({1.0f, 2.0f});
  const auto b = store.add({3.0f, 4.0f});
  const auto c = store.add({5.0f});
  store.release(b.id);

  ByteWriter writer;
  store.serialize(writer);
  ByteReader reader(writer.bytes());
  ModelStore restored;
  ModelStore::deserialize_into(reader, restored);

  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.get(a.id), (nn::ParamVector{1.0f, 2.0f}));
  EXPECT_TRUE(restored.is_released(b.id));
  EXPECT_EQ(to_hex(restored.hash_of(b.id)), to_hex(b.hash));
  EXPECT_THROW((void)restored.get(b.id), std::logic_error);
  EXPECT_EQ(restored.get(c.id), (nn::ParamVector{5.0f}));
}

}  // namespace
}  // namespace tanglefl::tangle
