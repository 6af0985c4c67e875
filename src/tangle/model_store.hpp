// Content-addressed payload store. A real ledger separates transaction
// headers from bulky payloads; here the payloads are flat parameter vectors
// shared by all simulated nodes. Identical payloads (e.g. a model republished
// unchanged) deduplicate to one copy. Thread-safe: reads take a shared lock,
// inserts an exclusive one, so parallel node training can resolve parent
// payloads concurrently.
//
// Optional chunk-level dedup (configure_chunking): payload bytes are split
// at content-defined boundaries (tangle/payload_codec.hpp's gear-hash
// cutter) and held in a SHA-256-keyed refcounted chunk table, so
// near-identical payloads share storage beyond whole-payload dedup. Live
// entries keep their materialized ParamVector — get()'s reference-stability
// contract is untouched — while the chunk table is the at-rest tier:
// serialization writes each unique chunk once, and the
// ledger.codec.{chunks,chunk_dedup_hits} counters expose the sharing.
//
// Inserting is split in two: prepare() does the pure per-payload work
// (payload SHA-256, chunk cut and chunk digests) under no more than a reader
// lock, so engines run it in parallel where a node publishes; add() of the
// prepared payload only does the dedup lookups and inserts under the writer
// lock.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "nn/params.hpp"
#include "support/sha256.hpp"
#include "support/sync.hpp"
#include "tangle/transaction.hpp"

namespace tanglefl::tangle {

/// Parameters of the content-defined chunker (see
/// tangle/payload_codec.hpp's chunk_boundaries).
struct ChunkParams {
  std::size_t min_bytes = 512;
  std::size_t max_bytes = 8192;
  // Average chunk size ~ min_bytes + 2^mask_bits.
  unsigned mask_bits = 11;

  bool operator==(const ChunkParams&) const = default;
};

/// A payload ready for ModelStore::add: its parameters, their SHA-256 and,
/// when the store chunks, the content-defined chunk cut with each chunk's
/// digest. Only ModelStore::prepare builds one, so add() is never handed a
/// digest that does not belong to the parameters.
class PreparedPayload {
 public:
  const nn::ParamVector& params() const noexcept { return params_; }
  const Sha256Digest& hash() const noexcept { return hash_; }

 private:
  friend class ModelStore;

  struct Chunk {
    std::size_t end = 0;  // exclusive byte offset into params_
    Sha256Digest hash{};
  };

  // No default constructor, so `add({})` still means an empty ParamVector.
  explicit PreparedPayload(nn::ParamVector params) noexcept
      : params_(std::move(params)) {}

  nn::ParamVector params_;
  Sha256Digest hash_{};
  // The store layout prepare() saw; add() rejects a payload prepared for
  // another one.
  bool chunked_ = false;
  ChunkParams chunk_params_{};
  std::vector<Chunk> chunks_;
};

class ModelStore {
 public:
  /// Hashes (and, when chunking is on, cuts and hashes the chunks of) a
  /// payload for add(). Reads only the chunk layout, so any number of
  /// threads may prepare while others read the store.
  PreparedPayload prepare(nn::ParamVector params) const;

  /// Inserts (or deduplicates) a payload; returns its handle and hash.
  /// Throws std::logic_error if `payload` was prepared for another chunk
  /// layout (configure_chunking ran in between).
  struct AddResult {
    PayloadId id = 0;
    Sha256Digest hash{};
    bool deduplicated = false;
  };
  AddResult add(PreparedPayload payload);
  /// add(prepare(params)).
  AddResult add(nn::ParamVector params);

  /// Payload lookup. The returned reference stays valid for the store's
  /// lifetime (payloads are immutable once inserted).
  const nn::ParamVector& get(PayloadId id) const;

  /// Hash recorded for a payload at insertion.
  const Sha256Digest& hash_of(PayloadId id) const;

  std::size_t size() const;

  /// Total floats held by live (unreleased) payloads — O(1); released
  /// payloads contribute nothing.
  std::size_t total_parameters() const;

  /// Bytes of live payload data (total_parameters() * sizeof(float)).
  std::size_t live_bytes() const;

  static Sha256Digest hash_params(std::span<const float> params);

  /// Enables content-defined chunk dedup for every subsequently added
  /// payload and switches serialization to the chunked v3 body. Only legal
  /// on an empty store (throws std::logic_error otherwise): chunking is a
  /// whole-ledger storage format, not a per-payload option.
  void configure_chunking(const ChunkParams& params);
  bool chunking_enabled() const;
  ChunkParams chunk_params() const;

  /// Unique chunks currently held (0 when chunking is off).
  std::size_t chunk_count() const;

  /// Garbage collection for milestone pruning (tangle/milestones.hpp):
  /// drops a payload's parameters while keeping its id slot and hash, so
  /// frozen transaction headers stay verifiable. The id leaves the dedup
  /// index — re-adding identical params later yields a fresh id. get() on
  /// a released payload throws std::logic_error (a released payload is
  /// referenced only below the prune frontier, which no consumer reads).
  /// Chunks referenced only by the released payload are freed too.
  void release(PayloadId id);
  bool is_released(PayloadId id) const;

  /// Appends a released (parameters-free) entry carrying only its hash —
  /// the deserialization path for dumps of pruned ledgers.
  PayloadId add_released(const Sha256Digest& hash);

  /// Binary round trip of all payloads (ids are preserved, so transaction
  /// payload handles stay valid across save/load). The store is not
  /// movable (it owns a mutex), so deserialization fills an existing empty
  /// instance. The current (v3) format leads with a chunked? flag byte:
  /// flat stores serialize exactly the v2 body after it, chunked stores a
  /// chunk-slot table plus per-entry chunk-id spans. deserialize_into_v2
  /// reads the v2 body (liveness flags, no chunk flag);
  /// deserialize_into_v1 the flag-less legacy format. Loading a chunked
  /// dump configures chunking on `store` from the recorded parameters.
  void serialize(ByteWriter& writer) const;
  static void deserialize_into(ByteReader& reader, ModelStore& store);
  static void deserialize_into_v2(ByteReader& reader, ModelStore& store);
  static void deserialize_into_v1(ByteReader& reader, ModelStore& store);

 private:
  struct Entry {
    nn::ParamVector params;
    Sha256Digest hash{};
    bool released = false;
    // Slots into chunks_ covering this payload's bytes in order; empty
    // when chunking is off or the entry was released.
    std::vector<std::uint32_t> chunk_ids;
  };

  /// One unique chunk of payload bytes. Freed slots (refcount 0) keep
  /// their position so live entries' chunk ids stay stable; their bytes
  /// are dropped and the slot is recycled via free_chunk_slots_.
  struct ChunkSlot {
    std::vector<std::uint8_t> bytes;
    Sha256Digest hash{};
    std::size_t refcount = 0;
  };

  /// SHA-256 digests are uniform, so their first 8 bytes are a good hash.
  struct DigestHasher {
    std::size_t operator()(const Sha256Digest& digest) const noexcept;
  };

  void insert_chunks_locked(Entry& entry,
                            std::span<const PreparedPayload::Chunk> chunks)
      TANGLEFL_REQUIRES(mutex_);
  void release_chunks_locked(Entry& entry)
      TANGLEFL_REQUIRES(mutex_);

  mutable SharedMutex mutex_;
  // Deque, not vector: get()/hash_of() hand out references that must stay
  // valid while concurrent add() calls grow the store. A vector would
  // reallocate and dangle them (ThreadSanitizer catches exactly this under
  // tests/test_concurrency_stress.cpp); deque growth never moves existing
  // entries. Handing out those references is the one sanctioned escape of
  // guarded state: entries are append-only and immutable once inserted.
  std::deque<Entry> entries_ TANGLEFL_GUARDED_BY(mutex_);
  // payload hash -> id of its live entry
  std::unordered_map<Sha256Digest, PayloadId, DigestHasher> by_hash_
      TANGLEFL_GUARDED_BY(mutex_);
  std::size_t live_floats_ TANGLEFL_GUARDED_BY(mutex_) = 0;

  bool chunking_ TANGLEFL_GUARDED_BY(mutex_) = false;
  ChunkParams chunk_params_ TANGLEFL_GUARDED_BY(mutex_){};
  std::deque<ChunkSlot> chunks_ TANGLEFL_GUARDED_BY(mutex_);
  // chunk hash -> slot
  std::unordered_map<Sha256Digest, std::uint32_t, DigestHasher> chunk_by_hash_
      TANGLEFL_GUARDED_BY(mutex_);
  std::vector<std::uint32_t> free_chunk_slots_ TANGLEFL_GUARDED_BY(mutex_);
  std::size_t live_chunks_ TANGLEFL_GUARDED_BY(mutex_) = 0;
};

}  // namespace tanglefl::tangle
