#include "tangle/model_store.hpp"

#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tangle/payload_codec.hpp"

namespace tanglefl::tangle {
namespace {

obs::Counter& add_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("store.add.count");
  return counter;
}

obs::Counter& dedup_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("store.add.deduplicated");
  return counter;
}

obs::Counter& get_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("store.get.count");
  return counter;
}

obs::Counter& released_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("store.released.count");
  return counter;
}

obs::Counter& chunks_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ledger.codec.chunks");
  return counter;
}

obs::Counter& chunk_dedup_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("ledger.codec.chunk_dedup_hits");
  return counter;
}

obs::Histogram& add_timing_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "store.add_us", obs::BucketLayout::exponential(1.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

std::span<const std::uint8_t> param_bytes(std::span<const float> params) {
  return {reinterpret_cast<const std::uint8_t*>(params.data()),
          params.size() * sizeof(float)};
}

}  // namespace

Sha256Digest ModelStore::hash_params(std::span<const float> params) {
  return Sha256::hash(param_bytes(params));
}

std::size_t ModelStore::DigestHasher::operator()(
    const Sha256Digest& digest) const noexcept {
  std::uint64_t prefix = 0;
  std::memcpy(&prefix, digest.data(), sizeof(prefix));
  return static_cast<std::size_t>(prefix);
}

PreparedPayload ModelStore::prepare(nn::ParamVector params) const {
  obs::TraceScope span("store.prepare");
  PreparedPayload payload(std::move(params));
  {
    ReaderLock lock(mutex_);
    payload.chunked_ = chunking_;
    payload.chunk_params_ = chunk_params_;
  }
  payload.hash_ = hash_params(payload.params_);
  if (payload.chunked_) {
    const std::span<const std::uint8_t> bytes = param_bytes(payload.params_);
    std::size_t begin = 0;
    for (const std::size_t end :
         chunk_boundaries(bytes, payload.chunk_params_)) {
      payload.chunks_.push_back(
          {end, Sha256::hash(bytes.subspan(begin, end - begin))});
      begin = end;
    }
  }
  return payload;
}

ModelStore::AddResult ModelStore::add(nn::ParamVector params) {
  return add(prepare(std::move(params)));
}

ModelStore::AddResult ModelStore::add(PreparedPayload payload) {
  obs::TraceScope span("store.add", &add_timing_histogram());
  add_counter().increment();
  AddResult result;
  result.hash = payload.hash_;

  WriterLock lock(mutex_);
  if (payload.chunked_ != chunking_ ||
      (chunking_ && payload.chunk_params_ != chunk_params_)) {
    throw std::logic_error(
        "ModelStore::add: payload was prepared for another chunk layout");
  }
  if (const auto it = by_hash_.find(result.hash); it != by_hash_.end()) {
    result.id = it->second;
    result.deduplicated = true;
    dedup_counter().increment();
    return result;
  }
  result.id = entries_.size();
  live_floats_ += payload.params_.size();
  entries_.push_back(
      {std::move(payload.params_), result.hash, /*released=*/false, {}});
  by_hash_.emplace(result.hash, result.id);
  if (chunking_) insert_chunks_locked(entries_.back(), payload.chunks_);
  return result;
}

void ModelStore::insert_chunks_locked(
    Entry& entry, std::span<const PreparedPayload::Chunk> chunks) {
  const std::span<const std::uint8_t> bytes = param_bytes(entry.params);
  std::size_t begin = 0;
  for (const PreparedPayload::Chunk& chunk : chunks) {
    const std::span<const std::uint8_t> piece =
        bytes.subspan(begin, chunk.end - begin);
    begin = chunk.end;
    if (const auto it = chunk_by_hash_.find(chunk.hash);
        it != chunk_by_hash_.end()) {
      ++chunks_[it->second].refcount;
      entry.chunk_ids.push_back(it->second);
      chunk_dedup_counter().increment();
      continue;
    }
    std::uint32_t slot = 0;
    if (!free_chunk_slots_.empty()) {
      slot = free_chunk_slots_.back();
      free_chunk_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(chunks_.size());
      chunks_.emplace_back();
    }
    ChunkSlot& stored = chunks_[slot];
    stored.bytes.assign(piece.begin(), piece.end());
    stored.hash = chunk.hash;
    stored.refcount = 1;
    chunk_by_hash_.emplace(chunk.hash, slot);
    entry.chunk_ids.push_back(slot);
    ++live_chunks_;
    chunks_counter().increment();
  }
}

void ModelStore::release_chunks_locked(Entry& entry) {
  for (const std::uint32_t slot : entry.chunk_ids) {
    ChunkSlot& chunk = chunks_[slot];
    if (--chunk.refcount == 0) {
      chunk_by_hash_.erase(chunk.hash);
      chunk.bytes.clear();
      chunk.bytes.shrink_to_fit();
      free_chunk_slots_.push_back(slot);
      --live_chunks_;
    }
  }
  entry.chunk_ids.clear();
  entry.chunk_ids.shrink_to_fit();
}

const nn::ParamVector& ModelStore::get(PayloadId id) const {
  get_counter().increment();
  ReaderLock lock(mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore::get: unknown payload id");
  }
  if (entries_[id].released) {
    throw std::logic_error("ModelStore::get: payload was released");
  }
  return entries_[id].params;
}

void ModelStore::release(PayloadId id) {
  released_counter().increment();
  WriterLock lock(mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore::release: unknown payload id");
  }
  Entry& entry = entries_[id];
  if (entry.released) return;
  by_hash_.erase(entry.hash);
  live_floats_ -= entry.params.size();
  entry.params.clear();
  entry.params.shrink_to_fit();
  entry.released = true;
  release_chunks_locked(entry);
}

bool ModelStore::is_released(PayloadId id) const {
  ReaderLock lock(mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore::is_released: unknown payload id");
  }
  return entries_[id].released;
}

PayloadId ModelStore::add_released(const Sha256Digest& hash) {
  WriterLock lock(mutex_);
  const PayloadId id = entries_.size();
  entries_.push_back({nn::ParamVector{}, hash, /*released=*/true, {}});
  return id;
}

const Sha256Digest& ModelStore::hash_of(PayloadId id) const {
  ReaderLock lock(mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore::hash_of: unknown payload id");
  }
  return entries_[id].hash;
}

std::size_t ModelStore::size() const {
  ReaderLock lock(mutex_);
  return entries_.size();
}

void ModelStore::configure_chunking(const ChunkParams& params) {
  WriterLock lock(mutex_);
  if (!entries_.empty()) {
    throw std::logic_error(
        "ModelStore::configure_chunking: store is not empty");
  }
  if (params.min_bytes == 0 || params.max_bytes < params.min_bytes ||
      params.mask_bits >= 64) {
    throw std::invalid_argument(
        "ModelStore::configure_chunking: bad chunk parameters");
  }
  chunking_ = true;
  chunk_params_ = params;
}

bool ModelStore::chunking_enabled() const {
  ReaderLock lock(mutex_);
  return chunking_;
}

ChunkParams ModelStore::chunk_params() const {
  ReaderLock lock(mutex_);
  return chunk_params_;
}

std::size_t ModelStore::chunk_count() const {
  ReaderLock lock(mutex_);
  return live_chunks_;
}

void ModelStore::serialize(ByteWriter& writer) const {
  ReaderLock lock(mutex_);
  writer.write_u8(chunking_ ? 1 : 0);
  if (!chunking_) {
    // Flat body: byte-identical to the v2 store section.
    writer.write_u64(entries_.size());
    for (const auto& entry : entries_) {
      // Liveness flag per entry: released payloads persist hash-only, so a
      // pruned ledger's dump shrinks with its store.
      writer.write_u8(entry.released ? 0 : 1);
      if (entry.released) {
        writer.write_bytes(entry.hash);
      } else {
        writer.write_f32_span(entry.params);
      }
    }
    return;
  }
  writer.write_u64(chunk_params_.min_bytes);
  writer.write_u64(chunk_params_.max_bytes);
  writer.write_u32(chunk_params_.mask_bits);
  // Each unique chunk's bytes are written once; freed slots persist as
  // empty byte strings so live entries' slot ids stay meaningful.
  writer.write_u64(chunks_.size());
  for (const auto& chunk : chunks_) writer.write_bytes(chunk.bytes);
  writer.write_u64(entries_.size());
  for (const auto& entry : entries_) {
    writer.write_u8(entry.released ? 0 : 1);
    if (entry.released) {
      writer.write_bytes(entry.hash);
    } else {
      writer.write_u32_span(entry.chunk_ids);
    }
  }
}

void ModelStore::deserialize_into(ByteReader& reader, ModelStore& store) {
  const std::uint8_t chunked = reader.read_u8();
  if (chunked == 0) {
    deserialize_into_v2(reader, store);
    return;
  }
  if (chunked != 1) {
    throw SerializeError("ModelStore: bad chunked flag");
  }
  ChunkParams params;
  params.min_bytes = reader.read_u64();
  params.max_bytes = reader.read_u64();
  params.mask_bits = reader.read_u32();
  store.configure_chunking(params);  // validates; store must be empty
  const std::uint64_t chunk_slots = reader.read_u64();
  std::vector<std::vector<std::uint8_t>> slots;
  slots.reserve(chunk_slots);
  for (std::uint64_t i = 0; i < chunk_slots; ++i) {
    slots.push_back(reader.read_bytes());
  }
  const std::uint64_t count = reader.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t live = reader.read_u8();
    if (live == 1) {
      // Reassemble the payload bytes from its chunk ids; add() re-chunks
      // deterministically (same content, same cutter parameters).
      std::vector<std::uint8_t> bytes;
      for (const std::uint32_t slot : reader.read_u32_vector()) {
        if (slot >= slots.size()) {
          throw SerializeError("ModelStore: chunk id out of range");
        }
        bytes.insert(bytes.end(), slots[slot].begin(), slots[slot].end());
      }
      if (bytes.size() % sizeof(float) != 0) {
        throw SerializeError("ModelStore: chunked payload not float-sized");
      }
      nn::ParamVector params_vec(bytes.size() / sizeof(float));
      if (!bytes.empty()) {
        std::memcpy(params_vec.data(), bytes.data(), bytes.size());
      }
      const auto added = store.add(std::move(params_vec));
      if (added.id != i) {
        throw SerializeError("ModelStore: duplicate payload in dump");
      }
      continue;
    }
    if (live != 0) {
      throw SerializeError("ModelStore: bad payload liveness flag");
    }
    const std::vector<std::uint8_t> hash_bytes = reader.read_bytes();
    Sha256Digest hash{};
    if (hash_bytes.size() != hash.size()) {
      throw SerializeError("ModelStore: bad released payload hash size");
    }
    std::memcpy(hash.data(), hash_bytes.data(), hash.size());
    store.add_released(hash);
  }
}

void ModelStore::deserialize_into_v2(ByteReader& reader, ModelStore& store) {
  const std::uint64_t count = reader.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t live = reader.read_u8();
    if (live == 1) {
      const auto added = store.add(reader.read_f32_vector());
      if (added.id != i) {
        // Duplicate payloads collapse on re-add; a well-formed dump never
        // contains duplicates because add() deduplicated on write.
        throw SerializeError("ModelStore: duplicate payload in dump");
      }
      continue;
    }
    if (live != 0) {
      throw SerializeError("ModelStore: bad payload liveness flag");
    }
    const std::vector<std::uint8_t> hash_bytes = reader.read_bytes();
    Sha256Digest hash{};
    if (hash_bytes.size() != hash.size()) {
      throw SerializeError("ModelStore: bad released payload hash size");
    }
    std::memcpy(hash.data(), hash_bytes.data(), hash.size());
    store.add_released(hash);
  }
}

void ModelStore::deserialize_into_v1(ByteReader& reader, ModelStore& store) {
  const std::uint64_t count = reader.read_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto added = store.add(reader.read_f32_vector());
    if (added.id != i) {
      throw SerializeError("ModelStore: duplicate payload in dump");
    }
  }
}

std::size_t ModelStore::total_parameters() const {
  ReaderLock lock(mutex_);
  return live_floats_;
}

std::size_t ModelStore::live_bytes() const {
  ReaderLock lock(mutex_);
  return live_floats_ * sizeof(float);
}

}  // namespace tanglefl::tangle
