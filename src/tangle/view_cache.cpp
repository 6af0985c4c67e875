#include "tangle/view_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tanglefl::tangle {
namespace {

// Cache effectiveness counters. Deterministic: the sequence of get() calls
// is fixed by (seed, config), never by scheduling.
obs::Counter& hit_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.view_cache.hit");
  return counter;
}

obs::Counter& miss_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.view_cache.miss");
  return counter;
}

obs::Counter& eviction_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.view_cache.evictions");
  return counter;
}

// An entry build performs one past- and one future-cone pass. This is the
// only source of the counter, so it means "full BitMatrix cone passes"; the
// invariant audit's direct TangleView::{past,future}_cone_sizes() calls do
// not count.
obs::Counter& cone_recompute_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.cone_recompute.count");
  return counter;
}

obs::Histogram& build_timing_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.view_cache.build_us", obs::BucketLayout::exponential(4.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

// Delta builds maintained by IncrementalConeState — counted separately
// from cone_recompute so the latter keeps meaning "full BitMatrix passes".
obs::Counter& incremental_build_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "tangle.cones.incremental.builds");
  return counter;
}

obs::Histogram& incremental_build_timing_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.cones.incremental.build_us",
      obs::BucketLayout::exponential(4.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Packs view membership into 64-bit words (LSB-first). Returns an empty
/// vector for prefix(-equivalent) views, normalizing "mask covers the whole
/// prefix" to the prefix identity.
std::vector<std::uint64_t> pack_membership(const TangleView& view) {
  if (view.member_count() == view.size()) return {};
  const std::size_t words = (view.size() + 63) / 64;
  std::vector<std::uint64_t> packed(words, 0);
  for (TxIndex i = 0; i < view.size(); ++i) {
    if (view.contains(i)) packed[i / 64] |= (1ULL << (i % 64));
  }
  return packed;
}

std::uint64_t hash_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t w : words) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (w >> shift) & 0xff;
      h *= kFnvPrime;
    }
  }
  return h;
}

}  // namespace

void ViewCacheEntry::fill_topology(const TangleView& view) {
  // CSR adjacency snapshot: approver lists are in insertion (ascending)
  // order in the Tangle, so filtering preserves the exact sequence
  // TangleView::approvers() produces.
  const Tangle& tangle = view.tangle();
  const std::size_t n = view.size();
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  for (TxIndex i = 0; i < n; ++i) {
    if (view.contains(i)) {
      for (const TxIndex a : tangle.approvers(i)) {
        if (view.contains(a)) edges_.push_back(a);
      }
    }
    offsets_.push_back(static_cast<std::uint32_t>(edges_.size()));
  }
  for (TxIndex i = 0; i < n; ++i) {
    if (view.contains(i) && offsets_[i + 1] == offsets_[i]) {
      tips_.push_back(i);
    }
  }
}

std::shared_ptr<const ViewCacheEntry> ViewCacheEntry::build(
    const TangleView& view) {
  obs::TraceScope span("tangle.view_cache.build", &build_timing_histogram());
  cone_recompute_counter().add(2);  // one past + one future pass

  auto entry = std::shared_ptr<ViewCacheEntry>(new ViewCacheEntry());
  entry->count_ = view.size();
  entry->root_ = view.tangle().prune_floor();
  entry->past_ = view.past_cone_sizes();
  entry->future_ = view.future_cone_sizes();
  entry->fill_topology(view);
  return entry;
}

std::shared_ptr<const ViewCacheEntry> ViewCacheEntry::build_incremental(
    const TangleView& view, IncrementalConeState& state) {
  obs::TraceScope span("tangle.cones.incremental.build",
                       &incremental_build_timing_histogram());
  incremental_build_counter().increment();

  const std::size_t n = view.size();
  state.advance_to(view.tangle(), n);
  auto entry = std::shared_ptr<ViewCacheEntry>(new ViewCacheEntry());
  entry->count_ = n;
  entry->root_ = view.tangle().prune_floor();
  const std::span<const std::uint32_t> past = state.past_cone_sizes();
  const std::span<const std::uint32_t> future = state.future_cone_sizes();
  entry->past_.assign(past.begin(), past.begin() + static_cast<long>(n));
  entry->future_.assign(future.begin(), future.begin() + static_cast<long>(n));
  entry->fill_topology(view);
  return entry;
}

std::shared_ptr<const ViewCacheEntry> ViewCache::get(const TangleView& view) {
  const std::vector<std::uint64_t> mask_words = pack_membership(view);
  const std::uint64_t mask_hash =
      mask_words.empty() ? 0 : hash_words(mask_words);

  // Displaced state (an evicted slot, or everything dropped on rebinding)
  // is parked here and destroyed after the lock releases: a displaced
  // entry can hold the last reference to O(n^2/64) bits of cone snapshot,
  // and freeing that under mutex_ would stall every concurrent get().
  std::vector<Slot> displaced;
  std::shared_ptr<const ViewCacheEntry> result;
  {
    MutexLock lock(mutex_);
    // Defensive: a cache is bound to one Tangle instance; seeing another
    // one (e.g. after a test reuses the cache) drops all entries.
    if (tangle_ != &view.tangle()) {
      tangle_ = &view.tangle();
      cone_state_.reset();
      displaced.swap(slots_);
    }
    ++tick_;
    for (Slot& slot : slots_) {
      if (slot.count == view.size() && slot.members == view.member_count() &&
          slot.mask_hash == mask_hash && slot.mask_words == mask_words) {
        slot.last_used = tick_;
        hit_counter().increment();
        return slot.entry;
      }
    }
    miss_counter().increment();
    Slot slot;
    slot.count = view.size();
    slot.members = view.member_count();
    slot.mask_hash = mask_hash;
    slot.mask_words = mask_words;
    // Built under the lock on purpose: a second thread asking for the same
    // view blocks here and then *hits*, keeping the hit/miss counter
    // sequence deterministic (build-outside-lock would double-miss).
    //
    // The delta path serves prefix(-equivalent) views the incremental
    // state can reach monotonically. Masked views and shrinking requests
    // (e.g. the async engine's lagging wake horizons right after a
    // full-ledger eval) fall back to the full BitMatrix build — the state
    // only ever moves forward, so a later growing request resumes the
    // delta path where it left off.
    if (mask_words.empty() &&
        cone_state_.processed() <= view.size()) {
      slot.entry = ViewCacheEntry::build_incremental(view, cone_state_);
    } else {
      slot.entry = ViewCacheEntry::build(view);
    }
    slot.last_used = tick_;
    if (capacity_ > 0 && slots_.size() >= capacity_) {
      const auto oldest = std::min_element(
          slots_.begin(), slots_.end(), [](const Slot& a, const Slot& b) {
            return a.last_used < b.last_used;
          });
      eviction_counter().increment();
      displaced.push_back(std::move(*oldest));
      *oldest = std::move(slot);
      result = oldest->entry;
    } else {
      slots_.push_back(std::move(slot));
      result = slots_.back().entry;
    }
  }
  return result;
}

std::size_t ViewCache::size() const {
  MutexLock lock(mutex_);
  return slots_.size();
}

ViewCache::ConeStateSnapshot ViewCache::cone_state_snapshot() const {
  MutexLock lock(mutex_);
  const std::span<const std::uint32_t> past = cone_state_.past_cone_sizes();
  const std::span<const std::uint32_t> future =
      cone_state_.future_cone_sizes();
  return ConeStateSnapshot{{past.begin(), past.end()},
                           {future.begin(), future.end()}};
}

void ViewCache::restore_cone_state(const Tangle& tangle,
                                   ConeStateSnapshot snapshot) {
  std::vector<Slot> displaced;
  {
    MutexLock lock(mutex_);
    // Bind to the restored tangle so the next get() does not treat it as a
    // rebind and wipe the seeded state.
    tangle_ = &tangle;
    displaced.swap(slots_);
    cone_state_.restore(std::move(snapshot.past), std::move(snapshot.future));
  }
}

}  // namespace tanglefl::tangle
