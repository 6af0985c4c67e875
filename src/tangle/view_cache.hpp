// Shared per-view cone/topology cache.
//
// Tip selection, confidence sampling, and Algorithm 1's priority queue all
// need the same derived quantities over a view: past-cone sizes (ratings),
// future-cone sizes (cumulative weights), the tip set, and the in-view
// approver lists every walk step traverses. Before this cache each
// participant of a round recomputed all of them independently — ~3 full
// O(n^2/64) BitMatrix passes per participant per round over the *same*
// shared view prefix, plus a fresh std::vector allocation per walk step in
// TangleView::approvers().
//
// ViewCacheEntry computes everything once per view:
//   * past/future cone size vectors (a delta fold of the transactions
//     appended since the last build for growing prefix views, otherwise
//     TangleView's bitset-reachability passes),
//   * the tip set, and
//   * a flat CSR adjacency snapshot of in-view approver lists, so a walk
//     step is a span lookup instead of a filtered vector allocation.
//
// ViewCache is a small keyed LRU of entries:
//   * keying — a view's identity is (prefix count) for prefix views and
//     (count, member count, membership hash + exact packed-mask compare)
//     for masked views; a masked view that covers its whole prefix
//     normalizes to the prefix key, so converged gossip replicas share
//     entries.
//   * invalidation — the tangle is append-only and entries only describe
//     in-view structure, so an entry can never go stale: add_transaction
//     grows the ledger, which changes the *key* of every view that sees
//     the new transaction (its prefix count or membership differs) and
//     leaves old identities untouched. Invalidation is by construction;
//     the cache additionally resets itself if it ever sees a different
//     Tangle instance.
//   * thread-safety — get() takes an internal mutex and may block to
//     build; entries are immutable after construction and shared via
//     shared_ptr, so any number of threads may *read* a returned entry
//     concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/sync.hpp"
#include "tangle/incremental_cones.hpp"
#include "tangle/tangle.hpp"

namespace tanglefl::tangle {

/// Immutable snapshot of everything consensus queries need from one view.
class ViewCacheEntry {
 public:
  /// Computes all derived quantities for `view` from scratch: the cone
  /// vectors are TangleView::past_cone_sizes()/future_cone_sizes().
  static std::shared_ptr<const ViewCacheEntry> build(const TangleView& view);

  /// Delta build for prefix(-equivalent) views: advances `state` to
  /// view.size() — folding in only the transactions appended since the
  /// previous build — and snapshots its cone vectors instead of running
  /// the O(n^2/64) BitMatrix pass. With pruning disabled the result is
  /// bit-identical to build(); under pruning the frozen region carries the
  /// approximation documented in tangle/incremental_cones.hpp. The caller
  /// must guarantee state.processed() <= view.size() and that the view is
  /// prefix-equivalent (member_count() == size()).
  static std::shared_ptr<const ViewCacheEntry> build_incremental(
      const TangleView& view, IncrementalConeState& state);

  /// Upper bound of member indices (== TangleView::size()).
  std::size_t view_size() const noexcept { return count_; }

  /// Number of transactions each transaction directly or indirectly
  /// approves (the rating of Algorithm 1), indexed by TxIndex.
  std::span<const std::uint32_t> past_cone_sizes() const noexcept {
    return past_;
  }

  /// Number of in-view transactions directly or indirectly approving each
  /// transaction (the cumulative weight steering the random walk).
  std::span<const std::uint32_t> future_cone_sizes() const noexcept {
    return future_;
  }

  /// Transactions with no approver inside the view, ascending.
  std::span<const TxIndex> tips() const noexcept { return tips_; }

  /// Direct approvers of `index` inside the view, ascending — the same
  /// sequence TangleView::approvers() returns, without the allocation.
  /// `index` must be inside the view: the CSR offset table has count_ + 1
  /// rows, so an out-of-view index used to silently read garbage (not
  /// noexcept — the debug-build bounds check throws CheckFailure).
  std::span<const TxIndex> approvers(TxIndex index) const {
    TANGLEFL_DCHECK(index < count_);
    return std::span<const TxIndex>(edges_)
        .subspan(offsets_[index], offsets_[index + 1] - offsets_[index]);
  }

  /// Walk root recorded at build time: the tangle's prune frontier (0 with
  /// pruning off, i.e. the genesis). Tip-selection walks over this entry
  /// start here, never descending into frozen history.
  TxIndex root() const noexcept { return root_; }

 private:
  ViewCacheEntry() = default;

  /// CSR + tip-set fill shared by both builders.
  void fill_topology(const TangleView& view);

  TxIndex root_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> past_;
  std::vector<std::uint32_t> future_;
  std::vector<TxIndex> tips_;
  std::vector<std::uint32_t> offsets_;  // count_ + 1 CSR row offsets
  std::vector<TxIndex> edges_;          // flat in-view approver lists
};

/// Keyed LRU cache of ViewCacheEntry, shared by all participants of a
/// round. One instance per engine (and per Tangle).
class ViewCache {
 public:
  /// A miss on a monotonically growing prefix view takes the delta build
  /// (ViewCacheEntry::build_incremental); masked and shrinking views fall
  /// back to the full BitMatrix build.
  explicit ViewCache(std::size_t capacity = 8) : capacity_(capacity) {}

  /// Returns the entry for `view`, building it on a miss. Hits and misses
  /// are counted in the tangle.view_cache.{hit,miss} metrics.
  std::shared_ptr<const ViewCacheEntry> get(const TangleView& view);

  /// Copies of the incremental cone-state vectors, for checkpointing a
  /// pruned ledger (tangle/checkpoint.hpp). Both empty when the state has
  /// processed nothing yet.
  struct ConeStateSnapshot {
    std::vector<std::uint32_t> past;
    std::vector<std::uint32_t> future;
  };
  ConeStateSnapshot cone_state_snapshot() const;

  /// Seeds the incremental state from a checkpoint snapshot and binds the
  /// cache to `tangle` (whose leading snapshot.past.size() transactions
  /// the arrays must describe). Resuming through this keeps cone values —
  /// including their historical-floor approximations — byte-identical to
  /// the run that saved them.
  void restore_cone_state(const Tangle& tangle, ConeStateSnapshot snapshot);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    std::size_t count = 0;
    std::size_t members = 0;
    std::uint64_t mask_hash = 0;
    // Packed membership bits for exact verification on hash match; empty
    // for prefix(-equivalent) views.
    std::vector<std::uint64_t> mask_words;
    std::shared_ptr<const ViewCacheEntry> entry;
    std::uint64_t last_used = 0;
  };

  mutable Mutex mutex_;
  std::vector<Slot> slots_ TANGLEFL_GUARDED_BY(mutex_);
  std::uint64_t tick_ TANGLEFL_GUARDED_BY(mutex_) = 0;
  const Tangle* tangle_ TANGLEFL_GUARDED_BY(mutex_) = nullptr;
  IncrementalConeState cone_state_ TANGLEFL_GUARDED_BY(mutex_);
  const std::size_t capacity_;  // lint:allow(unannotated-guard) immutable
};

}  // namespace tanglefl::tangle
