// Accuracy-biased tip selection — the first Section VI outlook item:
// "evaluate the model on local data during the tip selection algorithm,
// introducing model performance as a bias in the weighted random walk.
// This could lead to clusters of federated nodes with similar data working
// on separate sub-tangles."
//
// The walk's transition probability combines the structural cumulative
// weight with the payload's loss on the walking node's local validation
// data:
//
//   P(current -> child) ∝ exp(alpha * w_child - beta * loss_child)
//
// beta = 0 recovers the standard walk; larger beta steers the walk towards
// branches whose models already fit the local distribution, letting nodes
// with similar data converge on shared sub-tangles (personalization).
// Payload losses are memoized per (node step) in a LocalLossCache, so each
// transaction is evaluated at most once regardless of walk count.
#pragma once

#include <memory>
#include <unordered_map>

#include "support/rng.hpp"
#include "tangle/model_store.hpp"
#include "tangle/tip_selection.hpp"

namespace tanglefl {
class ThreadPool;
}

namespace tanglefl::core {

class BatchedSplit;
class EvalEngine;

/// Memoized evaluation of transaction payloads on one validation split.
/// The per-step memo (keyed by transaction) bounds walk-bias probes to one
/// per transaction regardless of walk count, and the probe itself hits the
/// eval engine's cross-round payload cache.
class LocalLossCache {
 public:
  /// Probes go through `engine`'s payload cache and model pool against
  /// `batched`, the engine-batched validation split. A null `batched`
  /// (empty validation) scores every payload 0, which degenerates to the
  /// structural walk. `pool` (optional, not owned) drives the fused
  /// multi-model pass of losses().
  LocalLossCache(EvalEngine& engine, const tangle::ModelStore& store,
                 std::shared_ptr<const BatchedSplit> batched,
                 ThreadPool* pool = nullptr)
      : store_(&store),
        engine_(&engine),
        batched_(std::move(batched)),
        pool_(pool) {}

  /// Losses of the payloads of `indices` on the validation split, in
  /// order. Every not-yet-memoized index is probed in one group through
  /// the engine's fused multi-model pass, so a walk branch pays one grouped
  /// evaluation instead of one standalone forward per approver. Memo
  /// contents and counters are identical to probing serially in `indices`
  /// order.
  std::vector<double> losses(const tangle::TangleView& view,
                             std::span<const tangle::TxIndex> indices);

  /// Forward evaluations this cache instance paid for (engine cache hits
  /// are free and not counted).
  std::size_t evaluations() const noexcept { return evaluations_; }

 private:
  const tangle::ModelStore* store_;
  EvalEngine* engine_;
  std::shared_ptr<const BatchedSplit> batched_;
  ThreadPool* pool_ = nullptr;
  std::unordered_map<tangle::TxIndex, double> cache_;
  std::size_t evaluations_ = 0;
};

struct BiasedWalkConfig {
  double alpha = 0.01;  // structural (cumulative weight) bias
  double beta = 1.0;    // local-performance bias; 0 = standard walk
};

/// One biased walk over `view`, whose cone cache entry is `cones` (see
/// tangle/view_cache.hpp); returns the reached tip. The view is needed for
/// loss lookups, which are keyed by transaction payload.
tangle::TxIndex biased_random_walk_tip(const tangle::TangleView& view,
                                       const tangle::ViewCacheEntry& cones,
                                       LocalLossCache& cache, Rng& rng,
                                       const BiasedWalkConfig& config);

/// Runs `count` biased walks sharing one loss cache.
std::vector<tangle::TxIndex> biased_select_tips(
    const tangle::TangleView& view, const tangle::ViewCacheEntry& cones,
    std::size_t count, LocalLossCache& cache, Rng& rng,
    const BiasedWalkConfig& config);

}  // namespace tanglefl::core
