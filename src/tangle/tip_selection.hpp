// Tip selection: a weighted random walk from the genesis transaction
// towards the tips, moving opposite the direction of approvals
// (Section II-C). At each step the walk picks one of the current
// transaction's approvers with probability proportional to
// exp(alpha * cumulative_weight), the IOTA MCMC transition rule; alpha is
// the "randomness factor" the robustness of the tangle depends on
// (Section V-B, [32]). alpha = 0 degenerates to an unbiased random walk,
// large alpha to a deterministic heaviest-subtangle descent.
//
// As in the paper's prototype, walks always start at genesis rather than at
// a depth-windowed particle (Section IV).
#pragma once

#include <vector>

#include "support/rng.hpp"
#include "tangle/tangle.hpp"

namespace tanglefl::tangle {

class ViewCacheEntry;

enum class TipSelectionMethod {
  kWeightedWalk,  // MCMC walk biased by cumulative weight (IOTA default)
  kUniform,       // uniform random tip selection (URTS, [18] in the paper)
};

struct TipSelectionConfig {
  TipSelectionMethod method = TipSelectionMethod::kWeightedWalk;
  double alpha = 0.01;  // walk bias towards heavier branches
};

/// Uniformly random member of view.tips() — URTS. Cheap but offers no
/// protection against lazy/parasite chains, which is why IOTA (and the
/// paper) use the weighted walk; exposed for comparison experiments.
TxIndex uniform_random_tip(const TangleView& view, Rng& rng);

/// One weighted random walk over the view a prebuilt cone cache entry
/// describes (see tangle/view_cache.hpp), from the entry's root; returns
/// the reached tip. Allocation-free apart from the branch weights.
TxIndex random_walk_tip(const ViewCacheEntry& cones, Rng& rng,
                        const TipSelectionConfig& config);

/// Runs `count` independent walks over `cones` and returns the reached tips
/// (duplicates possible — two walks may end at the same tip, and the paper
/// allows the two chosen tips to coincide). Under kUniform each draw picks
/// from the entry's tip set.
std::vector<TxIndex> select_tips(const ViewCacheEntry& cones,
                                 std::size_t count, Rng& rng,
                                 const TipSelectionConfig& config);

}  // namespace tanglefl::tangle
