// Test-local oracle for the consensus queries: tip-selection walks,
// confidences and ratings computed straight from a TangleView (its
// approver lists and BitMatrix cone passes), with no ViewCacheEntry in the
// loop. The library answers every such query from a cone cache entry; the
// view cache tests compare it against these definitions, RNG draw for RNG
// draw.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "tangle/confidence.hpp"
#include "tangle/tangle.hpp"
#include "tangle/tip_selection.hpp"

namespace tanglefl::tangle::oracle {

/// One weighted walk from the prune frontier: at a branch, approver a is
/// drawn with weight exp(alpha * (w_a - w_max)).
inline TxIndex random_walk_tip(const TangleView& view,
                               const std::vector<std::uint32_t>& future,
                               Rng& rng, const TipSelectionConfig& config) {
  TxIndex current = view.tangle().prune_floor();
  for (;;) {
    const std::vector<TxIndex> approvers = view.approvers(current);
    if (approvers.empty()) return current;
    if (approvers.size() == 1) {
      current = approvers.front();
      continue;
    }
    std::uint32_t max_weight = 0;
    for (const TxIndex a : approvers) {
      max_weight = std::max(max_weight, future[a]);
    }
    std::vector<double> weights;
    for (const TxIndex a : approvers) {
      weights.push_back(std::exp(config.alpha *
                                 (static_cast<double>(future[a]) -
                                  static_cast<double>(max_weight))));
    }
    current = approvers[rng.weighted_choice(weights)];
  }
}

inline std::vector<TxIndex> select_tips(const TangleView& view,
                                        std::size_t count, Rng& rng,
                                        const TipSelectionConfig& config) {
  std::vector<TxIndex> tips;
  if (config.method == TipSelectionMethod::kUniform) {
    const std::vector<TxIndex> tip_set = view.tips();
    for (std::size_t i = 0; i < count; ++i) {
      tips.push_back(tip_set.empty()
                         ? 0
                         : tip_set[rng.uniform_index(tip_set.size())]);
    }
    return tips;
  }
  const std::vector<std::uint32_t> future = view.future_cone_sizes();
  for (std::size_t i = 0; i < count; ++i) {
    tips.push_back(random_walk_tip(view, future, rng, config));
  }
  return tips;
}

/// Share of sampled walks whose tip (directly or indirectly) approves each
/// transaction; frozen history below the prune frontier counts as 1.
inline std::vector<double> compute_confidences(const TangleView& view,
                                               Rng& rng,
                                               const ConfidenceConfig& config) {
  std::vector<double> confidence(view.size(), 0.0);
  if (view.size() == 0 || config.sample_rounds == 0) return confidence;
  const std::vector<std::uint32_t> future = view.future_cone_sizes();
  const TxIndex floor = view.tangle().prune_floor();
  std::vector<std::uint32_t> hits(view.size(), 0);
  for (std::size_t round = 0; round < config.sample_rounds; ++round) {
    const TxIndex tip =
        random_walk_tip(view, future, rng, config.tip_selection);
    std::vector<bool> seen(view.size(), false);
    std::vector<TxIndex> stack{tip};
    seen[tip] = true;
    while (!stack.empty()) {
      const TxIndex current = stack.back();
      stack.pop_back();
      ++hits[current];
      if (current == view.tangle().genesis()) continue;
      for (const TxIndex p : view.tangle().parent_indices(current)) {
        if (p >= floor && !seen[p]) {
          seen[p] = true;
          stack.push_back(p);
        }
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(config.sample_rounds);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    confidence[i] = static_cast<double>(hits[i]) * inv;
  }
  for (TxIndex i = 0; i < floor && i < confidence.size(); ++i) {
    confidence[i] = 1.0;
  }
  return confidence;
}

inline std::vector<double> compute_ratings(const TangleView& view) {
  const std::vector<std::uint32_t> past = view.past_cone_sizes();
  return std::vector<double>(past.begin(), past.end());
}

}  // namespace tanglefl::tangle::oracle
