// The ledger runtime under every simulation engine. The paper has one
// ledger and one node algorithm (Algorithms 1 and 2); Section IV runs them
// in rounds and Section VI's outlook runs them asynchronously or on partial
// replicas. Only the scheduling differs, so everything else lives here, once:
//
//   * the ledger: master Rng, ModelStore (chunking configured before the
//     genesis lands), genesis Tangle, barrier insert, milestone pruning and
//     the sim.ledger_bytes gauge;
//   * the shared read paths: the per-view cone cache, the evaluation engine,
//     consensus reference and consensus evaluation;
//   * the node side: the malicious population (label-flip users included),
//     attack-type dispatch and the publish-path payload codec;
//   * the health tracker and timeline sampler.
//
// Each engine holds one runtime as a member and keeps only its scheduler:
// the round barrier (core/simulation.hpp), the event queue
// (core/async_simulation.hpp) or pull gossip (core/gossip_simulation.hpp),
// plus its own counters.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/eval_engine.hpp"
#include "core/metrics.hpp"
#include "core/node.hpp"
#include "data/poison.hpp"
#include "obs/timeline.hpp"
#include "tangle/health.hpp"
#include "tangle/milestones.hpp"
#include "tangle/payload_codec.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::core {

enum class AttackType {
  kNone,
  kRandomPoison,  // Fig. 5: N(0,1) parameter transactions
  kLabelFlip,     // Fig. 6: source-class samples labeled as target class
  kBackdoor,      // Section VI outlook: boosted trigger-patch backdoor [29]
};

/// The malicious population of the round-based and asynchronous engines:
/// a fixed random malicious_fraction of all users runs `attack` from the
/// engine's attack start on. Only their configs derive from it; the gossip
/// engine runs without an attack.
struct AttackConfig {
  AttackType attack = AttackType::kNone;
  double malicious_fraction = 0.0;
  data::LabelFlip flip{3, 8};
  // Backdoor attack parameters (attack == kBackdoor).
  data::BackdoorTrigger trigger;
  double backdoor_boost = 3.0;
  double backdoor_data_fraction = 0.5;
};

/// Settings every engine shares; each engine config derives from it and
/// adds only its scheduler's knobs.
struct LedgerConfig {
  NodeConfig node;

  // Evaluations pool the test data of a random fraction of all nodes (the
  // paper validates on a random 10%).
  double eval_nodes_fraction = 0.1;

  std::uint64_t seed = 1;

  // Publish-path payload codec (see tangle/payload_codec.hpp): every
  // published payload is replaced by its canonical decoded form
  // decode(encode(payload)), so the ledger holds exactly the bytes any
  // decoder reconstructs, and codec.chunk switches the ModelStore to
  // content-defined chunk dedup. Every stage defaults off; with only
  // lossless stages on, outputs stay byte-identical to codec-off runs.
  tangle::PayloadCodecConfig codec;

  // Milestone pruning (see tangle/milestones.hpp): at every prune.interval
  // barriers or evaluation instants the engine looks for a transaction
  // approved by every tip its walkers can start from, freezes the cone
  // below it, and releases frozen ModelStore payloads. Bounds walk depth and
  // payload memory for long runs at the cost of the documented
  // frozen-history approximations. Disabled (the default), every output
  // stays byte-identical to prior versions.
  tangle::MilestoneConfig prune;

  // Optional time-series sink (see obs/timeline.hpp). When set, the engine
  // probes DAG health (tips, orphans, approval depth, first-approval /
  // confirmation latency) over the full ledger and snapshots registry deltas
  // once per row; null keeps all probing off. The pointed-to timeline must
  // outlive the run.
  obs::Timeline* timeline = nullptr;
  tangle::HealthConfig health;
};

class LedgerRuntime {
 public:
  /// Builds the genesis ledger and draws the malicious population of
  /// `attack`. `view_slots` sizes the cone cache for the engine's view
  /// pattern. `kernel_pool` (optional, not owned) runs intra-node NN
  /// kernels. The dataset must outlive the runtime.
  LedgerRuntime(const data::FederatedDataset& dataset,
                nn::ModelFactory factory, const LedgerConfig& config,
                const AttackConfig& attack, std::size_t view_slots,
                ThreadPool* kernel_pool = nullptr);

  const data::FederatedDataset& dataset() const noexcept { return *dataset_; }
  /// Root of every engine RNG stream (core/rng_streams.hpp).
  const Rng& rng() const noexcept { return master_rng_; }
  const tangle::Tangle& tangle() const noexcept { return tangle_; }
  const tangle::ModelStore& store() const noexcept { return store_; }
  EvalEngine& eval_engine() noexcept { return eval_engine_; }
  /// Sorted indices of the malicious users (empty without an attack).
  const std::vector<std::size_t>& malicious_users() const noexcept {
    return malicious_users_;
  }

  /// The shared cone cache entry for `view`.
  std::shared_ptr<const tangle::ViewCacheEntry> cones(
      const tangle::TangleView& view);

  bool is_malicious(std::size_t user) const noexcept;

  /// One node step of `user` on `view` (whose cone entry is `cones`), with
  /// the step's private stream `rng`: Algorithm 2 for an honest user, the
  /// configured attack for a malicious one. The step encodes and hashes its
  /// payload itself, so the barrier only inserts. Safe to call
  /// concurrently.
  std::optional<PublishRequest> step(const tangle::TangleView& view,
                                     const tangle::ViewCacheEntry& cones,
                                     std::uint64_t round, const Rng& rng,
                                     std::size_t user, bool malicious);

  /// Barrier insert: lands a published payload in the store and its
  /// transaction in the DAG. Returns the new transaction's index.
  tangle::TxIndex insert(PublishRequest&& request, std::uint64_t round,
                         std::string publisher);

  /// Counts one barrier or evaluation instant; true when pruning is on and
  /// this instant is a milestone check point.
  bool prune_due();
  /// Milestone check over the full ledger, covering the ledger's own tips
  /// and never moving the frontier past `floor_limit`.
  void prune(std::size_t floor_limit = std::numeric_limits<std::size_t>::max());
  /// Same, covering `required_tips` instead (partial replicas).
  void prune(std::span<const tangle::TxIndex> required_tips);

  /// Publishes the live payload bytes to the sim.ledger_bytes gauge and
  /// returns them.
  std::size_t publish_ledger_bytes();

  bool timeline_on() const noexcept { return health_ != nullptr; }
  /// Timeline mode only (no-op otherwise): probes DAG health over the full
  /// ledger at engine time `now`, from a dedicated stream keyed by `now` so
  /// probing never perturbs the simulation.
  void probe_health(std::uint64_t now);
  /// Timeline mode only (empty otherwise): the row boundary of a round
  /// body. Closing it samples registry deltas into timeline row `row`, so a
  /// body that returns early or throws still writes its row.
  std::optional<obs::RoundScope> timeline_row(std::uint64_t row);
  /// probe_health(now), then samples registry deltas into row `row`.
  void sample_timeline(std::uint64_t now, std::uint64_t row);

  /// An evaluation record holding the ledger's state: size, tip count and
  /// live payload bytes (also published to the gauge).
  RoundRecord ledger_record(std::uint64_t row);

  /// Algorithm 1 over the full ledger, with walks from the kConsensus stream
  /// keyed by the ledger size.
  ReferenceResult consensus_reference();
  /// Algorithm 1 over `view` with walks from `rng`.
  ReferenceResult consensus_reference(const tangle::TangleView& view,
                                      Rng& rng);

  /// Pooled test data of a random eval_nodes_fraction of users, drawn
  /// from `rng`.
  data::DataSplit eval_split(Rng& rng) const;

  /// Scores `reference` on `pooled` into `record`: accuracy and loss
  /// through the eval engine (cached by the reference's payload list), plus
  /// the targeted-misclassification rate and, under a backdoor attack, the
  /// backdoor success rate when `attack_metrics` is set.
  void score(RoundRecord& record, const ReferenceResult& reference,
             const data::DataSplit& pooled, bool attack_metrics);

  /// The consensus evaluation of the round-based and asynchronous engines:
  /// eval users from the kEval stream keyed by `eval_key`, the full-ledger
  /// consensus, scored with attack metrics.
  void evaluate_consensus(RoundRecord& record, std::uint64_t eval_key);

 private:
  const data::FederatedDataset* dataset_;
  nn::ModelFactory factory_;
  const LedgerConfig config_;
  const AttackConfig attack_;
  Rng master_rng_;
  ThreadPool* kernel_pool_;
  tangle::ModelStore store_;
  tangle::Tangle tangle_;
  tangle::ViewCache view_cache_;
  // Shared loss-probe engine: payload-loss cache, model pool, pre-batched
  // validation splits. Every node step and consensus eval goes through it.
  EvalEngine eval_engine_;
  tangle::MilestoneTracker pruner_;
  // Publish-path codec driver; pass-through when no wire stage is on.
  tangle::PayloadPipeline payload_pipeline_;

  // Timeline mode only; null otherwise so the default path pays nothing
  // for the probes.
  std::unique_ptr<tangle::HealthTracker> health_;
  std::unique_ptr<obs::RegistrySampler> timeline_sampler_;

  std::vector<std::size_t> malicious_users_;    // sorted user indices
  std::vector<data::UserData> poisoned_users_;  // parallel to malicious_users_
};

}  // namespace tanglefl::core
