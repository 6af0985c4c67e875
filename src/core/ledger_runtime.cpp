#include "core/ledger_runtime.hpp"

#include <algorithm>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"

namespace tanglefl::core {
namespace {

obs::Gauge& ledger_bytes_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("sim.ledger_bytes");
  return gauge;
}

}  // namespace

LedgerRuntime::LedgerRuntime(const data::FederatedDataset& dataset,
                             nn::ModelFactory factory,
                             const LedgerConfig& config,
                             const AttackConfig& attack,
                             std::size_t view_slots, ThreadPool* kernel_pool)
    : dataset_(&dataset),
      factory_(std::move(factory)),
      config_(config),
      attack_(attack),
      master_rng_(config.seed),
      kernel_pool_(kernel_pool),
      store_(),
      tangle_([&] {
        // Chunking must be configured before the first payload lands.
        if (config_.codec.chunk) {
          store_.configure_chunking(tangle::ChunkParams{});
        }
        // Genesis payload: a randomly initialized model every node starts
        // from.
        nn::Model model = factory_();
        Rng genesis_rng = master_rng_.split(streams::kGenesis);
        model.init(genesis_rng);
        const auto added = store_.add(model.get_parameters());
        return tangle::Tangle(added.id, added.hash);
      }()),
      view_cache_(view_slots),
      eval_engine_(factory_),
      pruner_(config_.prune),
      payload_pipeline_(config_.codec) {
  if (config_.timeline != nullptr) {
    health_ = std::make_unique<tangle::HealthTracker>(config_.health);
    timeline_sampler_ = std::make_unique<obs::RegistrySampler>();
  }

  // Declare a fixed random subset of users malicious.
  const std::size_t num_users = dataset_->num_users();
  const auto malicious_count = static_cast<std::size_t>(
      attack_.malicious_fraction * static_cast<double>(num_users) + 0.5);
  if (malicious_count > 0 && attack_.attack != AttackType::kNone) {
    Rng rng = master_rng_.split(streams::kMalicious);
    malicious_users_ =
        rng.sample_without_replacement(num_users, malicious_count);
    std::sort(malicious_users_.begin(), malicious_users_.end());
    if (attack_.attack == AttackType::kLabelFlip) {
      poisoned_users_.reserve(malicious_users_.size());
      for (const std::size_t u : malicious_users_) {
        poisoned_users_.push_back(
            data::make_label_flip_user(dataset_->user(u), attack_.flip));
      }
    }
  }
}

std::shared_ptr<const tangle::ViewCacheEntry> LedgerRuntime::cones(
    const tangle::TangleView& view) {
  return view_cache_.get(view);
}

bool LedgerRuntime::is_malicious(std::size_t user) const noexcept {
  return std::binary_search(malicious_users_.begin(), malicious_users_.end(),
                            user);
}

std::optional<PublishRequest> LedgerRuntime::step(
    const tangle::TangleView& view, const tangle::ViewCacheEntry& cones,
    std::uint64_t round, const Rng& rng, std::size_t user, bool malicious) {
  NodeContext context{view,          store_, factory_, cones,
                      eval_engine_,  payload_pipeline_, round,
                      rng,           kernel_pool_};
  const data::UserData& data = dataset_->user(user);
  if (!malicious) return HonestNode(config_.node).step(context, data);
  switch (attack_.attack) {
    case AttackType::kRandomPoison:
      return RandomPoisonNode(config_.node).step(context, data);
    case AttackType::kLabelFlip: {
      const auto it = std::lower_bound(malicious_users_.begin(),
                                       malicious_users_.end(), user);
      return LabelFlipNode(config_.node)
          .step(context, poisoned_users_[static_cast<std::size_t>(
                             it - malicious_users_.begin())]);
    }
    case AttackType::kBackdoor:
      return BackdoorNode(config_.node, attack_.trigger,
                          attack_.backdoor_boost,
                          attack_.backdoor_data_fraction)
          .step(context, data);
    case AttackType::kNone:
      break;
  }
  return std::nullopt;
}

tangle::TxIndex LedgerRuntime::insert(PublishRequest&& request,
                                      std::uint64_t round,
                                      std::string publisher) {
  const auto added = store_.add(std::move(request.payload));
  return tangle_.add_transaction(request.parents, added.id, added.hash, round,
                                 std::move(publisher));
}

bool LedgerRuntime::prune_due() {
  return config_.prune.enabled && pruner_.tick();
}

void LedgerRuntime::prune(std::size_t floor_limit) {
  const std::shared_ptr<const tangle::ViewCacheEntry> full =
      cones(tangle_.view());
  pruner_.advance(tangle_, store_, *full, full->tips(), floor_limit);
}

void LedgerRuntime::prune(std::span<const tangle::TxIndex> required_tips) {
  pruner_.advance(tangle_, store_, *cones(tangle_.view()), required_tips);
}

std::size_t LedgerRuntime::publish_ledger_bytes() {
  const std::size_t bytes = store_.live_bytes();
  ledger_bytes_gauge().set(static_cast<double>(bytes));
  return bytes;
}

void LedgerRuntime::probe_health(std::uint64_t now) {
  if (!timeline_on()) return;
  const tangle::TangleView full = tangle_.view();
  Rng rng = master_rng_.split(streams::kHealth).split(now);
  health_->sample(full, *cones(full), now, rng);
}

std::optional<obs::RoundScope> LedgerRuntime::timeline_row(
    std::uint64_t row) {
  if (!timeline_on()) return std::nullopt;
  return std::optional<obs::RoundScope>(std::in_place, *timeline_sampler_,
                                        *config_.timeline, row);
}

void LedgerRuntime::sample_timeline(std::uint64_t now, std::uint64_t row) {
  if (!timeline_on()) return;
  probe_health(now);
  timeline_sampler_->sample(*config_.timeline, row);
}

RoundRecord LedgerRuntime::ledger_record(std::uint64_t row) {
  RoundRecord record;
  record.round = row;
  record.tangle_size = tangle_.size();
  record.tip_count = cones(tangle_.view())->tips().size();
  record.ledger_bytes = publish_ledger_bytes();
  return record;
}

ReferenceResult LedgerRuntime::consensus_reference() {
  // kConsensus, not kEval: consensus walks and eval-user sampling used to
  // share the kEval root, colliding whenever tangle_.size() == round (see
  // core/rng_streams.hpp).
  Rng rng = master_rng_.split(streams::kConsensus).split(tangle_.size());
  return consensus_reference(tangle_.view(), rng);
}

ReferenceResult LedgerRuntime::consensus_reference(
    const tangle::TangleView& view, Rng& rng) {
  return choose_reference(view, store_, *cones(view), rng,
                          config_.node.reference);
}

data::DataSplit LedgerRuntime::eval_split(Rng& rng) const {
  const std::size_t num_users = dataset_->num_users();
  const auto eval_users = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.eval_nodes_fraction *
                                      static_cast<double>(num_users) +
                                  0.5));
  return dataset_->pooled_test(
      rng.sample_without_replacement(num_users, eval_users));
}

void LedgerRuntime::score(RoundRecord& record,
                          const ReferenceResult& reference,
                          const data::DataSplit& pooled, bool attack_metrics) {
  // The pooled split is batched once per eval, the model comes from the
  // pool, and the (reference payload list, split) result caches — a repeat
  // eval of an unchanged consensus on the same users costs no forwards.
  const std::shared_ptr<const BatchedSplit> prepared =
      eval_engine_.prepare(pooled);
  const EvalRequest request{reference.params, ParamsKey{reference.payloads}};
  const data::EvalResult eval =
      eval_engine_
          .evaluate_many(std::span<const EvalRequest>(&request, 1), *prepared,
                         kernel_pool_)
          .front()
          .result;
  record.accuracy = eval.accuracy;
  record.loss = eval.loss;
  if (!attack_metrics) return;
  // The attack metrics run direct forwards over transformed inputs, so they
  // still need a concrete model instance carrying the reference weights.
  EvalEngine::ModelLease lease = eval_engine_.acquire();
  lease.model().set_parameters(reference.params);
  record.target_misclassification = data::targeted_misclassification_rate(
      lease.model(), pooled, attack_.flip.source_class,
      attack_.flip.target_class);
  if (attack_.attack == AttackType::kBackdoor) {
    record.backdoor_success =
        data::backdoor_success_rate(lease.model(), pooled, attack_.trigger);
  }
}

void LedgerRuntime::evaluate_consensus(RoundRecord& record,
                                       std::uint64_t eval_key) {
  Rng eval_rng = master_rng_.split(streams::kEval).split(eval_key);
  const data::DataSplit pooled = eval_split(eval_rng);
  if (pooled.empty()) return;
  score(record, consensus_reference(), pooled, /*attack_metrics=*/true);
}

}  // namespace tanglefl::core
