#include "core/gossip_simulation.hpp"

#include <algorithm>
#include <cassert>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tanglefl::core {
namespace {

obs::Counter& gossip_pull_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("gossip.pulls");
  return counter;
}

obs::Counter& gossip_failed_pull_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("gossip.failed_pulls");
  return counter;
}

obs::Counter& gossip_published_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("gossip.published");
  return counter;
}

obs::Counter& gossip_suppressed_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("gossip.suppressed");
  return counter;
}

obs::Gauge& gossip_ledger_bytes_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("sim.ledger_bytes");
  return gauge;
}

obs::Gauge& gossip_coverage_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("gossip.coverage");
  return gauge;
}

nn::ParamVector make_genesis_params(const nn::ModelFactory& factory,
                                    Rng rng) {
  nn::Model model = factory();
  model.init(rng);
  return model.get_parameters();
}

EvalEngineConfig eval_engine_config(bool use_cache, bool use_batched) {
  EvalEngineConfig config;
  config.use_cache = use_cache;
  config.use_batched = use_batched;
  return config;
}

}  // namespace

GossipSimulation::GossipSimulation(const data::FederatedDataset& dataset,
                                   nn::ModelFactory factory,
                                   GossipConfig config)
    : dataset_(&dataset),
      factory_(std::move(factory)),
      config_(config),
      master_rng_(config.seed),
      store_(),
      tangle_([&] {
        // Chunking must be configured before the first payload lands.
        if (config.codec.chunk) {
          store_.configure_chunking(tangle::ChunkParams{});
        }
        const auto added = store_.add(make_genesis_params(
            factory_, master_rng_.split(streams::kGenesis)));
        return tangle::Tangle(added.id, added.hash);
      }()),
      eval_engine_(factory_,
                   eval_engine_config(config.use_eval_cache,
                                      config.use_eval_batch)),
      pruner_(config.prune) {
  if (config_.timeline != nullptr) {
    health_ = std::make_unique<tangle::HealthTracker>(config_.health);
    timeline_sampler_ = std::make_unique<obs::RegistrySampler>();
  }
  const std::size_t num_users = dataset_->num_users();
  assert(num_users >= 2);

  // Random pull topology: each node pulls from `peers_per_node` distinct
  // other nodes. (Directed; the union in/out degree keeps the graph
  // connected with high probability for fanout >= 2.)
  Rng topology_rng = master_rng_.split(streams::kTopology);
  peers_.resize(num_users);
  const std::size_t fanout =
      std::min(config_.peers_per_node, num_users - 1);
  for (std::size_t u = 0; u < num_users; ++u) {
    Rng node_rng = topology_rng.split(u + 1);
    const auto sample =
        node_rng.sample_without_replacement(num_users - 1, fanout);
    for (const std::size_t s : sample) {
      // Map [0, num_users-1) onto peers != u.
      peers_[u].push_back(s < u ? s : s + 1);
    }
  }

  // Every replica starts with the genesis only.
  known_.assign(num_users, std::vector<bool>(1, true));
}

tangle::TangleView GossipSimulation::replica_view(std::size_t node) const {
  return tangle::TangleView(tangle_, known_.at(node));
}

double GossipSimulation::mean_coverage() const {
  const auto total = static_cast<double>(tangle_.size());
  double acc = 0.0;
  for (const auto& known : known_) {
    acc += static_cast<double>(std::count(known.begin(), known.end(), true)) /
           total;
  }
  return acc / static_cast<double>(known_.size());
}

void GossipSimulation::pull(std::size_t from, std::size_t to) {
  // Anti-entropy: `to` learns the oldest `max_transfer` transactions that
  // `from` knows and `to` does not. Oldest-first transfer preserves
  // ancestor closure because parents always precede children.
  auto& mine = known_[to];
  const auto& theirs = known_[from];
  mine.resize(tangle_.size(), false);
  std::size_t transferred = 0;
  const std::size_t limit =
      config_.max_transfer == 0 ? tangle_.size() : config_.max_transfer;
  for (tangle::TxIndex i = 0; i < theirs.size(); ++i) {
    if (!theirs[i] || mine[i]) continue;
    mine[i] = true;
    if (++transferred >= limit) break;
  }
}

std::size_t GossipSimulation::run_round(std::uint64_t round) {
  obs::TraceScope span("sim.round");
  assert(round >= 1);
  const std::size_t num_users = dataset_->num_users();

  // --- gossip phase -------------------------------------------------
  Rng pull_rng = master_rng_.split(streams::kPull).split(round);
  for (std::size_t exchange = 0; exchange < config_.gossip_exchanges;
       ++exchange) {
    for (std::size_t u = 0; u < num_users; ++u) {
      for (const std::size_t peer : peers_[u]) {
        if (pull_rng.bernoulli(config_.pull_failure)) {
          ++stats_.failed_pulls;
          gossip_failed_pull_counter().increment();
          continue;
        }
        pull(peer, u);
        ++stats_.pulls;
        gossip_pull_counter().increment();
      }
    }
  }

  // --- training phase ------------------------------------------------
  const std::size_t participants =
      std::min(config_.nodes_per_round, num_users);
  Rng selection_rng = master_rng_.split(streams::kParticipant).split(round);
  const std::vector<std::size_t> chosen =
      selection_rng.sample_without_replacement(num_users, participants);

  std::size_t published = 0;
  for (const std::size_t user_index : chosen) {
    const tangle::TangleView view = replica_view(user_index);
    // Participants whose replicas converged to the same membership share
    // one cone computation through the keyed cache.
    const std::shared_ptr<const tangle::ViewCacheEntry> cones =
        config_.use_view_cache ? view_cache_.get(view) : nullptr;
    NodeContext context{view, store_, factory_, round,
                        master_rng_.split(streams::kNode)
                            .split(round)
                            .split(user_index + 1),
                        cones, nullptr, &eval_engine_, &payload_pipeline_};
    HonestNode node(config_.node);
    auto publish = node.step(context, dataset_->user(user_index));
    if (!publish) {
      ++stats_.suppressed;
      gossip_suppressed_counter().increment();
      continue;
    }
    const auto added = store_.add(std::move(publish->payload));
    const tangle::TxIndex index = tangle_.add_transaction(
        publish->parents, added.id, added.hash, round,
        dataset_->user(user_index).user_id);
    // Initially only the publisher knows its own transaction.
    for (auto& known : known_) known.resize(tangle_.size(), false);
    known_[user_index][index] = true;
    ++published;
    ++stats_.published;
    gossip_published_counter().increment();
  }

  // Milestone pruning under partial views: the milestone must sit in the
  // past cone of EVERY replica's tips, so the required set is the union of
  // all replica tip sets. Any replica still stuck at the genesis keeps the
  // frontier where it is until gossip catches it up.
  if (config_.prune.enabled && config_.use_view_cache && pruner_.tick()) {
    std::vector<tangle::TxIndex> required_tips;
    for (std::size_t u = 0; u < num_users; ++u) {
      const std::vector<tangle::TxIndex> tips = replica_view(u).tips();
      required_tips.insert(required_tips.end(), tips.begin(), tips.end());
    }
    std::sort(required_tips.begin(), required_tips.end());
    required_tips.erase(
        std::unique(required_tips.begin(), required_tips.end()),
        required_tips.end());
    pruner_.advance(tangle_, store_, *view_cache_.get(tangle_.view()),
                    required_tips);
  }

  gossip_ledger_bytes_gauge().set(static_cast<double>(store_.live_bytes()));
  if (config_.timeline != nullptr) {
    // Health over the global ledger (union of replicas): the true DAG.
    gossip_coverage_gauge().set(mean_coverage());
    const tangle::TangleView view = tangle_.view();
    const std::shared_ptr<const tangle::ViewCacheEntry> cones =
        config_.use_view_cache ? view_cache_.get(view) : nullptr;
    Rng health_rng = master_rng_.split(streams::kHealth).split(round);
    health_->sample(view, cones.get(), round, health_rng);
    timeline_sampler_->sample(*config_.timeline, round);
  }
  return published;
}

RoundRecord GossipSimulation::evaluate(std::uint64_t round) {
  obs::TraceScope span("sim.evaluate");
  RoundRecord record;
  record.round = round;
  record.tangle_size = tangle_.size();
  record.tip_count =
      config_.use_view_cache
          ? view_cache_.get(tangle_.view())->tips().size()
          : tangle_.view().tips().size();
  record.publish_rate = mean_coverage();  // repurposed: replica coverage
  record.published_cumulative = stats_.published;
  record.suppressed_cumulative = stats_.suppressed;
  record.ledger_bytes = store_.live_bytes();
  gossip_ledger_bytes_gauge().set(static_cast<double>(record.ledger_bytes));

  const std::size_t num_users = dataset_->num_users();
  Rng eval_rng = master_rng_.split(streams::kEval).split(round);

  // A participant's perspective: consensus from one random replica.
  const std::size_t observer = eval_rng.uniform_index(num_users);
  const tangle::TangleView view = replica_view(observer);
  Rng reference_rng = eval_rng.split(1);
  const ReferenceResult reference =
      config_.use_view_cache
          ? choose_reference(view, store_, *view_cache_.get(view),
                             reference_rng, config_.node.reference)
          : choose_reference(view, store_, reference_rng,
                             config_.node.reference);

  const auto eval_users = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.eval_nodes_fraction *
                                  static_cast<double>(num_users) +
                                  0.5));
  const std::vector<std::size_t> users =
      eval_rng.sample_without_replacement(num_users, eval_users);
  const data::DataSplit pooled = dataset_->pooled_test(users);
  if (pooled.empty()) return record;

  // Only loss/accuracy are reported, so one cached batched probe
  // (reference payload list × pooled-split identity) covers the whole eval.
  const std::shared_ptr<const BatchedSplit> prepared =
      eval_engine_.prepare(pooled);
  const EvalRequest request{reference.params, ParamsKey{reference.payloads}};
  const data::EvalResult eval =
      eval_engine_
          .evaluate_many(std::span<const EvalRequest>(&request, 1), *prepared)
          .front()
          .result;
  record.accuracy = eval.accuracy;
  record.loss = eval.loss;
  return record;
}

RunResult GossipSimulation::run() {
  RunResult result;
  result.label = "tangle-gossip";
  for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
    const std::size_t published = run_round(round);
    if (round % config_.eval_every == 0 || round == config_.rounds) {
      const RoundRecord record = evaluate(round);
      result.history.push_back(record);
      log_info() << "gossip round " << round << ": acc=" << record.accuracy
                 << " coverage=" << record.publish_rate
                 << " tx=" << record.tangle_size
                 << " published=" << published;
    }
  }
  stats_.final_mean_coverage = mean_coverage();
  return result;
}

RunResult run_gossip_tangle_learning(const data::FederatedDataset& dataset,
                                     nn::ModelFactory factory,
                                     const GossipConfig& config,
                                     std::string label) {
  if (config.timeline != nullptr) config.timeline->begin_run(label);
  GossipSimulation simulation(dataset, std::move(factory), config);
  RunResult result = simulation.run();
  result.label = std::move(label);
  return result;
}

}  // namespace tanglefl::core
