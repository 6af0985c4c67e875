#include "core/async_simulation.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tanglefl::core {
namespace {

obs::Counter& wakeup_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("async.wakeups");
  return counter;
}

obs::Counter& async_published_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("async.published");
  return counter;
}

obs::Counter& async_lost_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("async.lost");
  return counter;
}

obs::Counter& async_abstained_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("async.abstained");
  return counter;
}

obs::Gauge& async_ledger_bytes_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("sim.ledger_bytes");
  return gauge;
}

nn::ParamVector make_genesis_params(const nn::ModelFactory& factory,
                                    Rng rng) {
  nn::Model model = factory();
  model.init(rng);
  return model.get_parameters();
}

/// Exponential inter-arrival sample.
double exponential(Rng& rng, double rate) {
  double u = 0.0;
  do {
    u = rng.uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

EvalEngineConfig eval_engine_config(bool use_cache, bool use_batched) {
  EvalEngineConfig config;
  config.use_cache = use_cache;
  config.use_batched = use_batched;
  return config;
}

}  // namespace

AsyncTangleSimulation::AsyncTangleSimulation(
    const data::FederatedDataset& dataset, nn::ModelFactory factory,
    AsyncSimulationConfig config)
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
    // Ledger time is microseconds here; the orphan age arrives in seconds.
    config_.health.orphan_age = to_micros(config_.health_orphan_age_seconds);
    health_ = std::make_unique<tangle::HealthTracker>(config_.health);
    timeline_sampler_ = std::make_unique<obs::RegistrySampler>();
  }
  const std::size_t num_users = dataset_->num_users();
  const auto malicious_count = static_cast<std::size_t>(
      config_.malicious_fraction * static_cast<double>(num_users) + 0.5);
  if (malicious_count > 0 && config_.attack != AttackType::kNone) {
    Rng rng = master_rng_.split(streams::kMalicious);
    malicious_users_ =
        rng.sample_without_replacement(num_users, malicious_count);
    std::sort(malicious_users_.begin(), malicious_users_.end());
    if (config_.attack == AttackType::kLabelFlip) {
      poisoned_users_.reserve(malicious_users_.size());
      for (const std::size_t u : malicious_users_) {
        poisoned_users_.push_back(
            data::make_label_flip_user(dataset_->user(u), config_.flip));
      }
    }
  }
}

bool AsyncTangleSimulation::is_malicious(std::size_t user) const noexcept {
  return std::binary_search(malicious_users_.begin(), malicious_users_.end(),
                            user);
}

RoundRecord AsyncTangleSimulation::evaluate(double now) {
  obs::TraceScope span("sim.evaluate");
  RoundRecord record;
  record.round = static_cast<std::uint64_t>(now);
  record.tangle_size = tangle_.size();
  record.tip_count =
      config_.use_view_cache
          ? view_cache_.get(tangle_.view())->tips().size()
          : tangle_.view().tips().size();
  record.published_cumulative = stats_.published;
  record.suppressed_cumulative = stats_.abstained + stats_.lost;
  record.ledger_bytes = store_.live_bytes();
  async_ledger_bytes_gauge().set(static_cast<double>(record.ledger_bytes));

  // Milestone pruning at the evaluation instant. Every later wake trains on
  // at least the prefix that had propagated by now - network_delay (wakes
  // are processed in time order and evals run before the wake they precede),
  // so the frontier is clamped strictly below that visible count and stays
  // inside every future horizon view.
  if (config_.prune.enabled && config_.use_view_cache && pruner_.tick() &&
      now > config_.network_delay_seconds) {
    const std::size_t visible = tangle_.visible_count_for_round(
        to_micros(now - config_.network_delay_seconds) + 1);
    if (visible > 1) {
      const std::shared_ptr<const tangle::ViewCacheEntry> prune_cones =
          view_cache_.get(tangle_.view());
      pruner_.advance(tangle_, store_, *prune_cones, prune_cones->tips(),
                      visible - 1);
    }
  }

  if (config_.timeline != nullptr) {
    const tangle::TangleView full = tangle_.view();
    const std::shared_ptr<const tangle::ViewCacheEntry> cones =
        config_.use_view_cache ? view_cache_.get(full) : nullptr;
    Rng health_rng = master_rng_.split(streams::kHealth).split(to_micros(now));
    health_->sample(full, cones.get(), to_micros(now), health_rng);
    timeline_sampler_->sample(*config_.timeline, record.round);
  }

  const std::size_t num_users = dataset_->num_users();
  const auto eval_users = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.eval_nodes_fraction *
                                  static_cast<double>(num_users) +
                                  0.5));
  Rng eval_rng = master_rng_.split(streams::kEval).split(to_micros(now));
  const std::vector<std::size_t> users =
      eval_rng.sample_without_replacement(num_users, eval_users);
  const data::DataSplit pooled = dataset_->pooled_test(users);
  if (pooled.empty()) return record;

  // kConsensus, not kEval: the reference walks used to share the kEval
  // root with eval-user sampling above (see core/rng_streams.hpp).
  Rng reference_rng =
      master_rng_.split(streams::kConsensus).split(tangle_.size());
  const tangle::TangleView view = tangle_.view();
  const ReferenceResult reference =
      config_.use_view_cache
          ? choose_reference(view, store_, *view_cache_.get(view),
                             reference_rng, config_.node.reference)
          : choose_reference(view, store_, reference_rng,
                             config_.node.reference);
  // Engine-backed consensus eval: pooled model instance, pre-batched
  // split, and a result cached by the reference payload list.
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
  // The attack metric runs direct forwards over transformed inputs, so it
  // still needs a concrete model instance carrying the reference weights.
  EvalEngine::ModelLease lease = eval_engine_.acquire();
  lease.model().set_parameters(reference.params);
  record.target_misclassification = data::targeted_misclassification_rate(
      lease.model(), pooled, config_.flip.source_class,
      config_.flip.target_class);
  return record;
}

RunResult AsyncTangleSimulation::run() {
  struct WakeEvent {
    double time;
    std::size_t user;
    bool operator>(const WakeEvent& other) const { return time > other.time; }
  };
  struct PendingPublish {
    double time;
    PublishRequest request;
    bool malicious;
    bool operator>(const PendingPublish& other) const {
      return time > other.time;
    }
  };

  std::priority_queue<WakeEvent, std::vector<WakeEvent>, std::greater<>>
      wakes;
  std::priority_queue<PendingPublish, std::vector<PendingPublish>,
                      std::greater<>>
      pending;

  const std::size_t num_users = dataset_->num_users();
  Rng wake_rng = master_rng_.split(streams::kWake);
  for (std::size_t u = 0; u < num_users; ++u) {
    Rng node_wake = wake_rng.split(u + 1);
    wakes.push({exponential(node_wake, config_.wake_rate_per_node), u});
  }
  Rng loss_rng = master_rng_.split(streams::kLoss);

  RunResult result;
  result.label = "tangle-async";
  double next_eval = config_.eval_every_seconds;

  // Flushes landed publishes up to `now`, preserving publish-time order.
  const auto flush_until = [&](double now) {
    while (!pending.empty() && pending.top().time <= now) {
      const PendingPublish& top = pending.top();
      if (loss_rng.bernoulli(config_.publish_loss)) {
        ++stats_.lost;
        async_lost_counter().increment();
      } else {
        const auto added = store_.add(top.request.payload);
        tangle_.add_transaction(top.request.parents, added.id, added.hash,
                                to_micros(top.time),
                                top.malicious ? "malicious" : "async-node");
        ++stats_.published;
        async_published_counter().increment();
      }
      pending.pop();
    }
  };

  while (!wakes.empty() && wakes.top().time <= config_.duration_seconds) {
    const WakeEvent event = wakes.top();
    wakes.pop();

    while (next_eval <= event.time) {
      flush_until(next_eval);
      result.history.push_back(evaluate(next_eval));
      next_eval += config_.eval_every_seconds;
    }
    flush_until(event.time);
    ++stats_.wakeups;
    wakeup_counter().increment();

    // The node sees everything that propagated to it by now.
    const double horizon = event.time - config_.network_delay_seconds;
    const tangle::TangleView view = tangle_.view_prefix(
        horizon <= 0.0 ? 1 : tangle_.visible_count_for_round(
                                 to_micros(horizon) + 1));

    const bool malicious = config_.attack != AttackType::kNone &&
                           event.time >= config_.attack_start_seconds &&
                           is_malicious(event.user);
    // Wakes clustered between publishes see identical prefixes, so the
    // keyed cache turns their cone computations into hits.
    const std::shared_ptr<const tangle::ViewCacheEntry> cones =
        config_.use_view_cache ? view_cache_.get(view) : nullptr;
    NodeContext context{view, store_, factory_, to_micros(event.time),
                        master_rng_.split(streams::kNode)
                            .split(to_micros(event.time))
                            .split(event.user + 1),
                        cones, nullptr, &eval_engine_, &payload_pipeline_};

    std::optional<PublishRequest> publish;
    if (!malicious) {
      HonestNode node(config_.node);
      publish = node.step(context, dataset_->user(event.user));
    } else if (config_.attack == AttackType::kRandomPoison) {
      RandomPoisonNode node(config_.node);
      publish = node.step(context, dataset_->user(event.user));
    } else if (config_.attack == AttackType::kLabelFlip) {
      const auto it = std::lower_bound(malicious_users_.begin(),
                                       malicious_users_.end(), event.user);
      LabelFlipNode node(config_.node);
      publish = node.step(context,
                          poisoned_users_[static_cast<std::size_t>(
                              it - malicious_users_.begin())]);
    } else if (config_.attack == AttackType::kBackdoor) {
      BackdoorNode node(config_.node, config_.trigger,
                        config_.backdoor_boost,
                        config_.backdoor_data_fraction);
      publish = node.step(context, dataset_->user(event.user));
    }

    Rng timing_rng = context.rng.split(streams::kTiming);
    if (publish) {
      const double training =
          exponential(timing_rng, 1.0 / config_.mean_training_seconds);
      pending.push({event.time + training, std::move(*publish), malicious});
    } else {
      ++stats_.abstained;
      async_abstained_counter().increment();
    }

    // Schedule this node's next wakeup.
    const double next_wake =
        event.time + exponential(timing_rng, config_.wake_rate_per_node);
    if (next_wake <= config_.duration_seconds) {
      wakes.push({next_wake, event.user});
    }
  }

  // Drain the horizon: remaining publishes plus the final evaluation.
  flush_until(config_.duration_seconds);
  stats_.in_flight = pending.size();
  while (next_eval <= config_.duration_seconds) {
    result.history.push_back(evaluate(next_eval));
    next_eval += config_.eval_every_seconds;
  }
  result.history.push_back(evaluate(config_.duration_seconds));
  return result;
}

RunResult run_async_tangle_learning(const data::FederatedDataset& dataset,
                                    nn::ModelFactory factory,
                                    const AsyncSimulationConfig& config,
                                    std::string label) {
  if (config.timeline != nullptr) config.timeline->begin_run(label);
  AsyncTangleSimulation simulation(dataset, std::move(factory), config);
  RunResult result = simulation.run();
  result.label = std::move(label);
  return result;
}

}  // namespace tanglefl::core
