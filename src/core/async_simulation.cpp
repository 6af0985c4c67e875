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

/// Exponential inter-arrival sample.
double exponential(Rng& rng, double rate) {
  double u = 0.0;
  do {
    u = rng.uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

/// The config with the orphan age in ledger time: microseconds here, while
/// the setting arrives in seconds.
AsyncSimulationConfig with_micros_orphan_age(AsyncSimulationConfig config) {
  config.health.orphan_age = static_cast<std::uint64_t>(
      config.health_orphan_age_seconds * 1e6);
  return config;
}

}  // namespace

AsyncTangleSimulation::AsyncTangleSimulation(
    const data::FederatedDataset& dataset, nn::ModelFactory factory,
    AsyncSimulationConfig config)
    : config_(with_micros_orphan_age(std::move(config))),
      runtime_(dataset, std::move(factory), config_, config_, 4) {}

RoundRecord AsyncTangleSimulation::evaluate(double now) {
  obs::TraceScope span("sim.evaluate");
  RoundRecord record = runtime_.ledger_record(static_cast<std::uint64_t>(now));
  record.published_cumulative = stats_.published;
  record.suppressed_cumulative = stats_.abstained + stats_.lost;

  // Milestone pruning at the evaluation instant. Every later wake trains on
  // at least the prefix that had propagated by now - network_delay (wakes
  // are processed in time order and evals run before the wake they precede),
  // so the frontier is clamped strictly below that visible count and stays
  // inside every future horizon view.
  if (runtime_.prune_due() && now > config_.network_delay_seconds) {
    const std::size_t visible = runtime_.tangle().visible_count_for_round(
        to_micros(now - config_.network_delay_seconds) + 1);
    if (visible > 1) runtime_.prune(visible - 1);
  }

  runtime_.sample_timeline(to_micros(now), record.round);
  runtime_.evaluate_consensus(record, to_micros(now));
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
  // A min-heap on publish time, kept with std::push_heap/pop_heap so the
  // landing publish can be moved out rather than copied off a const top().
  std::vector<PendingPublish> pending;

  const std::size_t num_users = runtime_.dataset().num_users();
  Rng wake_rng = runtime_.rng().split(streams::kWake);
  for (std::size_t u = 0; u < num_users; ++u) {
    Rng node_wake = wake_rng.split(u + 1);
    wakes.push({exponential(node_wake, config_.wake_rate_per_node), u});
  }
  Rng loss_rng = runtime_.rng().split(streams::kLoss);

  RunResult result;
  result.label = "tangle-async";
  double next_eval = config_.eval_every_seconds;

  // Flushes landed publishes up to `now`, preserving publish-time order.
  const auto flush_until = [&](double now) {
    while (!pending.empty() && pending.front().time <= now) {
      std::pop_heap(pending.begin(), pending.end(), std::greater<>());
      PendingPublish landing = std::move(pending.back());
      pending.pop_back();
      if (loss_rng.bernoulli(config_.publish_loss)) {
        ++stats_.lost;
        async_lost_counter().increment();
      } else {
        runtime_.insert(std::move(landing.request), to_micros(landing.time),
                        landing.malicious ? "malicious" : "async-node");
        ++stats_.published;
        async_published_counter().increment();
      }
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
    const tangle::Tangle& ledger = runtime_.tangle();
    const double horizon = event.time - config_.network_delay_seconds;
    const tangle::TangleView view = ledger.view_prefix(
        horizon <= 0.0 ? 1 : ledger.visible_count_for_round(
                                 to_micros(horizon) + 1));

    const bool malicious = event.time >= config_.attack_start_seconds &&
                           runtime_.is_malicious(event.user);
    const Rng node_rng = runtime_.rng()
                             .split(streams::kNode)
                             .split(to_micros(event.time))
                             .split(event.user + 1);
    // Wakes clustered between publishes see identical prefixes, so the
    // keyed cache turns their cone computations into hits.
    std::optional<PublishRequest> publish =
        runtime_.step(view, *runtime_.cones(view), to_micros(event.time),
                      node_rng, event.user, malicious);

    Rng timing_rng = node_rng.split(streams::kTiming);
    if (publish) {
      const double training =
          exponential(timing_rng, 1.0 / config_.mean_training_seconds);
      pending.push_back(
          {event.time + training, std::move(*publish), malicious});
      std::push_heap(pending.begin(), pending.end(), std::greater<>());
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
