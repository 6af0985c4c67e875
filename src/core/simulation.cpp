#include "core/simulation.hpp"

#include <algorithm>
#include <cassert>

#include "core/rng_streams.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tanglefl::core {
namespace {

// Engine-level publish accounting: every round contributes (not only eval
// rounds), so the publish/suppress series is complete.
obs::Counter& rounds_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("sim.rounds");
  return counter;
}

obs::Counter& published_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("sim.published");
  return counter;
}

obs::Counter& published_malicious_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("sim.published.malicious");
  return counter;
}

obs::Counter& suppressed_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("sim.suppressed");
  return counter;
}

/// The config with the paper's confidence sampling rule applied.
SimulationConfig with_sample_rule(SimulationConfig config) {
  if (config.auto_confidence_samples) {
    config.node.reference.confidence.sample_rounds = config.nodes_per_round;
    config.health.confidence.sample_rounds = config.nodes_per_round;
  }
  return config;
}

}  // namespace

TangleSimulation::TangleSimulation(const data::FederatedDataset& dataset,
                                   nn::ModelFactory factory,
                                   SimulationConfig config)
    : config_(with_sample_rule(std::move(config))),
      pool_(std::max<std::size_t>(1, config_.threads)),
      kernel_pool_(config_.kernel_threads > 1
                       ? std::make_unique<ThreadPool>(config_.kernel_threads)
                       : nullptr),
      runtime_(dataset, std::move(factory), config_, config_, 4, &pool_,
               kernel_pool_.get()) {}

std::size_t TangleSimulation::run_round(std::uint64_t round) {
  obs::TraceScope span("sim.round");
  assert(round >= 1);
  const auto timeline_row = runtime_.timeline_row(round);
  const std::size_t num_users = runtime_.dataset().num_users();
  const std::size_t participants =
      std::min(config_.nodes_per_round, num_users);

  Rng selection_rng = runtime_.rng().split(streams::kParticipant).split(round);
  const std::vector<std::size_t> chosen =
      selection_rng.sample_without_replacement(num_users, participants);

  const tangle::Tangle& ledger = runtime_.tangle();
  const tangle::TangleView view =
      ledger.view_prefix(ledger.visible_count_for_round(round));
  // One cone computation for the whole round, shared read-only by every
  // participant, instead of one per node step.
  const std::shared_ptr<const tangle::ViewCacheEntry> cones =
      runtime_.cones(view);
  const bool attacking = round >= config_.attack_start_round;

  struct SlotResult {
    std::optional<PublishRequest> publish;
    bool malicious = false;
  };
  std::vector<SlotResult> results(participants);

  pool_.parallel_for(participants, [&](std::size_t slot) {
    const std::size_t user = chosen[slot];
    results[slot].malicious = attacking && runtime_.is_malicious(user);
    results[slot].publish = runtime_.step(
        view, *cones, round,
        runtime_.rng().split(streams::kNode).split(round).split(user + 1),
        user, results[slot].malicious);
  });

  // Round barrier: everything published this round lands in the ledger
  // now and becomes visible from round + 1 on. Each publishing step already
  // encoded and hashed its payload in its lane (from the pre-round view,
  // with the store only read), so the barrier only inserts, in slot order.
  std::size_t published = 0;
  std::size_t honest_published = 0;
  std::size_t honest_participants = 0;
  std::size_t malicious_published = 0;
  for (std::size_t slot = 0; slot < participants; ++slot) {
    auto& result = results[slot];
    if (!result.malicious) ++honest_participants;
    if (!result.publish) continue;
    runtime_.insert(std::move(*result.publish), round,
                    result.malicious
                        ? "malicious"
                        : runtime_.dataset().user(chosen[slot]).user_id);
    ++published;
    if (result.malicious) ++malicious_published;
    else ++honest_published;
  }
  last_publish_rate_ =
      honest_participants > 0
          ? static_cast<double>(honest_published) /
                static_cast<double>(honest_participants)
          : 0.0;

  const std::size_t suppressed = participants - published;
  published_total_ += published;
  suppressed_total_ += suppressed;
  rounds_counter().increment();
  published_counter().add(published);
  published_malicious_counter().add(malicious_published);
  suppressed_counter().add(suppressed);
  // Milestone pruning at the round barrier: every participant of this round
  // already trained, and the frontier only ever advances onto history every
  // later view contains.
  if (runtime_.prune_due()) runtime_.prune();
  runtime_.publish_ledger_bytes();
  runtime_.probe_health(round);
  return published;
}

nn::ParamVector TangleSimulation::consensus_params() {
  return runtime_.consensus_reference().params;
}

RoundRecord TangleSimulation::evaluate(std::uint64_t round) {
  obs::TraceScope span("sim.evaluate");
  RoundRecord record = runtime_.ledger_record(round);
  record.publish_rate = last_publish_rate_;
  record.published_cumulative = published_total_;
  record.suppressed_cumulative = suppressed_total_;
  runtime_.evaluate_consensus(record, round);
  return record;
}

RunResult TangleSimulation::run() {
  RunResult result;
  result.label = "tangle";
  for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
    const std::size_t published = run_round(round);
    if (round % config_.eval_every == 0 || round == config_.rounds) {
      const RoundRecord record = evaluate(round);
      result.history.push_back(record);
      log_info() << "tangle round " << round << ": acc="
                 << record.accuracy << " loss=" << record.loss
                 << " tx=" << record.tangle_size
                 << " tips=" << record.tip_count
                 << " published=" << published
                 << " published_total=" << record.published_cumulative
                 << " suppressed_total=" << record.suppressed_cumulative;
    }
  }
  return result;
}

RunResult run_tangle_learning(const data::FederatedDataset& dataset,
                              nn::ModelFactory factory,
                              const SimulationConfig& config,
                              std::string label) {
  if (config.timeline != nullptr) config.timeline->begin_run(label);
  TangleSimulation simulation(dataset, std::move(factory), config);
  RunResult result = simulation.run();
  result.label = std::move(label);
  return result;
}

}  // namespace tanglefl::core
