// Golden pins for the three engines. Each case runs a tiny configuration
// and compares a canonical digest of its outputs with tests/golden/<case>.txt:
// the transaction count, a SHA-256 over every serialized transaction header
// (ids, parents, payload hashes and ids, rounds, publishers), every field of
// every evaluation record (floats in hex, so bit-exact), and, for the cases
// that run with a timeline, the tangle.health.* and sim.ledger_bytes series.
//
// The pins stand in for the deleted on/off equivalence switches: a change
// that alters any engine output, RNG split or ledger byte fails here.
// Regenerate deliberately with TANGLEFL_GOLDEN_UPDATE=1 (writes the files).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/async_simulation.hpp"
#include "core/gossip_simulation.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "obs/timeline.hpp"
#include "support/serialize.hpp"
#include "support/sha256.hpp"

namespace tanglefl::core {
namespace {

data::FederatedDataset golden_dataset() {
  data::FemnistSynthConfig config;
  config.num_users = 12;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 18.0;
  config.seed = 3;
  return data::make_femnist_synth(config);
}

nn::ModelFactory golden_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

NodeConfig golden_node() {
  NodeConfig node;
  node.training.epochs = 1;
  node.training.sgd.learning_rate = 0.05;
  return node;
}

std::string hex_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::string headers_digest(const tangle::Tangle& tangle) {
  ByteWriter writer;
  for (tangle::TxIndex i = 0; i < tangle.size(); ++i) {
    tangle::serialize_transaction(tangle.transaction(i), writer);
  }
  return to_hex(Sha256::hash(writer.bytes()));
}

/// The timeline CSV restricted to its run/round columns plus the health
/// and ledger-size series, which the engines define. Engine-internal
/// counters (cache hits and the like) are left out, and so are histogram
/// quantile columns, whose values depend on what earlier runs in the same
/// process recorded into the shared registry.
std::string timeline_digest(const obs::Timeline& timeline) {
  std::istringstream in(timeline.to_csv());
  std::string line;
  std::vector<bool> keep;
  std::string kept;
  bool header = true;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream row(line);
    std::string cell;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    if (!line.empty() && line.back() == ',') cells.emplace_back();
    if (header) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const std::string& name = cells[c];
        const bool quantile =
            name.size() > 4 && name[name.size() - 4] == '.' &&
            name[name.size() - 3] == 'p';
        keep.push_back(c < 2 || name == "sim.ledger_bytes" ||
                       (name.rfind("tangle.health.", 0) == 0 && !quantile));
      }
      header = false;
    }
    for (std::size_t c = 0; c < cells.size() && c < keep.size(); ++c) {
      if (keep[c]) kept += cells[c] + ",";
    }
    kept += "\n";
  }
  return to_hex(Sha256::hash(kept));
}

std::string digest(const tangle::Tangle& tangle, const RunResult& result,
                   const obs::Timeline* timeline) {
  std::ostringstream out;
  out << "transactions " << tangle.size() << "\n";
  out << "headers " << headers_digest(tangle) << "\n";
  for (const RoundRecord& r : result.history) {
    out << "record " << r.round << " " << hex_double(r.accuracy) << " "
        << hex_double(r.loss) << " " << hex_double(r.target_misclassification)
        << " " << hex_double(r.backdoor_success) << " " << r.tangle_size
        << " " << r.tip_count << " " << hex_double(r.publish_rate) << " "
        << r.published_cumulative << " " << r.suppressed_cumulative << " "
        << r.ledger_bytes << "\n";
  }
  if (timeline != nullptr) {
    out << "timeline " << timeline_digest(*timeline) << "\n";
  }
  return out.str();
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path =
      std::string(TANGLEFL_GOLDEN_DIR) + "/" + name + ".txt";
  const char* update = std::getenv("TANGLEFL_GOLDEN_UPDATE");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "wrote " << path;
  }
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "missing golden file " << path;
  std::stringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(expected.str(), actual) << "golden mismatch for " << name;
}

SimulationConfig sync_config() {
  SimulationConfig config;
  config.rounds = 6;
  config.nodes_per_round = 4;
  config.eval_every = 3;
  config.eval_nodes_fraction = 0.5;
  config.node = golden_node();
  config.seed = 11;
  return config;
}

std::string run_sync(const SimulationConfig& config) {
  const auto dataset = golden_dataset();
  obs::Timeline timeline;
  SimulationConfig run_config = config;
  const bool timed = config.prune.enabled;
  if (timed) run_config.timeline = &timeline;
  TangleSimulation sim(dataset, golden_factory(), run_config);
  const RunResult result = sim.run();
  return digest(sim.tangle(), result, timed ? &timeline : nullptr);
}

TEST(Golden, SyncNoAttackRobustSelection) {
  SimulationConfig config = sync_config();
  config.node.tip_sample_size = 4;
  expect_golden("sync_none", run_sync(config));
}

TEST(Golden, SyncRandomPoison) {
  SimulationConfig config = sync_config();
  config.attack = AttackType::kRandomPoison;
  config.malicious_fraction = 0.25;
  config.attack_start_round = 3;
  config.node.tip_sample_size = 3;
  expect_golden("sync_random_poison", run_sync(config));
}

TEST(Golden, SyncLabelFlipBiasedWalk) {
  SimulationConfig config = sync_config();
  config.attack = AttackType::kLabelFlip;
  config.malicious_fraction = 0.25;
  config.flip = {0, 1};
  config.node.use_biased_walk = true;
  config.node.tip_sample_size = 3;
  expect_golden("sync_label_flip", run_sync(config));
}

TEST(Golden, SyncBackdoor) {
  SimulationConfig config = sync_config();
  config.attack = AttackType::kBackdoor;
  config.malicious_fraction = 0.25;
  config.trigger = {.target_class = 1, .patch_size = 2, .trigger_value = 1.0f};
  expect_golden("sync_backdoor", run_sync(config));
}

TEST(Golden, SyncCodecPruneTimelineThreads) {
  SimulationConfig config = sync_config();
  config.rounds = 9;
  config.threads = 3;
  config.codec = tangle::parse_codec_spec("default");
  config.prune.enabled = true;
  config.prune.interval = 2;
  config.prune.keep_recent = 6;
  expect_golden("sync_codec_prune", run_sync(config));
}

AsyncSimulationConfig async_config() {
  AsyncSimulationConfig config;
  config.duration_seconds = 20.0;
  config.wake_rate_per_node = 0.3;
  config.mean_training_seconds = 0.5;
  config.network_delay_seconds = 0.5;
  config.eval_every_seconds = 7.0;
  config.eval_nodes_fraction = 0.5;
  config.node = golden_node();
  config.seed = 7;
  return config;
}

std::string run_async(const AsyncSimulationConfig& config) {
  const auto dataset = golden_dataset();
  obs::Timeline timeline;
  AsyncSimulationConfig run_config = config;
  const bool timed = config.prune.enabled;
  if (timed) run_config.timeline = &timeline;
  AsyncTangleSimulation sim(dataset, golden_factory(), run_config);
  const RunResult result = sim.run();
  return digest(sim.tangle(), result, timed ? &timeline : nullptr);
}

TEST(Golden, AsyncPlain) {
  expect_golden("async_plain", run_async(async_config()));
}

TEST(Golden, AsyncLabelFlipPruneTimeline) {
  AsyncSimulationConfig config = async_config();
  config.attack = AttackType::kLabelFlip;
  config.malicious_fraction = 0.25;
  config.attack_start_seconds = 5.0;
  config.flip = {0, 1};
  config.node.tip_sample_size = 3;
  config.publish_loss = 0.1;
  config.eval_every_seconds = 4.0;
  config.prune.enabled = true;
  config.prune.interval = 1;
  config.prune.keep_recent = 8;
  expect_golden("async_label_flip", run_async(config));
}

TEST(Golden, GossipBoundedTransfer) {
  GossipConfig config;
  config.rounds = 8;
  config.nodes_per_round = 4;
  config.peers_per_node = 2;
  config.gossip_exchanges = 1;
  config.max_transfer = 3;
  config.pull_failure = 0.1;
  config.eval_every = 4;
  config.eval_nodes_fraction = 0.5;
  config.node = golden_node();
  config.node.tip_sample_size = 3;
  config.node.reference.confidence.sample_rounds = 6;
  config.seed = 7;
  config.prune.enabled = true;
  config.prune.interval = 2;
  config.prune.keep_recent = 6;
  obs::Timeline timeline;
  config.timeline = &timeline;
  const auto dataset = golden_dataset();
  GossipSimulation sim(dataset, golden_factory(), config);
  const RunResult result = sim.run();
  expect_golden("gossip_bounded", digest(sim.tangle(), result, &timeline));
}

}  // namespace
}  // namespace tanglefl::core
