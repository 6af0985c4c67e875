#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/async_simulation.hpp"
#include "core/gossip_simulation.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace tanglefl::obs {
namespace {

TEST(Timeline, JsonlShapeAndKeyOrder) {
  Timeline timeline;
  timeline.begin_run("a");
  timeline.record(1, "zeta", 2.0);
  timeline.record(1, "alpha", 1.5);
  timeline.record(2, "alpha", 3.0);
  EXPECT_EQ(timeline.to_jsonl(),
            "{\"round\":1,\"run\":\"a\",\"alpha\":1.5,\"zeta\":2.0}\n"
            "{\"round\":2,\"run\":\"a\",\"alpha\":3.0}\n");
}

TEST(Timeline, CsvUnionWithEmptyCells) {
  Timeline timeline;
  timeline.begin_run("a");
  timeline.record(1, "x", 1.0);
  timeline.begin_run("b");
  timeline.record(1, "y", 2.5);
  EXPECT_EQ(timeline.to_csv(),
            "run,round,x,y\n"
            "a,1,1.0,\n"
            "b,1,,2.5\n");
}

TEST(Timeline, ReRecordOverwritesAndBeginRunResumes) {
  Timeline timeline;
  timeline.begin_run("a");
  timeline.record(1, "x", 1.0);
  timeline.begin_run("b");
  timeline.record(1, "x", 9.0);
  timeline.begin_run("a");  // resume, not a new run
  timeline.record(1, "x", 4.0);
  EXPECT_EQ(timeline.run_count(), 2u);
  EXPECT_EQ(timeline.to_jsonl(),
            "{\"round\":1,\"run\":\"a\",\"x\":4.0}\n"
            "{\"round\":1,\"run\":\"b\",\"x\":9.0}\n");
}

TEST(Timeline, UnnamedRunAndEmpty) {
  Timeline timeline;
  EXPECT_TRUE(timeline.empty());
  timeline.record(3, "x", 0.5);
  EXPECT_FALSE(timeline.empty());
  EXPECT_EQ(timeline.to_jsonl(), "{\"round\":3,\"run\":\"\",\"x\":0.5}\n");
}

TEST(Timeline, CsvEscapesLabels) {
  Timeline timeline;
  timeline.begin_run("p=0.1, \"hot\"");
  timeline.record(1, "x", 1.0);
  EXPECT_EQ(timeline.to_csv(),
            "run,round,x\n\"p=0.1, \"\"hot\"\"\",1,1.0\n");
}

// Closed-form check: values {2,4,6,8} in buckets (-inf,4], (4,8] give
// bucket counts {2,2}. With the observed range [2,8] anchoring the first
// bucket, linear interpolation yields p50=4, p75=6, and p100 lands on the
// range maximum.
TEST(BucketQuantile, ClosedForm) {
  const std::vector<double> bounds = {4.0, 8.0};
  const std::vector<std::uint64_t> counts = {2, 2};
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, counts, 0.50, 2.0, 8.0), 4.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, counts, 0.75, 2.0, 8.0), 6.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, counts, 1.00, 2.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, counts, 0.0, 2.0, 8.0), 2.0);
  // Empty histogram and out-of-range q degrade gracefully.
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, {0, 0}, 0.5, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, counts, 1.5, 2.0, 8.0), 8.0);
}

TEST(BucketQuantile, SnapshotQuantileMatchesBucketMath) {
  MetricsRegistry registry;
  Histogram& hist =
      registry.histogram("test.values", BucketLayout::linear(4.0, 4.0, 2));
  for (const double v : {2.0, 4.0, 6.0, 8.0}) hist.record(v);
  const auto snap = registry.snapshot(SnapshotKind::kDeterministic);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.50), 4.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.75), 6.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.99), 7.92);
}

TEST(RegistrySampler, CounterDeltasGaugeAbsolutes) {
  MetricsRegistry registry;
  Counter& hits = registry.counter("test.hits");
  Gauge& level = registry.gauge("test.level");
  hits.add(3);  // pre-sampler traffic must not leak into round 1
  RegistrySampler sampler(registry);
  Timeline timeline;
  timeline.begin_run("r");

  hits.add(2);
  level.set(7.0);
  sampler.sample(timeline, 1);
  hits.add(5);
  level.set(6.0);
  sampler.sample(timeline, 2);

  EXPECT_EQ(timeline.to_jsonl(),
            "{\"round\":1,\"run\":\"r\",\"test.hits\":2.0,"
            "\"test.level\":7.0}\n"
            "{\"round\":2,\"run\":\"r\",\"test.hits\":5.0,"
            "\"test.level\":6.0}\n");
}

TEST(RegistrySampler, HistogramWindowedQuantiles) {
  MetricsRegistry registry;
  Histogram& hist =
      registry.histogram("test.lat", BucketLayout::linear(4.0, 4.0, 2));
  RegistrySampler sampler(registry);
  Timeline timeline;
  timeline.begin_run("r");

  for (const double v : {2.0, 4.0, 6.0, 8.0}) hist.record(v);
  sampler.sample(timeline, 1);
  sampler.sample(timeline, 2);  // empty window: no row at all

  // Closed-form windowed quantiles over the round's bucket deltas:
  // p50=4, p90=4+(1.6/2)*4=7.2, p99=4+(1.96/2)*4=7.92.
  EXPECT_EQ(timeline.to_jsonl(),
            "{\"round\":1,\"run\":\"r\",\"test.lat.count\":4.0,"
            "\"test.lat.p50\":" + json_number(4.0) +
            ",\"test.lat.p90\":" + json_number(7.2) +
            ",\"test.lat.p99\":" + json_number(7.92) + "}\n");
}

TEST(RegistrySampler, HistogramQuantilesIgnoreEarlierRuns) {
  // A run's windowed quantiles must not depend on what the process recorded
  // before it: an earlier run's wider extremes (below the first bound and
  // far into the overflow bucket) leave the run's rows unchanged.
  const auto sampled_run = [](bool after_earlier_run) {
    MetricsRegistry registry;
    Histogram& hist =
        registry.histogram("test.lat", BucketLayout::linear(4.0, 4.0, 2));
    if (after_earlier_run) {
      hist.record(0.25);
      hist.record(1000.0);
    }
    RegistrySampler sampler(registry);
    Timeline timeline;
    timeline.begin_run("r");
    for (const double v : {2.0, 3.0, 6.0, 12.0}) hist.record(v);
    sampler.sample(timeline, 1);
    return timeline.to_jsonl();
  };
  const std::string alone = sampled_run(false);
  EXPECT_EQ(sampled_run(true), alone);
  // Layout anchors: p50 = 4 (the first bucket's upper bound, its lower edge
  // 0); p99 falls in the overflow bucket, which reads as the last bound 8.
  EXPECT_EQ(alone,
            "{\"round\":1,\"run\":\"r\",\"test.lat.count\":4.0,"
            "\"test.lat.p50\":" + json_number(4.0) +
            ",\"test.lat.p90\":" + json_number(8.0) +
            ",\"test.lat.p99\":" + json_number(8.0) + "}\n");
}

TEST(RoundScope, SamplesAtScopeExit) {
  MetricsRegistry registry;
  Counter& hits = registry.counter("test.hits");
  RegistrySampler sampler(registry);
  Timeline timeline;
  {
    RoundScope scope(sampler, timeline, 1);
    hits.add(4);  // recorded even though the scope exits below
  }
  EXPECT_EQ(timeline.to_jsonl(),
            "{\"round\":1,\"run\":\"\",\"test.hits\":4.0}\n");
}

// ---- engine integration: the determinism contract for timeline output ----

data::FederatedDataset small_dataset(std::uint64_t seed = 3) {
  data::FemnistSynthConfig config;
  config.num_users = 10;
  config.num_classes = 3;
  config.image_size = 8;
  config.mean_samples_per_user = 15.0;
  config.seed = seed;
  return data::make_femnist_synth(config);
}

nn::ModelFactory small_factory() {
  nn::ImageCnnConfig config;
  config.image_size = 8;
  config.num_classes = 3;
  config.conv1_channels = 2;
  config.conv2_channels = 4;
  config.hidden = 8;
  return [config] { return nn::make_image_cnn(config); };
}

core::SimulationConfig sync_config(std::size_t threads) {
  core::SimulationConfig config;
  config.rounds = 4;
  config.nodes_per_round = 4;
  config.eval_every = 2;
  config.eval_nodes_fraction = 0.5;
  config.node.training.epochs = 1;
  config.node.training.sgd.learning_rate = 0.05;
  config.seed = 1;
  config.threads = threads;
  return config;
}

TEST(TimelineEngine, SyncByteIdenticalAcrossThreadCounts) {
  const auto dataset = small_dataset();
  std::string jsonl[3], csv[3];
  const std::size_t threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    // Fresh registry state per run: sampler deltas baseline at engine
    // construction, but histogram min/max anchors are lifetime state.
    MetricsRegistry::global().reset();
    Timeline timeline;
    core::SimulationConfig config = sync_config(threads[i]);
    config.timeline = &timeline;
    (void)core::run_tangle_learning(dataset, small_factory(), config, "run");
    jsonl[i] = timeline.to_jsonl();
    csv[i] = timeline.to_csv();
  }
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(jsonl[0], jsonl[2]);
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(csv[0], csv[2]);
  // One row per round carrying the health probes and ledger size.
  EXPECT_NE(jsonl[0].find("\"tangle.health.tip_count\":"), std::string::npos);
  EXPECT_NE(jsonl[0].find("\"tangle.health.orphan_rate\":"),
            std::string::npos);
  EXPECT_NE(jsonl[0].find("\"sim.ledger_bytes\":"), std::string::npos);
  EXPECT_NE(jsonl[0].find("\"round\":4,"), std::string::npos);
}

TEST(TimelineEngine, SyncTimelineDoesNotPerturbSimulation) {
  // Attaching a timeline (and with it the health probes) must not change
  // the simulation itself: probe randomness comes from a dedicated stream.
  const auto dataset = small_dataset();
  MetricsRegistry::global().reset();
  core::TangleSimulation plain(dataset, small_factory(), sync_config(1));
  const core::RunResult without = plain.run();

  MetricsRegistry::global().reset();
  Timeline timeline;
  core::SimulationConfig config = sync_config(1);
  config.timeline = &timeline;
  core::TangleSimulation probed(dataset, small_factory(), config);
  const core::RunResult with = probed.run();

  ASSERT_EQ(plain.tangle().size(), probed.tangle().size());
  ASSERT_EQ(without.history.size(), with.history.size());
  for (std::size_t i = 0; i < without.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(without.history[i].accuracy, with.history[i].accuracy);
  }
}

TEST(TimelineEngine, AsyncRepeatRunsIdentical) {
  const auto dataset = small_dataset();
  std::string jsonl[2];
  for (int i = 0; i < 2; ++i) {
    MetricsRegistry::global().reset();
    Timeline timeline;
    core::AsyncSimulationConfig config;
    config.duration_seconds = 20.0;
    config.wake_rate_per_node = 0.2;
    config.mean_training_seconds = 1.0;
    config.eval_every_seconds = 5.0;
    config.eval_nodes_fraction = 0.5;
    config.node.training.epochs = 1;
    config.seed = 7;
    config.timeline = &timeline;
    (void)core::run_async_tangle_learning(dataset, small_factory(), config,
                                          "async");
    jsonl[i] = timeline.to_jsonl();
  }
  EXPECT_FALSE(jsonl[0].empty());
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_NE(jsonl[0].find("\"run\":\"async\""), std::string::npos);
}

TEST(TimelineEngine, GossipRepeatRunsIdentical) {
  const auto dataset = small_dataset();
  std::string jsonl[2];
  for (int i = 0; i < 2; ++i) {
    MetricsRegistry::global().reset();
    Timeline timeline;
    core::GossipConfig config;
    config.rounds = 4;
    config.nodes_per_round = 4;
    config.peers_per_node = 2;
    config.eval_every = 2;
    config.eval_nodes_fraction = 0.5;
    config.node.training.epochs = 1;
    config.seed = 7;
    config.timeline = &timeline;
    (void)core::run_gossip_tangle_learning(dataset, small_factory(), config,
                                           "gossip");
    jsonl[i] = timeline.to_jsonl();
  }
  EXPECT_FALSE(jsonl[0].empty());
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_NE(jsonl[0].find("\"gossip.coverage\":"), std::string::npos);
}

}  // namespace
}  // namespace tanglefl::obs
