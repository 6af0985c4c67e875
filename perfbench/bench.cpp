// Benchmark driver: runs one workload of the tangle-learning system and
// prints one JSON document of raw measurements on stdout. run.py turns it
// into metrics and checks the outputs.
//
//   tangle_bench --workload NAME --seed N --seconds S [--setup-reps K]
//                [--min-passes P]
//
// A run is a sequence of "passes": K timed set-ups (corpus synthesis +
// engine construction), then the last set-up's engine runs a fixed number of
// rounds with periodic consensus evaluation. An untimed warm-up pass on the
// first sub-seed comes first; timed passes then cycle over the workload's
// sub-seeds until P passes (default: one per sub-seed), S seconds of pass
// time and kMinRounds rounds were measured. Passes of one sub-seed do the
// same work, so their outputs must match.
//
// The traced build (PERFBENCH_TRACED, see wrap.cpp) runs the same passes
// and adds per-layer span totals to the document.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "data/shakespeare_synth.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "support/log.hpp"
#include "tangle/invariants.hpp"
#include "tangle/payload_codec.hpp"

#ifdef PERFBENCH_TRACED
namespace perfbench {
std::vector<std::string> wrapped_symbols_missing();
}
using LayerSpan = perfbench::Span;
#else
struct LayerSpan {
  explicit LayerSpan(perfbench::Layer) {}
};
#endif

namespace {

using namespace tanglefl;
using Clock = std::chrono::steady_clock;

// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinRounds = 100;

// A run's passes cycle over `sub_seeds` sub-seeds of --seed, so one seed's
// convergence luck and amount of work move the run's figures less.
// The dataset is the workload's fixed corpus, synthesised with the figure
// harnesses' default seed: a seed then varies the run (participants, model
// initialisation, walks, evaluation users), not how hard the corpus is to
// learn, which differs widely between synthesised Shakespeare languages.
constexpr std::uint64_t kCorpusSeed = 42;
std::uint64_t sub_seed(std::uint64_t seed, std::size_t index,
                       std::size_t sub_seeds) {
  return seed * 64 + index % sub_seeds;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class DataKind { kFemnist, kShakespeare };

// FEMNIST-synth scale of both FEMNIST workloads.
constexpr std::size_t kFemnistWriters = 60;
constexpr std::size_t kFemnistImageSize = 12;
constexpr double kFemnistMeanSamples = 25.0;

struct Workload {
  DataKind data = DataKind::kFemnist;
  // Node algorithm (Table II).
  std::size_t nodes_per_round = 10;
  std::size_t threads = 1;
  std::size_t num_tips = 2;
  std::size_t tip_sample_size = 2;
  std::size_t reference_models = 1;
  std::string codec = "off";
  // One pass, and the sub-seeds a run cycles over.
  std::size_t rounds = 25;
  std::size_t eval_every = 5;
  std::size_t sub_seeds = 4;
};

// Why each workload exists is in README.md.
std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  if (name == "femnist_sync" || name == "femnist_codec") {
    w.nodes_per_round = 10;
    w.threads = 2;
    w.num_tips = 3;
    w.tip_sample_size = 6;
    w.reference_models = 10;
    w.rounds = 30;
    w.sub_seeds = 16;
    if (name == "femnist_codec") {
      w.codec = "default";
      w.sub_seeds = 6;  // a codec pass costs ~6 femnist_sync passes
    }
    return w;
  }
  if (name == "shakespeare_sync") {
    w.data = DataKind::kShakespeare;
    // Six nodes on two node threads (three lanes with the caller), as on
    // femnist_sync: with four nodes on one thread, round_ms_p50 of one seed
    // swung between 90 and 135 ms from run to run.
    w.nodes_per_round = 6;
    w.threads = 2;
    w.rounds = 25;
    w.sub_seeds = 10;
    return w;
  }
  return std::nullopt;
}

data::FederatedDataset make_dataset(const Workload& w) {
  if (w.data == DataKind::kShakespeare) {
    data::ShakespeareSynthConfig config;
    config.num_users = 20;
    config.vocab_size = 24;
    config.seq_length = 12;
    config.mean_chars_per_user = 200.0;
    // Equal-length roles: with six nodes a round, a round's work would
    // otherwise follow the lengths of the few roles it happens to sample.
    config.chars_log_sigma = 0.0;
    config.train_fraction = 0.9;
    config.min_samples_per_user = 64;
    config.seed = kCorpusSeed;
    return data::make_shakespeare_synth(config);
  }
  data::FemnistSynthConfig config;
  config.num_users = kFemnistWriters;
  config.num_classes = 10;
  config.image_size = kFemnistImageSize;
  config.mean_samples_per_user = kFemnistMeanSamples;
  config.train_fraction = 0.8;
  config.seed = kCorpusSeed;
  return data::make_femnist_synth(config);
}

nn::ModelFactory make_factory(const Workload& w) {
  if (w.data == DataKind::kShakespeare) {
    nn::CharLstmConfig config;
    config.vocab_size = 24;
    config.seq_length = 12;
    config.embedding_dim = 12;
    config.hidden_dim = 32;
    config.lstm_layers = 2;
    return [config] { return nn::make_char_lstm(config); };
  }
  nn::ImageCnnConfig config;
  config.image_size = kFemnistImageSize;
  config.num_classes = 10;
  return [config] { return nn::make_image_cnn(config); };
}

core::NodeConfig make_node(const Workload& w) {
  core::NodeConfig node;
  node.num_tips = w.num_tips;
  node.tip_sample_size = w.tip_sample_size;
  node.reference.num_reference_models = w.reference_models;
  node.reference.confidence.sample_rounds = w.nodes_per_round;
  node.training.epochs = 1;
  node.training.batch_size = 10;
  if (w.data == DataKind::kShakespeare) {
    node.training.sgd.learning_rate = 0.8;
    node.training.sgd.grad_clip = 5.0;
  } else {
    node.training.sgd.learning_rate = 0.06;
  }
  return node;
}

struct Setup {
  std::unique_ptr<data::FederatedDataset> dataset;
  std::unique_ptr<core::TangleSimulation> engine;
  double seconds = 0.0;
};

Setup set_up(const Workload& w, std::uint64_t seed) {
  Setup setup;
  const Clock::time_point start = Clock::now();
  setup.dataset =
      std::make_unique<data::FederatedDataset>(make_dataset(w));
  const core::NodeConfig node = make_node(w);
  const tangle::PayloadCodecConfig codec = tangle::parse_codec_spec(w.codec);
  core::SimulationConfig config;
  config.rounds = w.rounds;
  config.nodes_per_round = w.nodes_per_round;
  config.eval_every = w.eval_every;
  // The consensus is evaluated on every user's test data: the harnesses'
  // random 30% made the accuracy history swing more between evaluations
  // than the model did.
  config.eval_nodes_fraction = 1.0;
  config.node = node;
  config.seed = seed;
  config.threads = w.threads;
  config.codec = codec;
  setup.engine = std::make_unique<core::TangleSimulation>(
      *setup.dataset, make_factory(w), config);
  setup.seconds = seconds_since(start);
  return setup;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// Program counters read around the timed passes.
const char* const kCounters[] = {
    "nn.gemm.flops",
    "eval.cache.hit",
    "eval.cache.miss",
    "train.examples",
    "tangle.view_cache.miss",
    "ledger.codec.raw_bytes",
    "ledger.codec.encoded_bytes",
    "ledger.codec.chunk_dedup_hits",
    "store.add.deduplicated",
};

struct EvalPoint {
  std::uint64_t round = 0;
  double accuracy = 0.0;
  double loss = 0.0;
  double at_s = 0.0;  // pass time when this evaluation finished
};

struct Pass {
  std::uint64_t seed = 0;
  bool warmup = false;
  std::vector<double> round_ms;
  std::vector<EvalPoint> evals;
  std::uint64_t published = 0;
  std::uint64_t transactions = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t ledger_bytes = 0;
  std::size_t violations = 0;
  double wall_s = 0.0;
  std::string error;
};

Pass run_pass(const Workload& w, std::uint64_t seed,
              core::TangleSimulation& engine,
              std::size_t param_bytes) {
  Pass pass;
  pass.seed = seed;
  const std::uint64_t encoded_before = counter("ledger.codec.encoded_bytes");
  perfbench::set_enabled(true);
  const Clock::time_point start = Clock::now();
  try {
    for (std::uint64_t round = 1; round <= w.rounds; ++round) {
      const Clock::time_point round_start = Clock::now();
      {
        LayerSpan span(perfbench::Layer::kRound);
        pass.published += engine.run_round(round);
      }
      pass.round_ms.push_back(seconds_since(round_start) * 1e3);
      if (round % w.eval_every == 0 || round == w.rounds) {
        core::RoundRecord record;
        {
          LayerSpan span(perfbench::Layer::kEvaluate);
          record = engine.evaluate(round);
        }
        pass.evals.push_back(
            {round, record.accuracy, record.loss, seconds_since(start)});
      }
    }
  } catch (const std::exception& error) {
    pass.error = error.what();
  }
  pass.wall_s = seconds_since(start);
  // The output checks below are not part of the measured pass.
  perfbench::set_enabled(false);
  pass.transactions = engine.tangle().size();
  pass.ledger_bytes = engine.store().live_bytes();
  // With the codec off the wire payload is the raw float32 vector.
  pass.wire_bytes = w.codec == "off"
                        ? pass.published * param_bytes
                        : counter("ledger.codec.encoded_bytes") -
                              encoded_before;
  pass.violations = tangle::find_invariant_violations(engine.tangle()).size();
  return pass;
}

void print_doubles(const std::vector<double>& values) {
  std::printf("[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", values[i]);
  }
  std::printf("]");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  std::size_t setup_reps = 3;  // timed set-ups per pass
  std::size_t min_passes = 0;  // 0: one per sub-seed
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--setup-reps") args.setup_reps = std::stoul(value);
    else if (key == "--min-passes") args.min_passes = std::stoul(value);
    else return std::nullopt;
  }
  if (argc % 2 != 1 || args.workload.empty()) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception&) {
  }
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "[--setup-reps K] [--min-passes P]\n",
                 argv[0]);
    return 2;
  }
  const std::optional<Workload> found = find_workload(args->workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  set_log_level(LogLevel::kWarn);
  perfbench::set_driver_thread();
  perfbench::set_enabled(false);

  const std::size_t param_bytes =
      make_factory(w)().parameter_count() * sizeof(float);

  // Warm-up pass on sub-seed 0 (lazy statics, allocator growth, first-touch
  // page faults). Not timed; its outputs still join the repeat check.
  std::vector<Pass> passes;
  {
    const std::uint64_t seed = sub_seed(args->seed, 0, w.sub_seeds);
    Setup setup = set_up(w, seed);
    passes.push_back(run_pass(w, seed, *setup.engine, param_bytes));
    passes.back().warmup = true;
  }

  std::uint64_t before[std::size(kCounters)];
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    before[i] = counter(kCounters[i]);
  }
  perfbench::reset();
  // Timed passes until all three budgets are met. Set-up time is sampled
  // before every pass (the last sample builds the pass's engine), so its
  // samples spread over the run as the passes do; run.py reports the median.
  const std::size_t min_passes =
      args->min_passes > 0 ? args->min_passes : w.sub_seeds;
  std::vector<double> setup_s;
  double measured_s = 0.0;
  std::size_t rounds = 0;
  for (std::size_t i = 0;; ++i) {
    const bool done = i >= min_passes && measured_s >= args->seconds &&
                      rounds >= kMinRounds;
    if (done || !passes.back().error.empty()) break;
    const std::uint64_t seed = sub_seed(args->seed, i, w.sub_seeds);
    for (std::size_t rep = 1; rep < args->setup_reps; ++rep) {
      setup_s.push_back(set_up(w, seed).seconds);
    }
    Setup setup = set_up(w, seed);
    setup_s.push_back(setup.seconds);
    passes.push_back(run_pass(w, seed, *setup.engine, param_bytes));
    measured_s += passes.back().wall_s;
    rounds += passes.back().round_ms.size();
  }
#ifdef PERFBENCH_TRACED
  const perfbench::Totals totals = perfbench::collect();
#endif

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,",
              args->workload.c_str(),
              static_cast<unsigned long long>(args->seed),
#ifdef PERFBENCH_TRACED
              "true"
#else
              "false"
#endif
  );
  const std::size_t lanes =
      w.threads > 1 ? std::min(w.threads + 1, w.nodes_per_round) : 1;
  std::printf("\"lanes\":%zu,\"codec\":%s,\"peak_rss_kb\":%ld,\"setup_s\":",
              lanes, w.codec == "off" ? "false" : "true", usage.ru_maxrss);
  print_doubles(setup_s);
  std::printf(",\"counters\":{");
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    std::printf("%s\"%s\":%llu", i == 0 ? "" : ",", kCounters[i],
                static_cast<unsigned long long>(counter(kCounters[i]) -
                                                before[i]));
  }
  std::printf("},\"passes\":[");
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    std::printf("%s{\"seed\":%llu,\"warmup\":%s,\"wall_s\":%.17g,"
                "\"published\":%llu,\"transactions\":%llu,\"wire_bytes\":%llu,"
                "\"ledger_bytes\":%llu,\"violations\":%zu,"
                "\"error\":\"%s\",\"round_ms\":",
                p == 0 ? "" : ",", static_cast<unsigned long long>(pass.seed),
                pass.warmup ? "true" : "false", pass.wall_s,
                static_cast<unsigned long long>(pass.published),
                static_cast<unsigned long long>(pass.transactions),
                static_cast<unsigned long long>(pass.wire_bytes),
                static_cast<unsigned long long>(pass.ledger_bytes),
                pass.violations, pass.error.empty() ? "" : "round threw");
    print_doubles(pass.round_ms);
    std::printf(",\"evals\":[");
    for (std::size_t e = 0; e < pass.evals.size(); ++e) {
      const EvalPoint& point = pass.evals[e];
      std::printf("%s[%llu,%.17g,%.17g,%.17g]", e == 0 ? "" : ",",
                  static_cast<unsigned long long>(point.round), point.accuracy,
                  point.loss, point.at_s);
    }
    std::printf("]}");
  }
  std::printf("]");
#ifdef PERFBENCH_TRACED
  double wall_ns = 0.0;
  for (const Pass& pass : passes) {
    if (!pass.warmup) wall_ns += pass.wall_s * 1e9;
  }
  const perfbench::Accounting acc =
      perfbench::account(totals, static_cast<int>(lanes),
                         static_cast<std::int64_t>(wall_ns));
  std::printf(",\"trace\":{\"wall_ms\":%.17g,\"window_ms\":%.17g,"
              "\"capacity_ms\":%.17g,\"self_sum_ms\":%.17g,"
              "\"lane_idle_ms\":%.17g,\"unattributed_ms\":%.17g,"
              "\"round_serial_ms\":%.17g,\"node_publishes\":%lld,"
              "\"sha256_bytes\":%lld,\"eval_models\":%lld,"
              "\"missing_wrappers\":%zu,\"layers\":{",
              acc.wall_ms, acc.window_ms, acc.capacity_ms, acc.self_sum_ms,
              acc.lane_idle_ms, acc.unattributed_ms, acc.round_serial_ms,
              static_cast<long long>(totals.node_publishes),
              static_cast<long long>(totals.sha256_bytes),
              static_cast<long long>(totals.eval_models),
              perfbench::wrapped_symbols_missing().size());
  for (int i = 0; i < perfbench::kLayerCount; ++i) {
    const perfbench::LayerTotals& layer = totals.layers[i];
    std::printf("%s\"%s\":{\"calls\":%lld,\"wall_ms\":%.17g,\"self_ms\":%.17g,"
                "\"serial_ms\":%.17g}",
                i == 0 ? "" : ",",
                perfbench::layer_name(static_cast<perfbench::Layer>(i)),
                static_cast<long long>(layer.calls),
                static_cast<double>(layer.wall_ns) * 1e-6,
                static_cast<double>(layer.self_ns) * 1e-6,
                static_cast<double>(layer.serial_ns) * 1e-6);
  }
  std::printf("}}");
#endif
  std::printf("}\n");
  return 0;
}
