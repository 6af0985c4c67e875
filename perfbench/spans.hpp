// Exclusive-time span accounting for the traced benchmark build.
//
// A span is opened around each call into a layer's public entry point (the
// link-time wrappers in wrap.cpp, plus the driver's own run_round/evaluate
// calls). Every thread keeps its own stack, so a span's self time is its
// duration minus the time its child spans on the same thread cover.
//
// Node steps are special: they run on the engine's pool lanes while the
// driver thread waits for them (or runs some of them itself). The union of
// node-step intervals is the "parallel window". A round span's self time
// excludes that window, and the lanes' unused share of it is reported as
// lane idle time, so that over a run
//
//   sum(self) + lane_idle + unattributed = wall + (lanes - 1) * window
//
// i.e. every lane-millisecond of the run is either inside a layer, waiting
// for other lanes, or outside every span ("unattributed").
#pragma once

#include <array>
#include <cstdint>

namespace perfbench {

enum class Layer : int {
  kRound,      // core.round      TangleSimulation::run_round
  kNodeStep,   // core.node_step  HonestNode::step
  kReference,  // core.reference  core::choose_reference
  kEvalMany,   // core.eval       EvalEngine::evaluate_many
  kEvaluate,   // core.evaluate   *Simulation::evaluate
  kTrain,      // data.train      data::train_local
  kForward,    // nn.forward      nn::Model::forward
  kBackward,   // nn.backward     nn::Model::backward
  kOptimizer,  // nn.optimizer    nn::SgdOptimizer::step
  kWalk,       // tangle.walk     tangle::select_tips
  kCones,      // tangle.cones    tangle::ViewCache::get
  kCodec,      // tangle.codec    tangle::PayloadPipeline::process
  kStore,      // tangle.store    tangle::ModelStore::add
  kDag,        // tangle.dag      tangle::Tangle::add_transaction
  kSha256,     // support.sha256  Sha256::hash
  kCount
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

/// Metric prefix of a layer, e.g. "core.node_step".
const char* layer_name(Layer layer) noexcept;

struct LayerTotals {
  std::int64_t calls = 0;
  std::int64_t wall_ns = 0;    // inclusive duration
  std::int64_t self_ns = 0;    // duration minus same-thread children
  std::int64_t serial_ns = 0;  // self time on the driver outside windows
};

struct Totals {
  std::array<LayerTotals, kLayerCount> layers{};
  std::int64_t window_ns = 0;        // union of node-step intervals
  std::int64_t node_publishes = 0;   // node steps that returned a payload
  std::int64_t sha256_bytes = 0;
  std::int64_t eval_models = 0;      // requests passed to evaluate_many
};

/// Derived per-run figures; see the identity in the header comment.
struct Accounting {
  double wall_ms = 0.0;
  double window_ms = 0.0;
  double capacity_ms = 0.0;  // wall + (lanes - 1) * window
  double self_sum_ms = 0.0;
  double lane_idle_ms = 0.0;
  double unattributed_ms = 0.0;
  double round_serial_ms = 0.0;  // round wall outside the windows
};

/// Pure function of the totals: lane idle is lanes * window minus the summed
/// node-step wall time; unattributed is what remains of the capacity.
Accounting account(const Totals& totals, int lanes, std::int64_t wall_ns);

/// Opens a span on the calling thread; closes it on destruction.
class Span {
 public:
  explicit Span(Layer layer) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  bool active_ = false;
  bool serial_ = false;
  std::int64_t start_ns_ = 0;
  std::int64_t round_window_start_ns_ = 0;
};

/// Marks the calling thread as the driver (the thread that runs rounds).
void set_driver_thread() noexcept;
/// Spans opened while disabled record nothing (set-up outside the timed
/// passes). Toggle only with no span open.
void set_enabled(bool enabled) noexcept;
/// Zeroes every thread's totals. Call with no span open.
void reset() noexcept;
/// Sums every thread's totals. Call with no span open.
Totals collect() noexcept;

void note_publish() noexcept;
void note_sha256_bytes(std::int64_t bytes) noexcept;
void note_eval_models(std::int64_t models) noexcept;

/// Monotonic clock in nanoseconds. Tests substitute a fake one.
using ClockFn = std::int64_t (*)();
void set_clock(ClockFn clock) noexcept;

}  // namespace perfbench
