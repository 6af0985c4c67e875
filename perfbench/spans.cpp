#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

std::int64_t steady_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ClockFn g_clock = &steady_now;
std::atomic<bool> g_enabled{true};

struct Frame {
  Layer layer;
  std::int64_t child_ns;
};

// One per thread that ever opened a span. Owned by the registry so totals
// outlive pool threads that exit before collect().
struct ThreadState {
  std::array<LayerTotals, kLayerCount> layers{};
  std::vector<Frame> stack;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadState>> g_registry;

thread_local ThreadState* t_state = nullptr;
thread_local bool t_is_driver = false;

ThreadState& state() {
  if (t_state == nullptr) {
    auto owned = std::make_unique<ThreadState>();
    owned->stack.reserve(32);
    t_state = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::move(owned));
  }
  return *t_state;
}

// Parallel window: the union of node-step intervals across all lanes.
std::mutex g_window_mutex;
std::atomic<int> g_active_steps{0};
std::int64_t g_window_start_ns = 0;  // guarded by g_window_mutex
std::int64_t g_window_ns = 0;        // guarded by g_window_mutex

std::atomic<std::int64_t> g_publishes{0};
std::atomic<std::int64_t> g_sha256_bytes{0};
std::atomic<std::int64_t> g_eval_models{0};

std::int64_t window_total() {
  std::lock_guard<std::mutex> lock(g_window_mutex);
  return g_window_ns;
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kRound: return "core.round";
    case Layer::kNodeStep: return "core.node_step";
    case Layer::kReference: return "core.reference";
    case Layer::kEvalMany: return "core.eval";
    case Layer::kEvaluate: return "core.evaluate";
    case Layer::kTrain: return "data.train";
    case Layer::kForward: return "nn.forward";
    case Layer::kBackward: return "nn.backward";
    case Layer::kOptimizer: return "nn.optimizer";
    case Layer::kWalk: return "tangle.walk";
    case Layer::kCones: return "tangle.cones";
    case Layer::kCodec: return "tangle.codec";
    case Layer::kStore: return "tangle.store";
    case Layer::kDag: return "tangle.dag";
    case Layer::kSha256: return "support.sha256";
    case Layer::kCount: break;
  }
  return "?";
}

Span::Span(Layer layer) noexcept
    : layer_(layer), active_(g_enabled.load(std::memory_order_relaxed)) {
  if (!active_) return;
  ThreadState& self = state();
  if (layer == Layer::kNodeStep) {
    std::lock_guard<std::mutex> lock(g_window_mutex);
    if (g_active_steps.fetch_add(1, std::memory_order_relaxed) == 0) {
      g_window_start_ns = g_clock();
    }
  } else if (layer == Layer::kRound) {
    round_window_start_ns_ = window_total();
  }
  serial_ = t_is_driver &&
            g_active_steps.load(std::memory_order_relaxed) == 0;
  self.stack.push_back(Frame{layer, 0});
  start_ns_ = g_clock();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end_ns = g_clock();
  ThreadState& self = state();
  const Frame frame = self.stack.back();
  self.stack.pop_back();
  const std::int64_t duration = end_ns - start_ns_;
  std::int64_t exclusive = duration - frame.child_ns;
  if (layer_ == Layer::kNodeStep) {
    std::lock_guard<std::mutex> lock(g_window_mutex);
    if (g_active_steps.fetch_sub(1, std::memory_order_relaxed) == 1) {
      g_window_ns += end_ns - g_window_start_ns;
    }
  } else if (layer_ == Layer::kRound) {
    // Node steps never credit their parent (they may run on other lanes);
    // the round instead drops the whole window it contained.
    exclusive -= window_total() - round_window_start_ns_;
  }
  LayerTotals& totals = self.layers[static_cast<int>(layer_)];
  ++totals.calls;
  totals.wall_ns += duration;
  totals.self_ns += exclusive;
  if (serial_) totals.serial_ns += exclusive;
  if (!self.stack.empty() && layer_ != Layer::kNodeStep) {
    self.stack.back().child_ns += duration;
  }
}

void set_driver_thread() noexcept { t_is_driver = true; }

void set_enabled(bool enabled) noexcept { g_enabled = enabled; }

void reset() noexcept {
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (auto& thread : g_registry) thread->layers = {};
  }
  {
    std::lock_guard<std::mutex> lock(g_window_mutex);
    g_window_ns = 0;
  }
  g_publishes = 0;
  g_sha256_bytes = 0;
  g_eval_models = 0;
}

Totals collect() noexcept {
  Totals totals;
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& thread : g_registry) {
      for (int i = 0; i < kLayerCount; ++i) {
        LayerTotals& sum = totals.layers[i];
        const LayerTotals& part = thread->layers[i];
        sum.calls += part.calls;
        sum.wall_ns += part.wall_ns;
        sum.self_ns += part.self_ns;
        sum.serial_ns += part.serial_ns;
      }
    }
  }
  totals.window_ns = window_total();
  totals.node_publishes = g_publishes.load();
  totals.sha256_bytes = g_sha256_bytes.load();
  totals.eval_models = g_eval_models.load();
  return totals;
}

Accounting account(const Totals& totals, int lanes, std::int64_t wall_ns) {
  constexpr double kMs = 1e-6;
  Accounting out;
  out.wall_ms = static_cast<double>(wall_ns) * kMs;
  out.window_ms = static_cast<double>(totals.window_ns) * kMs;
  out.capacity_ms = out.wall_ms + (lanes - 1) * out.window_ms;
  for (const LayerTotals& layer : totals.layers) {
    out.self_sum_ms += static_cast<double>(layer.self_ns) * kMs;
  }
  const double node_wall_ms =
      static_cast<double>(
          totals.layers[static_cast<int>(Layer::kNodeStep)].wall_ns) *
      kMs;
  out.lane_idle_ms = lanes * out.window_ms - node_wall_ms;
  out.unattributed_ms = out.capacity_ms - out.self_sum_ms - out.lane_idle_ms;
  out.round_serial_ms =
      static_cast<double>(
          totals.layers[static_cast<int>(Layer::kRound)].wall_ns) *
          kMs -
      out.window_ms;
  return out;
}

void note_publish() noexcept {
  g_publishes.fetch_add(1, std::memory_order_relaxed);
}
void note_sha256_bytes(std::int64_t bytes) noexcept {
  g_sha256_bytes.fetch_add(bytes, std::memory_order_relaxed);
}
void note_eval_models(std::int64_t models) noexcept {
  g_eval_models.fetch_add(models, std::memory_order_relaxed);
}

void set_clock(ClockFn clock) noexcept { g_clock = clock; }

}  // namespace perfbench
