// Self-test of the span accounting in spans.cpp, on a scripted fake clock:
// nested spans on the driver and on a pool lane, the parallel window, lane
// idle time and the accounting identity. Exits 0 when every check holds.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "spans.hpp"

namespace {

using perfbench::Layer;
using perfbench::Span;

std::atomic<std::int64_t> g_now{0};
std::int64_t fake_now() { return g_now.load(); }

// Steps of the script run in global order: step k waits until k-1 is done.
std::atomic<int> g_step{0};
template <typename Fn>
void at(int step, std::int64_t time, Fn&& action) {
  while (g_step.load() != step) std::this_thread::yield();
  g_now = time;
  action();
  g_step.fetch_add(1);
}

int g_failures = 0;
// Integer nanosecond totals are exact; millisecond figures are doubles.
void expect(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %g, want %g\n", what, got, want);
    ++g_failures;
  }
}

const perfbench::LayerTotals& layer(const perfbench::Totals& t, Layer l) {
  return t.layers[static_cast<int>(l)];
}

// Driver only, no node steps: nesting Round > {Cones, Store > Sha256}.
void nested_on_driver() {
  perfbench::reset();
  std::unique_ptr<Span> round, cones, store, sha;
  at(0, 0, [&] { round = std::make_unique<Span>(Layer::kRound); });
  at(1, 10, [&] { cones = std::make_unique<Span>(Layer::kCones); });
  at(2, 30, [&] { cones.reset(); });
  at(3, 40, [&] { store = std::make_unique<Span>(Layer::kStore); });
  at(4, 45, [&] { sha = std::make_unique<Span>(Layer::kSha256); });
  at(5, 50, [&] { sha.reset(); });
  at(6, 60, [&] { store.reset(); });
  at(7, 100, [&] { round.reset(); });
  const perfbench::Totals t = perfbench::collect();
  expect("driver round self", layer(t, Layer::kRound).self_ns, 60);
  expect("driver round wall", layer(t, Layer::kRound).wall_ns, 100);
  expect("driver cones self", layer(t, Layer::kCones).self_ns, 20);
  expect("driver store self", layer(t, Layer::kStore).self_ns, 15);
  expect("driver store serial", layer(t, Layer::kStore).serial_ns, 15);
  expect("driver sha self", layer(t, Layer::kSha256).self_ns, 5);
  const perfbench::Accounting a = perfbench::account(t, 1, 100);
  expect("driver lane idle", a.lane_idle_ms, 0);
  expect("driver unattributed", a.unattributed_ms, 0);
  expect("driver serial", a.round_serial_ms, 100e-6);
}

// Two lanes: the driver runs one node step itself, a pool lane runs another
// with a nested train span; the barrier adds a store span afterwards.
void window_across_lanes() {
  perfbench::reset();
  g_step = 0;
  std::unique_ptr<Span> round, step, store;
  std::thread lane([] {
    std::unique_ptr<Span> lane_step, train, forward;
    at(2, 12, [&] { lane_step = std::make_unique<Span>(Layer::kNodeStep); });
    at(3, 20, [&] { train = std::make_unique<Span>(Layer::kTrain); });
    at(5, 25, [&] { forward = std::make_unique<Span>(Layer::kForward); });
    at(6, 35, [&] { forward.reset(); });
    at(7, 50, [&] { train.reset(); });
    at(8, 60, [&] { lane_step.reset(); });
  });
  at(0, 0, [&] { round = std::make_unique<Span>(Layer::kRound); });
  at(1, 10, [&] { step = std::make_unique<Span>(Layer::kNodeStep); });
  at(4, 24, [&] { step.reset(); });
  at(9, 80, [&] { store = std::make_unique<Span>(Layer::kStore); });
  at(10, 90, [&] { store.reset(); });
  at(11, 100, [&] { round.reset(); });
  lane.join();

  const perfbench::Totals t = perfbench::collect();
  // Window: first step opens at 10, last closes at 60.
  expect("window", t.window_ns, 50);
  expect("node_step calls", layer(t, Layer::kNodeStep).calls, 2);
  expect("node_step wall", layer(t, Layer::kNodeStep).wall_ns, 14 + 48);
  expect("node_step self", layer(t, Layer::kNodeStep).self_ns, 14 + 18);
  expect("node_step serial", layer(t, Layer::kNodeStep).serial_ns, 0);
  expect("train self", layer(t, Layer::kTrain).self_ns, 20);
  expect("train serial", layer(t, Layer::kTrain).serial_ns, 0);
  expect("forward self", layer(t, Layer::kForward).self_ns, 10);
  // Round: 100 minus the store child (10) minus the window (50).
  expect("round self", layer(t, Layer::kRound).self_ns, 40);
  expect("round serial", layer(t, Layer::kRound).serial_ns, 40);
  expect("store serial", layer(t, Layer::kStore).serial_ns, 10);

  const perfbench::Accounting a = perfbench::account(t, 2, 100);
  expect("capacity", a.capacity_ms, 150e-6);
  expect("lane idle", a.lane_idle_ms * 1e6, 2 * 50 - 62);
  expect("serial", a.round_serial_ms * 1e6, 50);
  expect("unattributed", a.unattributed_ms * 1e6, 0);
}

// Spans opened while disabled leave no trace.
void disabled_spans() {
  perfbench::reset();
  perfbench::set_enabled(false);
  { Span span(Layer::kStore); }
  perfbench::set_enabled(true);
  const perfbench::Totals t = perfbench::collect();
  expect("disabled calls", layer(t, Layer::kStore).calls, 0);
}

}  // namespace

int main() {
  perfbench::set_clock(&fake_now);
  perfbench::set_driver_thread();
  nested_on_driver();
  window_across_lanes();
  disabled_spans();
  if (g_failures == 0) std::printf("spans self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
