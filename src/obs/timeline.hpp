// Per-round time series on top of the metrics registry.
//
// A Timeline stores named series of (round, value) samples grouped into runs
// (one run per harness invocation label, e.g. one poisoning fraction in
// fig5). Sinks are deterministic: JSONL emits one object per (run, round)
// with sorted keys; CSV emits one row per (run, round) with a sorted column
// union. Two equal-seed runs serialize byte-identically regardless of thread
// count, provided only deterministic values are recorded.
//
// RegistrySampler turns registry metrics into timeline series at round
// boundaries: counters become per-round deltas, gauges become point-in-time
// values, and histograms become per-round sample counts plus windowed
// p50/p90/p99 quantiles computed from bucket-count deltas. Timing metrics
// are excluded (the sampler reads kDeterministic snapshots only).
//
// Neither class takes locks: both are designed to be driven from the
// single-threaded round barrier (sync engine), the event loop (async), or
// the round loop (gossip), never from pool workers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace tanglefl::obs {

class Timeline {
 public:
  /// Starts (or resumes) the run with the given label; subsequent record()
  /// calls land there. Without any begin_run() samples land in a single
  /// unnamed run "". Runs serialize in first-begin order.
  void begin_run(std::string label);

  /// Records one sample. Re-recording the same (round, series) overwrites.
  void record(std::uint64_t round, std::string_view series, double value);

  bool empty() const noexcept;
  std::size_t run_count() const noexcept { return runs_.size(); }

  /// One compact JSON object per (run, round), rounds ascending within each
  /// run: {"round":N,"run":"label","<series>":<value>,...}. Keys after
  /// "round"/"run" are sorted; numbers use json_number formatting.
  std::string to_jsonl() const;

  /// Header `run,round,<sorted series union>`; one row per (run, round)
  /// with empty cells where a series has no sample.
  std::string to_csv() const;

  /// Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;
  bool write_csv(const std::string& path) const;

 private:
  struct Run {
    std::string label;
    // round -> series -> value; both levels ordered so iteration is sorted.
    std::map<std::uint64_t, std::map<std::string, double, std::less<>>> rows;
  };

  Run& current_run();

  std::vector<Run> runs_;
  std::size_t current_ = 0;
};

/// Samples the registry into a Timeline at round boundaries. Counter and
/// histogram-bucket baselines are captured at construction, so deltas are
/// measured from "sampler creation" (engine construction), not process
/// start — a second simulation in the same process starts its series at
/// zero even though the shared registry keeps accumulating.
class RegistrySampler {
 public:
  explicit RegistrySampler(const MetricsRegistry& registry =
                               MetricsRegistry::global());

  /// Takes a deterministic snapshot and records, per metric:
  ///   counter   -> `<name>` = delta since the previous sample
  ///   gauge     -> `<name>` = current value
  ///   histogram -> `<name>.count` = samples recorded this round, plus
  ///                `<name>.p50/.p90/.p99` estimated from the round's
  ///                bucket-count deltas, with the edge buckets anchored on
  ///                the layout (0 below the first bound, the last bound
  ///                for overflow) rather than on process-lifetime min/max.
  /// Emission is activity-based: zero counter deltas, gauges never set()
  /// since sampler construction, and empty histogram windows emit nothing
  /// (absence means zero). Registration alone never produces a series, so
  /// output does not depend on which metrics earlier runs in the same
  /// process happened to register.
  void sample(Timeline& timeline, std::uint64_t round);

 private:
  const MetricsRegistry* registry_;
  std::map<std::string, std::uint64_t, std::less<>> last_counters_;
  std::map<std::string, std::uint64_t, std::less<>> baseline_gauge_updates_;
  std::map<std::string, std::vector<std::uint64_t>, std::less<>> last_buckets_;
};

/// RAII round boundary: samples the registry into the timeline when the
/// scope closes, so early returns from a round body still produce a row.
class RoundScope {
 public:
  RoundScope(RegistrySampler& sampler, Timeline& timeline,
             std::uint64_t round) noexcept
      : sampler_(&sampler), timeline_(&timeline), round_(round) {}
  ~RoundScope() { sampler_->sample(*timeline_, round_); }

  RoundScope(const RoundScope&) = delete;
  RoundScope& operator=(const RoundScope&) = delete;

 private:
  RegistrySampler* sampler_;
  Timeline* timeline_;
  std::uint64_t round_;
};

}  // namespace tanglefl::obs
