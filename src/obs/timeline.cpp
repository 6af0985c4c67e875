#include "obs/timeline.hpp"

#include <array>
#include <fstream>
#include <set>
#include <utility>

#include "obs/json.hpp"

namespace tanglefl::obs {
namespace {

// Minimal CSV quoting: labels are normally bare ("fraction=0.25"), but a
// label containing a delimiter must not shift columns.
std::string csv_escape(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

}  // namespace

Timeline::Run& Timeline::current_run() {
  if (runs_.empty()) {
    runs_.push_back(Run{});
    current_ = 0;
  }
  return runs_[current_];
}

void Timeline::begin_run(std::string label) {
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].label == label) {
      current_ = i;
      return;
    }
  }
  runs_.push_back(Run{std::move(label), {}});
  current_ = runs_.size() - 1;
}

void Timeline::record(std::uint64_t round, std::string_view series,
                      double value) {
  auto& row = current_run().rows[round];
  const auto it = row.find(series);
  if (it != row.end()) {
    it->second = value;
  } else {
    row.emplace(std::string(series), value);
  }
}

bool Timeline::empty() const noexcept {
  for (const Run& run : runs_) {
    if (!run.rows.empty()) return false;
  }
  return true;
}

std::string Timeline::to_jsonl() const {
  std::string out;
  for (const Run& run : runs_) {
    for (const auto& [round, row] : run.rows) {
      JsonWriter writer(0);
      writer.begin_object();
      writer.key("round");
      writer.value(round);
      writer.key("run");
      writer.value(run.label);
      for (const auto& [series, value] : row) {
        writer.key(series);
        writer.value(value);
      }
      writer.end_object();
      out += writer.take();
      out += '\n';
    }
  }
  return out;
}

std::string Timeline::to_csv() const {
  std::set<std::string> columns;
  for (const Run& run : runs_) {
    for (const auto& [round, row] : run.rows) {
      (void)round;
      for (const auto& [series, value] : row) {
        (void)value;
        columns.insert(series);
      }
    }
  }
  std::string out = "run,round";
  for (const std::string& column : columns) {
    out += ',';
    out += csv_escape(column);
  }
  out += '\n';
  for (const Run& run : runs_) {
    for (const auto& [round, row] : run.rows) {
      out += csv_escape(run.label);
      out += ',';
      out += std::to_string(round);
      for (const std::string& column : columns) {
        out += ',';
        const auto it = row.find(column);
        if (it != row.end()) out += json_number(it->second);
      }
      out += '\n';
    }
  }
  return out;
}

bool Timeline::write_jsonl(const std::string& path) const {
  return write_text_file(path, to_jsonl());
}

bool Timeline::write_csv(const std::string& path) const {
  return write_text_file(path, to_csv());
}

RegistrySampler::RegistrySampler(const MetricsRegistry& registry)
    : registry_(&registry) {
  // Baseline: deltas measure activity since sampler creation, not process
  // start, so a second run sharing the global registry starts at zero.
  const MetricsSnapshot snap =
      registry_->snapshot(SnapshotKind::kDeterministic);
  for (const CounterSnapshot& c : snap.counters) {
    last_counters_[c.name] = c.value;
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    baseline_gauge_updates_[g.name] = g.updates;
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    last_buckets_[h.name] = h.bucket_counts;
  }
}

void RegistrySampler::sample(Timeline& timeline, std::uint64_t round) {
  const MetricsSnapshot snap =
      registry_->snapshot(SnapshotKind::kDeterministic);
  // Emission is activity-based, never registration-based: the registry is
  // global and registers metrics lazily, so "which metrics exist" depends on
  // process history (an earlier run in the same process may have touched
  // more subsystems). A counter with a zero delta, an unwritten gauge, or a
  // histogram with an empty window emits nothing — absence means zero — and
  // equal-seed runs stay byte-identical whatever ran before them.
  for (const CounterSnapshot& c : snap.counters) {
    std::uint64_t& last = last_counters_[c.name];
    if (c.value != last) {
      timeline.record(round, c.name, static_cast<double>(c.value - last));
      last = c.value;
    }
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    if (g.updates > baseline_gauge_updates_[g.name]) {
      timeline.record(round, g.name, g.value);
    }
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    std::vector<std::uint64_t>& last = last_buckets_[h.name];
    last.resize(h.bucket_counts.size(), 0);
    std::vector<std::uint64_t> delta(h.bucket_counts.size());
    std::uint64_t window_count = 0;
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] = h.bucket_counts[i] - last[i];
      window_count += delta[i];
    }
    if (window_count == 0) continue;
    last = h.bucket_counts;
    timeline.record(round, h.name + ".count",
                    static_cast<double>(window_count));
    // Windowed quantiles from this round's bucket deltas. The edge buckets
    // are anchored on the layout, as Prometheus does: 0 below the first
    // bound, the last bound for the overflow bucket. The histogram's
    // min/max span the whole process, so anchoring on them would make a
    // row depend on what ran earlier.
    const double top = h.upper_bounds.empty() ? 0.0 : h.upper_bounds.back();
    static constexpr std::array<std::pair<double, const char*>, 3> kQuantiles{
        {{0.50, ".p50"}, {0.90, ".p90"}, {0.99, ".p99"}}};
    for (const auto& [q, suffix] : kQuantiles) {
      timeline.record(round, h.name + suffix,
                      bucket_quantile(h.upper_bounds, delta, q, 0.0, top));
    }
  }
}

}  // namespace tanglefl::obs
