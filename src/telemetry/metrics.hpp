// Process-wide metrics registry: counters, gauges and fixed-boundary
// histograms, optionally labeled ("kind=vertex-added", "stage=extract").
//
// Registration (name + label lookup) takes a mutex and is expected to run
// once per call site; the returned handle is a stable reference whose
// update path is a single relaxed atomic op — safe and cheap to hammer
// from the worker pool and the decode workers. The whole subsystem can be
// switched off at runtime via set_enabled(false) for overhead A/B
// measurements (bench_telemetry).
//
//   auto& hits = telemetry::MetricsRegistry::global().counter(
//       "session.cache_hits");
//   hits.inc();
//   auto& findings = telemetry::MetricsRegistry::global().counter(
//       "sentinel.findings", {{"kind", "vertex-added"}});
//   findings.inc();
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tetra::telemetry {

/// Label set of one metric instance, e.g. {{"kind", "vertex-added"}}.
/// Stored sorted by key; two sets with the same pairs address the same
/// instance.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Runtime kill switch (default on). Disabling stops counters, gauges,
/// histograms and spans from recording; handles stay valid.
void set_enabled(bool enabled);
bool enabled();

/// Monotonically increasing event count.
class Counter {
 public:
  void inc() { add(1); }
  void add(std::uint64_t delta) {
    if (enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed level (queue depth, bytes held).
class Gauge {
 public:
  void set(std::int64_t value) {
    if (enabled()) value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    if (enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-boundary histogram. An observation lands in the first bucket
/// whose upper boundary is >= the value (Prometheus "le" semantics); the
/// implicit last bucket catches everything above the highest boundary.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> boundaries);

  void observe(std::int64_t value);

  const std::vector<std::int64_t>& boundaries() const { return boundaries_; }
  /// Cumulative-free per-bucket counts; size() == boundaries().size() + 1.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::int64_t> boundaries_;  ///< strictly increasing
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem reports into. First use
  /// also arms the TETRA_STATS / TETRA_STATS_CLOCK environment hooks
  /// (see snapshot.hpp).
  static MetricsRegistry& global();

  /// Returns the counter instance for (name, labels), creating it on
  /// first use. The reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  /// `boundaries` must be strictly increasing; it is fixed on first
  /// registration and ignored on later lookups of the same instance.
  Histogram& histogram(std::string_view name,
                       std::vector<std::int64_t> boundaries,
                       const Labels& labels = {});

  /// Flat key "name{k1=v1,k2=v2}" (plain "name" without labels) — the
  /// snapshot/export key format.
  static std::string flat_key(std::string_view name, const Labels& labels);

  /// Stable point-in-time copy, keys sorted (std::map order).
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    struct HistogramData {
      std::vector<std::int64_t> boundaries;
      std::vector<std::uint64_t> counts;
      std::uint64_t count = 0;
      std::int64_t sum = 0;
    };
    std::map<std::string, HistogramData> histograms;
  };
  Snapshot snapshot() const;

  /// Drops every registered instance (tests). Outstanding handles dangle;
  /// only use between test cases, never mid-pipeline.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace tetra::telemetry
