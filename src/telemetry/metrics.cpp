#include "telemetry/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/snapshot.hpp"

namespace tetra::telemetry {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Histogram::Histogram(std::vector<std::int64_t> boundaries)
    : boundaries_(std::move(boundaries)),
      buckets_(new std::atomic<std::uint64_t>[boundaries_.size() + 1]) {
  for (std::size_t i = 1; i < boundaries_.size(); ++i) {
    if (boundaries_[i] <= boundaries_[i - 1]) {
      throw std::invalid_argument(
          "histogram boundaries must be strictly increasing");
    }
  }
  for (std::size_t i = 0; i <= boundaries_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(std::int64_t value) {
  if (!enabled()) return;
  // First boundary >= value; everything above the last boundary lands in
  // the implicit overflow bucket.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(boundaries_.begin(), boundaries_.end(), value) -
      boundaries_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(boundaries_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  // Arms the TETRA_STATS at-exit dump and TETRA_STATS_CLOCK the first
  // time any subsystem touches telemetry (examples and tools alike).
  init_from_environment();
  return registry;
}

std::string MetricsRegistry::flat_key(std::string_view name,
                                      const Labels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  const std::string key = flat_key(name, labels);
  std::lock_guard lock(mutex_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(key, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  const std::string key = flat_key(name, labels);
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::int64_t> boundaries,
                                      const Labels& labels) {
  const std::string key = flat_key(name, labels);
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(key, std::make_unique<Histogram>(std::move(boundaries)))
             .first;
  }
  return *it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard lock(mutex_);
  for (const auto& [key, counter] : counters_) {
    snap.counters.emplace(key, counter->value());
  }
  for (const auto& [key, gauge] : gauges_) {
    snap.gauges.emplace(key, gauge->value());
  }
  for (const auto& [key, histogram] : histograms_) {
    Snapshot::HistogramData data;
    data.boundaries = histogram->boundaries();
    data.counts = histogram->bucket_counts();
    data.count = histogram->count();
    data.sum = histogram->sum();
    snap.histograms.emplace(key, std::move(data));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace tetra::telemetry
