#include "telemetry/span.hpp"

#include <chrono>

#include "telemetry/metrics.hpp"

namespace tetra::telemetry {

namespace {

std::int64_t steady_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic counter clock: each read advances the shared counter by a
// fixed step, so span timings depend only on the order of clock reads —
// identical for identical seeded single-threaded runs.
std::atomic<std::int64_t> g_sim_ticks{0};
std::atomic<std::int64_t> g_sim_step{1000};

std::int64_t simulated_now() {
  const std::int64_t step = g_sim_step.load(std::memory_order_relaxed);
  return g_sim_ticks.fetch_add(step, std::memory_order_relaxed) + step;
}

std::atomic<ClockFn> g_clock{&steady_now};

}  // namespace

void set_clock(ClockFn clock) {
  g_clock.store(clock != nullptr ? clock : &steady_now,
                std::memory_order_relaxed);
}

void use_simulated_clock(std::int64_t step_ns) {
  g_sim_step.store(step_ns, std::memory_order_relaxed);
  g_sim_ticks.store(0, std::memory_order_relaxed);
  g_clock.store(&simulated_now, std::memory_order_relaxed);
}

std::int64_t clock_now() {
  return g_clock.load(std::memory_order_relaxed)();
}

namespace {
// Innermost open span per thread; ScopedSpan pushes on open and pops on
// close, so strict RAII nesting is the invariant.
thread_local std::vector<std::uint64_t> t_open_spans;
}  // namespace

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_ < 64 ? capacity_ : 64);
}

void SpanRecorder::record(SpanRecord record) {
  std::lock_guard lock(mutex_);
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  // Full: overwrite the oldest record and count it as dropped.
  ring_[head_] = std::move(record);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::size_t SpanRecorder::capacity() const {
  std::lock_guard lock(mutex_);
  return capacity_;
}

void SpanRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  // Straighten the ring before resizing so record order survives.
  std::vector<SpanRecord> straight;
  straight.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    straight.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
  }
  if (straight.size() > capacity) {
    straight.erase(straight.begin(),
                   straight.begin() +
                       static_cast<std::ptrdiff_t>(straight.size() - capacity));
  }
  ring_ = std::move(straight);
  head_ = 0;
  capacity_ = capacity;
}

void SpanRecorder::reset() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  id_counter_.store(0, std::memory_order_relaxed);
}

std::uint64_t SpanRecorder::next_id() {
  return id_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
}

ScopedSpan::ScopedSpan(std::string_view name, std::uint64_t items)
    : ScopedSpan(name, current_id(), items) {}

ScopedSpan::ScopedSpan(std::string_view name, std::uint64_t parent_id,
                       std::uint64_t items) {
  if (!enabled()) return;
  // The registry arms TETRA_STATS_CLOCK; a span can open before anything
  // else touched telemetry (a tool's first trace read), and its start
  // must come from the clock its end reads. Arming through the registry,
  // not init_from_environment() directly, constructs the registry before
  // the at-exit dump that reads it is registered.
  (void)MetricsRegistry::global();
  record_.name = std::string(name);
  record_.id = SpanRecorder::global().next_id();
  record_.parent = parent_id;
  record_.items = items;
  record_.start_ns = clock_now();
  t_open_spans.push_back(record_.id);
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.wall_ns = clock_now() - record_.start_ns;
  if (!t_open_spans.empty() && t_open_spans.back() == record_.id) {
    t_open_spans.pop_back();
  }
  SpanRecorder::global().record(std::move(record_));
}

std::uint64_t ScopedSpan::current_id() {
  return t_open_spans.empty() ? 0 : t_open_spans.back();
}

}  // namespace tetra::telemetry
