// Hierarchical stage timing: ScopedSpan RAII timers recording into a
// bounded process-wide ring buffer.
//
//   {
//     telemetry::ScopedSpan span("synth.trace", events.size());
//     ... extract/build ...
//   }  // closing records {name, parent, start_ns, wall_ns, items}
//
// Parenthood follows RAII nesting per thread (a thread-local stack of
// open spans); worker threads start at the root unless an explicit
// parent id — captured via ScopedSpan::current_id() before handing work
// off — is passed. Records land in the ring buffer at close, so a parent
// appears after its children; tree reconstruction uses the ids.
//
// The clock is pluggable: the default reads the steady clock, while
// use_simulated_clock() installs a deterministic counter clock (each
// read advances a fixed step) so snapshots of seeded runs are
// byte-stable — the property the CI determinism job diffs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tetra::telemetry {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;      ///< 1-based, process-wide open order
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t items = 0;  ///< optional item count (events, vertices, ...)
};

/// Clock reading in nanoseconds. Monotonic per thread of control.
using ClockFn = std::int64_t (*)();

/// Installs a custom clock; nullptr restores the steady clock.
void set_clock(ClockFn clock);
/// Installs the deterministic counter clock: every read advances the
/// shared counter by `step_ns`. Identical seeded runs then produce
/// byte-identical span timings.
void use_simulated_clock(std::int64_t step_ns = 1000);
/// Current reading of the installed clock.
std::int64_t clock_now();

/// Process-wide bounded span storage. When full, the oldest record is
/// overwritten and counted as dropped.
class SpanRecorder {
 public:
  static SpanRecorder& global();

  explicit SpanRecorder(std::size_t capacity = kDefaultCapacity);

  void record(SpanRecord record);
  /// Records oldest -> newest (close order among the retained window).
  std::vector<SpanRecord> snapshot() const;
  std::uint64_t dropped() const;
  std::size_t size() const;
  std::size_t capacity() const;
  void set_capacity(std::size_t capacity);

  /// Clears records, the drop counter and the span id counter (tests and
  /// per-run CLI resets).
  void reset();

  /// Next span id (shared by every ScopedSpan).
  std::uint64_t next_id();

  static constexpr std::size_t kDefaultCapacity = 4096;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest record when full
  std::uint64_t dropped_ = 0;
  std::atomic<std::uint64_t> id_counter_{0};
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::uint64_t items = 0);
  /// Explicit parent (cross-thread nesting: capture current_id() before
  /// handing work to a pool thread).
  ScopedSpan(std::string_view name, std::uint64_t parent_id,
             std::uint64_t items);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t items) { record_.items = items; }
  std::uint64_t id() const { return record_.id; }

  /// Innermost open span of this thread (0 at the root).
  static std::uint64_t current_id();

 private:
  SpanRecord record_;
  bool active_ = false;
};

}  // namespace tetra::telemetry
