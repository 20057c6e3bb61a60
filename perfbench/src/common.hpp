// Shared pieces of the repository benchmark: command-line options, the
// benchmark-owned span log, order statistics, the memory and host probes,
// and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< generated inputs live here
  std::string spans_out;  ///< the traced run writes its spans here
};

/// Derives the seed of the index-th input unit (robot, scenario) from the
/// workload seed (SplitMix64 finalizer, so neighbouring seeds decorrelate).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Spans the benchmark records around its calls into the library: name,
/// start, end and parent, kept in memory and written out at exit. A null
/// log turns every Scope into a no-op, which is how the untraced runs use
/// the same code.
class SpanLog {
 public:
  struct Record {
    std::string name;
    std::size_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< time covered by direct children
    std::uint64_t items = 0;    ///< work items (events, windows, ...)
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::uint64_t items = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_items(std::uint64_t items);

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  /// Per-name sums over the spans recorded in [from, to).
  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t items = 0;
  };
  std::map<std::string, Totals> totals(std::size_t from, std::size_t to) const;

  /// Position marker: spans recorded from here on form one range.
  std::size_t mark() const { return spans_.size(); }

  /// One JSON line per span (with its self time), then a per-name summary
  /// line. `header` is written first as its own line.
  void write(const std::string& path, const std::string& header) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
};

/// Lookup into a Totals map that yields zeros for absent names.
SpanLog::Totals span_totals(const std::map<std::string, SpanLog::Totals>& all,
                            const std::string& name);

double median(std::vector<double> values);
/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> values, double q);

/// One measured pass over one unit of input as the end-to-end metrics see
/// it. Passes over the same unit do the same work, so they differ only by
/// what the host took from them.
struct PassSample {
  std::size_t unit = 0;  ///< passes compare only within their unit
  double wall_ms = 0.0;  ///< the whole pass; ranks the unit's passes
  double events = 0.0;
  double event_ms = 0.0;  ///< time spent on the events
  double answers = 0.0;
  double answer_ms = 0.0;  ///< time spent producing the answers
  std::vector<double> call_ms;
};

/// The throughputs and the median latency come from the fastest tenth of
/// each unit's passes. p99 pools every call of the run, which must hold
/// enough of them for ten to lie beyond it.
inline constexpr double kFastestShare = 0.1;
inline constexpr std::size_t kMinCallSamples = 1000;

/// Indices of the fastest kFastestShare (at least one) of each unit's
/// passes, by wall time.
std::vector<std::size_t> fastest_passes(const std::vector<PassSample>& passes);

/// Whether `passes` hold kMinCallSamples latencies.
bool enough_calls(const std::vector<PassSample>& passes);

/// Resets the VmHWM high-water mark (writes 5 to /proc/self/clear_refs).
bool reset_peak_rss();
/// VmHWM in MiB, or 0 when /proc is unavailable.
double peak_rss_mb();

/// nproc, the measured effective parallelism (N spinning threads timed
/// against one) and the build type, as one JSON object.
std::string host_record_json();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted and failed, the correctness
/// checks that did not hold, and the metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  /// Counts one operation; a failed one is also described in `problems`.
  void operation(bool ok, const std::string& what);
  /// Records a correctness check (not an operation).
  void check(bool ok, const std::string& what);
  void metric(std::string name, double value, std::string unit);
  /// The end-to-end metrics: the median set-up time; over the fastest
  /// passes, the throughputs (work over the time spent on it) and the
  /// median of their pooled call latencies; p99 of every call; and VmHWM.
  void end_to_end(const std::vector<double>& setup_s,
                  const std::vector<PassSample>& passes);

  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string result_line() const;
};

}  // namespace perfbench
