// StreamSentinel: continuous drift detection over an event stream.
//
// Events arrive incrementally (feed / feed_file); a sliding window of
// configurable span and advance is maintained over the stream, and every
// window advance re-runs the drift axes against the baseline through the
// shared DriftEngine. Unlike a one-shot DriftEngine::analyze, per-axis
// evidence accumulates *sequentially* across windows — a one-sided CUSUM
// over period/latency deltas and structural presence, and an e-detector
// (a CUSUM of log e-values) over the per-window KS p-values — so an alarm
// fires when the accumulated evidence crosses its level, not when one
// window happens to look odd. The e-detector bounds the mean number of
// clean windows between false alarms, not the chance of one.
//
//   sentinel::StreamSentinel stream(config);
//   stream.ingest_baseline_file("baseline.jsonl");
//   auto verdicts = stream.feed_file("segment-000.jsonl");
//   for (const auto& w : verdicts.value())
//     if (w.alarmed) page(window_verdict_to_json(w));
//
// Drift localization ranks which ScenarioGenerator::mutate axis best
// explains the accumulated findings, and baseline auto-refresh (with
// hysteresis, config.refresh_after) folds a persistently clean-but-
// shifted stream into a new baseline — emitting an operator-visible
// BaselineRefreshed window flag, never silently.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/result.hpp"
#include "sentinel/engine.hpp"
#include "support/statistics.hpp"
#include "support/time.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::sentinel {

class StreamSentinel {
 public:
  StreamSentinel() : StreamSentinel(SentinelConfig{}) {}
  explicit StreamSentinel(SentinelConfig config);

  // -- baseline -----------------------------------------------------------

  /// Adds one event segment to the baseline trace. May be called several
  /// times (segments k-way merge); the baseline model is re-synthesized
  /// lazily on the next check or feed.
  api::Result<api::SegmentInfo> ingest_baseline(trace::EventColumns events);
  /// Packs heap events into the baseline.
  api::Result<api::SegmentInfo> ingest_baseline(
      const trace::EventVector& events);
  /// Reads a JSONL or .ttb trace file into the baseline.
  api::Result<api::SegmentInfo> ingest_baseline_file(const std::string& path);
  /// The baseline model (synthesizing it first if dirty).
  api::Result<core::TimingModel> baseline_model();

  // -- streaming ----------------------------------------------------------

  /// Feeds one batch of events into the stream and returns the verdicts
  /// of every window that closed. InvalidArgument when the window
  /// geometry is invalid (advance > span, non-positive span/advance),
  /// alpha or evidence_alpha lies outside (0, 1), advance * refresh_after
  /// overflows Duration, or no baseline was ingested. With
  /// config.rebase_segments each batch after the first is shifted to
  /// start kRebaseGap after the previous batch's last event; without it,
  /// events older than the current window start are dropped (and
  /// counted in late_events()).
  api::Result<std::vector<WindowVerdict>> feed(trace::EventColumns events);
  /// Packs heap events and feeds them.
  api::Result<std::vector<WindowVerdict>> feed(
      const trace::EventVector& events);
  /// Reads a JSONL or .ttb trace file and feeds it as one batch.
  api::Result<std::vector<WindowVerdict>> feed_file(const std::string& path);

  // -- introspection ------------------------------------------------------

  const SentinelConfig& config() const { return config_; }
  /// Windows evaluated against the baseline (empty windows skipped over
  /// stream gaps are not).
  std::size_t windows_checked() const { return engine_.windows_analyzed(); }
  /// Streaming windows closed so far.
  std::size_t windows_advanced() const { return windows_advanced_; }
  /// Baseline auto-refreshes fired so far.
  std::size_t refreshes() const { return refreshes_; }
  /// Events dropped because they arrived before the current window start
  /// (only possible with config.rebase_segments off).
  std::size_t late_events() const { return late_events_; }
  /// Empty windows skipped over stream gaps (no events in span).
  std::size_t windows_skipped_empty() const { return windows_skipped_empty_; }

 private:
  /// One sequential accumulator per (axis, subject).
  using AccumulatorKey = std::pair<DriftKind, std::string>;

  api::Result<std::vector<WindowVerdict>> advance_windows();
  WindowVerdict evaluate_window(TimePoint begin, TimePoint end,
                                const WindowAnalysis& analysis);
  /// Folds the last refresh_after windows into a new baseline.
  api::Error refresh_baseline_from_stream(TimePoint window_begin,
                                          TimePoint window_end);
  CusumAccumulator make_accumulator(DriftKind kind) const;
  std::vector<AxisScore> localize() const;
  /// The buffered rows not yet evicted, time-sorted.
  trace::ColumnsView live() const;
  /// Drops the evicted prefix of the buffer.
  void compact();
  /// The rows synthesized for [begin, end): the sticky node table, then
  /// the buffered rows in range except node creations, stable-sorted.
  trace::EventColumns window_rows(TimePoint begin, TimePoint end) const;

  SentinelConfig config_;
  DriftEngine engine_;

  /// Buffered stream rows, time-sorted. Rows before first_live_ are
  /// evicted (behind the window, plus the refresh horizon when
  /// auto-refresh is enabled); they are dropped once they outnumber the
  /// live rows, so eviction costs O(1) amortized per row.
  trace::EventColumns buffer_;
  std::size_t first_live_ = 0;
  /// One RmwCreateNode row, its name held by value: the buffer's string
  /// table is rebuilt by an overlap re-sort and when it outgrows the rows.
  struct NodeRow {
    trace::PackedRow row;
    std::string name;
  };
  /// Sticky node table: the latest RmwCreateNode row per pid. Node
  /// creation happens once at process start, so mid-stream windows would
  /// otherwise synthesize nameless callbacks whose vertex keys all differ
  /// from the baseline — every clean window would look like total
  /// structural drift. The table is prepended to every window.
  std::map<Pid, NodeRow> node_rows_;

  bool have_origin_ = false;
  TimePoint window_start_;
  TimePoint stream_end_;
  std::size_t window_index_ = 0;

  std::map<AccumulatorKey, CusumAccumulator> accumulators_;
  /// Detail/value of the last observation per accumulator, for alarm
  /// rendering.
  std::map<AccumulatorKey, std::string> last_details_;

  std::size_t consecutive_shifted_ = 0;
  std::size_t windows_advanced_ = 0;
  std::size_t refreshes_ = 0;
  std::size_t late_events_ = 0;
  std::size_t windows_skipped_empty_ = 0;
};

}  // namespace tetra::sentinel
