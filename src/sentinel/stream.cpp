#include "sentinel/stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <tuple>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "trace/ttb.hpp"

namespace tetra::sentinel {

namespace {

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", v);
  return buffer;
}

struct StreamMetrics {
  telemetry::Counter& advanced = telemetry::MetricsRegistry::global().counter(
      "sentinel.windows_advanced");
  telemetry::Counter& refreshes = telemetry::MetricsRegistry::global().counter(
      "sentinel.refreshes");

  static StreamMetrics& get() {
    static StreamMetrics metrics;
    return metrics;
  }
};

/// Rows of the time-sorted `rows` that lie before `t`.
std::size_t rows_before(const trace::ColumnsView& rows, TimePoint t) {
  return static_cast<std::size_t>(
      std::lower_bound(rows.time, rows.time + rows.count, t.count_ns()) -
      rows.time);
}

/// The mutation axes drift localization ranks, in rank-tie order.
constexpr const char* kAxisDropEdge = "drop-edge";
constexpr const char* kAxisAddEdge = "add-edge";
constexpr const char* kAxisRetimeTimer = "retime-timer";
constexpr const char* kAxisScaleExecTime = "scale-exec-time";
constexpr const char* kAxisReprioritize = "reprioritize";

/// How strongly evidence on one drift axis implicates each mutation
/// axis. Structural evidence is near-diagnostic; latency evidence is
/// shared — a retimed timer, a scaled callback and a reprioritized
/// executor all move chain latency, but only the last moves *nothing
/// else*, so reprioritize leans on it hardest.
std::vector<std::pair<const char*, double>> axis_weights(DriftKind kind) {
  switch (kind) {
    case DriftKind::VertexRemoved: return {{kAxisDropEdge, 0.9}};
    case DriftKind::EdgeRemoved: return {{kAxisDropEdge, 1.0}};
    case DriftKind::VertexAdded: return {{kAxisAddEdge, 0.9}};
    case DriftKind::EdgeAdded: return {{kAxisAddEdge, 1.0}};
    case DriftKind::PeriodShift: return {{kAxisRetimeTimer, 1.0}};
    case DriftKind::ExecTimeShift: return {{kAxisScaleExecTime, 1.0}};
    case DriftKind::LatencyEnvelope:
      return {{kAxisReprioritize, 0.5},
              {kAxisRetimeTimer, 0.2},
              {kAxisScaleExecTime, 0.2}};
    case DriftKind::DeadlineViolation:
      return {{kAxisReprioritize, 0.3}, {kAxisScaleExecTime, 0.2}};
  }
  return {};
}

}  // namespace

StreamSentinel::StreamSentinel(SentinelConfig config)
    : config_(std::move(config)), engine_(config_) {}

api::Result<api::SegmentInfo> StreamSentinel::ingest_baseline(
    trace::EventColumns events) {
  return engine_.ingest_baseline(std::move(events));
}

api::Result<api::SegmentInfo> StreamSentinel::ingest_baseline(
    const trace::EventVector& events) {
  return ingest_baseline(trace::EventColumns(events));
}

api::Result<api::SegmentInfo> StreamSentinel::ingest_baseline_file(
    const std::string& path) {
  return engine_.ingest_baseline_file(path);
}

api::Result<core::TimingModel> StreamSentinel::baseline_model() {
  return engine_.baseline_model();
}

api::Result<std::vector<WindowVerdict>> StreamSentinel::feed(
    const trace::EventVector& events) {
  return feed(trace::EventColumns(events));
}

api::Result<std::vector<WindowVerdict>> StreamSentinel::feed(
    trace::EventColumns events) {
  const Duration span = config_.window_span;
  const Duration advance = config_.window_advance;
  if (span.count_ns() <= 0 || advance.count_ns() <= 0) {
    return api::Error{api::ErrorCode::InvalidArgument,
                      "window span and advance must be positive", "stream"};
  }
  if (advance > span) {
    return api::Error{
        api::ErrorCode::InvalidArgument,
        "window advance exceeds the span: events between windows would "
        "never be checked",
        "stream"};
  }
  if (!(config_.alpha > 0.0 && config_.alpha < 1.0)) {
    return api::Error{api::ErrorCode::InvalidArgument,
                      "KS alpha must lie in (0, 1)", "stream"};
  }
  if (!(config_.evidence_alpha > 0.0 && config_.evidence_alpha < 1.0)) {
    return api::Error{api::ErrorCode::InvalidArgument,
                      "evidence alpha must lie in (0, 1)", "stream"};
  }
  // The refresh horizon advance * refresh_after must fit a Duration, or
  // eviction would wrap and drop events the next window still needs.
  if (config_.refresh_after >
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max() /
                                 advance.count_ns())) {
    return api::Error{api::ErrorCode::InvalidArgument,
                      "refresh horizon (window advance x refresh-after) "
                      "overflows the stream clock",
                      "stream"};
  }
  const api::Error baseline_error = engine_.ensure_baseline();
  if (baseline_error.code != api::ErrorCode::None) return baseline_error;

  telemetry::ScopedSpan stream_span("sentinel.stream");
  trace::sort_by_time(events);

  if (config_.rebase_segments && have_origin_ && !events.empty()) {
    events.shift((stream_end_ + kRebaseGap) -
                 TimePoint{events.view().time[0]});
  }
  trace::ColumnsView batch = events.view();
  std::size_t late = 0;
  if (!config_.rebase_segments && have_origin_) {
    // Late rows precede the window the stream already committed to;
    // dropping them keeps verdicts append-only and deterministic.
    late = rows_before(batch, window_start_);
    late_events_ += late;
    batch = batch.rows(late, batch.count - late);
  }
  if (batch.count > 0) {
    if (!have_origin_) {
      have_origin_ = true;
      window_start_ = TimePoint{batch.time[0]};
      stream_end_ = window_start_;
    }
    stream_end_ = std::max(stream_end_, TimePoint{batch.time[batch.count - 1]});
    for (std::size_t i = 0; i < batch.count; ++i) {
      if (static_cast<trace::EventType>(batch.type[i]) ==
          trace::EventType::RmwCreateNode) {
        node_rows_[static_cast<Pid>(batch.pid[i])] =
            NodeRow{batch.row(i), std::string(batch.str(batch.arg_c[i]))};
      }
    }
    const trace::ColumnsView buffered = live();
    if (buffered.count == 0) {
      // Nothing live to merge with: the batch becomes the buffer, its
      // late rows the evicted prefix.
      buffer_ = std::move(events);
      first_live_ = late;
    } else {
      // A batch that starts at or after the buffered tail is already in
      // place; only an overlapping one needs the stable re-sort, which
      // orders rows as a merge of the two sorted runs would.
      const bool overlaps = batch.time[0] < buffered.time[buffered.count - 1];
      buffer_.append(batch);
      if (overlaps) {
        compact();
        trace::sort_by_time(buffer_);
      }
    }
  }

  auto verdicts = advance_windows();
  if (verdicts.ok()) {
    stream_span.set_items(verdicts.value().size());
  }
  return verdicts;
}

api::Result<std::vector<WindowVerdict>> StreamSentinel::feed_file(
    const std::string& path) {
  trace::EventColumns events;
  try {
    events = trace::read_trace_file(path);
  } catch (const std::exception& e) {
    return api::Error{api::ErrorCode::Io, e.what(), path};
  }
  return feed(std::move(events));
}

trace::ColumnsView StreamSentinel::live() const {
  return buffer_.view().rows(first_live_, buffer_.size() - first_live_);
}

void StreamSentinel::compact() {
  buffer_.erase_front(first_live_);
  first_live_ = 0;
}

trace::EventColumns StreamSentinel::window_rows(TimePoint begin,
                                                TimePoint end) const {
  telemetry::ScopedSpan span("sentinel.slice");
  const trace::ColumnsView buffered = live();
  const std::size_t lo = rows_before(buffered, begin);
  const std::size_t hi = rows_before(buffered, end);
  trace::EventColumns rows;
  rows.reserve(node_rows_.size() + (hi - lo));
  // The sticky node table rides along even when the creation rows fall
  // outside the window: extraction resolves node names by pid, not time.
  for (const auto& [pid, node] : node_rows_) {
    trace::PackedRow row = node.row;
    row.arg_c = rows.intern(node.name);
    rows.append(row);
  }
  std::vector<std::size_t> picked;
  picked.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    if (static_cast<trace::EventType>(buffered.type[i]) !=
        trace::EventType::RmwCreateNode) {  // already in
      picked.push_back(i);
    }
  }
  rows.append(buffered, picked);
  trace::sort_by_time(rows);
  span.set_items(rows.size());
  return rows;
}

api::Result<std::vector<WindowVerdict>> StreamSentinel::advance_windows() {
  std::vector<WindowVerdict> verdicts;
  if (!have_origin_) return verdicts;
  const Duration span = config_.window_span;
  const Duration advance = config_.window_advance;

  while (stream_end_ - window_start_ >= span) {
    const TimePoint begin = window_start_;
    const TimePoint end = begin + span;
    trace::EventColumns rows = window_rows(begin, end);
    const bool empty = rows.size() <= node_rows_.size();
    if (empty) {
      // A gap in the stream (e.g. a large rebase jump): skip empty
      // windows in one step instead of evaluating vacuous total drift
      // once per advance.
      const trace::ColumnsView buffered = live();
      const std::size_t next = rows_before(buffered, begin);
      if (next == buffered.count) {
        // Nothing buffered ahead either; wait for more data.
        break;
      }
      const std::int64_t gap_ns = buffered.time[next] - begin.count_ns();
      const std::int64_t steps =
          std::max<std::int64_t>(1, gap_ns / advance.count_ns());
      windows_skipped_empty_ += static_cast<std::size_t>(steps);
      window_index_ += static_cast<std::size_t>(steps);
      window_start_ += advance * steps;
      continue;
    }

    auto analysis = engine_.analyze(std::move(rows));
    if (!analysis.ok()) return analysis.error();
    WindowVerdict verdict = evaluate_window(begin, end, analysis.value());

    if (config_.refresh_after > 0 && !verdict.alarmed &&
        verdict.window_drifted &&
        consecutive_shifted_ >= config_.refresh_after) {
      const api::Error error = refresh_baseline_from_stream(begin, end);
      if (error.code != api::ErrorCode::None) return error;
      verdict.refreshed = true;
    }

    verdicts.push_back(std::move(verdict));
    ++windows_advanced_;
    ++window_index_;
    StreamMetrics::get().advanced.inc();
    window_start_ += advance;

    // Evict behind the window, keeping the refresh horizon when
    // auto-refresh needs to fold recent windows into a new baseline.
    Duration retain = Duration::zero();
    if (config_.refresh_after > 0) {
      retain = advance * static_cast<std::int64_t>(config_.refresh_after);
    }
    first_live_ += rows_before(live(), window_start_ - retain);
    if (first_live_ > buffer_.size() - first_live_) compact();
  }
  return verdicts;
}

CusumAccumulator StreamSentinel::make_accumulator(DriftKind kind) const {
  switch (kind) {
    case DriftKind::VertexAdded:
    case DriftKind::VertexRemoved:
    case DriftKind::EdgeAdded:
    case DriftKind::EdgeRemoved:
      // Presence indicator (0/1) with allowance 0.5: crosses after
      // structural_hits consecutive present windows, decays at the same
      // rate over absent ones.
      return CusumAccumulator(
          0.5, 0.5 * static_cast<double>(config_.structural_hits));
    case DriftKind::PeriodShift:
      return CusumAccumulator(
          kCusumReferenceFraction * config_.period_tolerance,
          config_.cusum_threshold_fraction * config_.period_tolerance);
    case DriftKind::LatencyEnvelope:
      return CusumAccumulator(
          kCusumReferenceFraction * config_.latency_tolerance,
          config_.cusum_threshold_fraction * config_.latency_tolerance);
    case DriftKind::ExecTimeShift:
      // E-detector: log e-values accumulate with no allowance, restarting
      // at zero. The level ln(1/alpha) keeps the mean run of clean windows
      // before a false alarm at 1/alpha or more; Ville's inequality does
      // not apply to a restarted statistic.
      return CusumAccumulator(0.0,
                              e_value_log_threshold(config_.evidence_alpha));
    case DriftKind::DeadlineViolation:
      break;  // alarms immediately, never accumulated
  }
  return CusumAccumulator(0.0, 1.0);
}

WindowVerdict StreamSentinel::evaluate_window(TimePoint begin, TimePoint end,
                                              const WindowAnalysis& analysis) {
  WindowVerdict verdict;
  verdict.index = window_index_;
  verdict.begin = begin;
  verdict.end = end;
  verdict.events = analysis.verdict.window_events;
  verdict.checks = analysis.verdict.checks;
  verdict.transient = analysis.verdict.findings;
  verdict.window_drifted = analysis.verdict.drifted;

  // Feed this window's observations into the sequential accumulators.
  std::set<AccumulatorKey> observed;
  for (const AxisObservation& obs : analysis.observations) {
    if (obs.kind == DriftKind::DeadlineViolation) {
      // Hard violations alarm immediately; there is nothing to
      // accumulate about an SLO breach.
      DriftFinding finding;
      finding.kind = obs.kind;
      finding.subject = obs.subject;
      finding.detail = obs.detail;
      finding.statistic = obs.value;
      finding.p_value = 0.0;
      finding.evidence = obs.value;
      finding.windows = 1;
      verdict.alarms.push_back(std::move(finding));
      continue;
    }
    const AccumulatorKey key{obs.kind, obs.subject};
    auto [it, inserted] =
        accumulators_.try_emplace(key, make_accumulator(obs.kind));
    CusumAccumulator& acc = it->second;
    if (obs.kind == DriftKind::ExecTimeShift) {
      if (obs.n_baseline < kSequentialMinSamples ||
          obs.n_window < kSequentialMinSamples) {
        continue;  // starved window: no evidence either way
      }
      acc.observe(std::log(p_to_e_value(obs.p_value, kMaxWindowEValue)));
    } else {
      acc.observe(obs.value);
    }
    observed.insert(key);
    if (!obs.detail.empty()) {
      last_details_[key] = obs.detail;
    } else if (obs.kind == DriftKind::ExecTimeShift) {
      last_details_[key] = "KS D = " + format_double(obs.value);
    }
  }
  // Structural accumulators decay over windows where the difference is
  // gone (the debounce half of the hysteresis); the delta axes re-observe
  // every window by construction, so only structural keys need this.
  for (auto& [key, acc] : accumulators_) {
    const bool structural = key.first == DriftKind::VertexAdded ||
                            key.first == DriftKind::VertexRemoved ||
                            key.first == DriftKind::EdgeAdded ||
                            key.first == DriftKind::EdgeRemoved;
    if (structural && observed.count(key) == 0) acc.observe(0.0);
  }

  // Emit an alarm for every accumulator over its budgeted level.
  for (const auto& [key, acc] : accumulators_) {
    if (!acc.crossed()) continue;
    DriftFinding finding;
    finding.kind = key.first;
    finding.subject = key.second;
    finding.statistic = acc.value();
    finding.evidence = acc.value();
    finding.windows = acc.observations();
    if (key.first == DriftKind::ExecTimeShift) {
      // exp(-evidence) restates the e-detector's evidence; it is neither a
      // per-window KS p-value nor anytime-valid (the detector restarts).
      finding.p_value = std::min(1.0, std::exp(-acc.value()));
    } else {
      finding.p_value = config_.evidence_alpha;
    }
    std::string detail = "sequential evidence crossed after " +
                         std::to_string(acc.observations()) +
                         " windows (S = " + format_double(acc.value()) +
                         ", threshold = " + format_double(acc.threshold()) +
                         ")";
    const auto detail_it = last_details_.find(key);
    if (detail_it != last_details_.end() && !detail_it->second.empty()) {
      detail += "; last window: " + detail_it->second;
    }
    finding.detail = std::move(detail);
    verdict.alarms.push_back(std::move(finding));
  }
  std::sort(verdict.alarms.begin(), verdict.alarms.end(),
            [](const DriftFinding& a, const DriftFinding& b) {
              return std::tie(a.kind, a.subject) < std::tie(b.kind, b.subject);
            });
  verdict.alarmed = !verdict.alarms.empty();
  // Localization explains findings; a clean window has nothing to
  // localize and must not render its residual evidence as a ranking.
  if (verdict.alarmed || verdict.window_drifted) {
    verdict.localization = localize();
  }

  // Refresh hysteresis: count consecutive clean-but-shifted windows. A
  // window under an active alarm never counts (the operator is already
  // paged; auto-refresh must not absorb alarmed drift), and a clean
  // window breaks the streak.
  if (verdict.alarmed || !verdict.window_drifted) {
    consecutive_shifted_ = 0;
  } else {
    ++consecutive_shifted_;
  }
  return verdict;
}

std::vector<AxisScore> StreamSentinel::localize() const {
  // Accumulators far from their threshold are noise (a clean stream's
  // e-process wobbles a little above zero); ranking them would render a
  // confident-looking localization out of nothing.
  constexpr double kMinFraction = 0.1;
  std::map<std::string, double> scores;
  for (const auto& [key, acc] : accumulators_) {
    if (acc.value() <= 0.0) continue;
    const double fraction =
        acc.threshold() > 0.0 ? std::min(1.0, acc.value() / acc.threshold())
                              : 1.0;
    if (fraction < kMinFraction) continue;
    for (const auto& [axis, weight] : axis_weights(key.first)) {
      scores[axis] += weight * fraction;
    }
  }
  double total = 0.0;
  for (const auto& [axis, score] : scores) total += score;
  std::vector<AxisScore> ranked;
  if (total <= 0.0) return ranked;
  for (const auto& [axis, score] : scores) {
    ranked.push_back(AxisScore{axis, score / total});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const AxisScore& a, const AxisScore& b) {
              return std::tie(b.score, a.axis) < std::tie(a.score, b.axis);
            });
  return ranked;
}

api::Error StreamSentinel::refresh_baseline_from_stream(TimePoint window_begin,
                                                        TimePoint window_end) {
  // Fold the union of the last refresh_after windows into the new
  // baseline: [begin - (K-1) * advance, end) is still buffered because
  // eviction retains the refresh horizon.
  const TimePoint fold_begin =
      window_begin -
      config_.window_advance *
          static_cast<std::int64_t>(config_.refresh_after - 1);
  trace::EventColumns fold = window_rows(fold_begin, window_end);
  engine_.reset_baseline();
  auto ingested = engine_.ingest_baseline(std::move(fold));
  if (!ingested.ok()) return ingested.error();
  const api::Error error = engine_.ensure_baseline();
  if (error.code != api::ErrorCode::None) return error;
  // The old evidence measured distance to the retired baseline.
  accumulators_.clear();
  last_details_.clear();
  consecutive_shifted_ = 0;
  ++refreshes_;
  StreamMetrics::get().refreshes.inc();
  return {};
}

}  // namespace tetra::sentinel
