// Drift verdict types shared by the one-shot (DriftEngine) and
// streaming (StreamSentinel) entry points, plus their byte-stable JSON
// renderings (schema documented in docs/SENTINEL.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/time.hpp"

namespace tetra::sentinel {

/// Version of the verdict JSON schema emitted by verdict_to_json and
/// window_verdict_to_json. Bumped whenever a field is added, removed or
/// changes meaning; consumers should reject versions they don't know.
inline constexpr std::uint64_t kVerdictSchemaVersion = 2;

/// One detected drift axis.
enum class DriftKind : std::uint8_t {
  VertexAdded,        ///< callback/junction in the window, not the baseline
  VertexRemoved,      ///< callback/junction in the baseline, not the window
  EdgeAdded,          ///< precedence relation only the window shows
  EdgeRemoved,        ///< precedence relation the window lost
  ExecTimeShift,      ///< execution-time distribution shifted (two-sample KS)
  PeriodShift,        ///< timer period moved beyond the tolerance
  LatencyEnvelope,    ///< chain latency left the baseline envelope
  DeadlineViolation,  ///< chain latency exceeded a configured deadline
};

std::string_view to_string(DriftKind kind);

struct DriftFinding {
  DriftKind kind = DriftKind::VertexAdded;
  /// What drifted: a vertex key, a callback label, "from -> to" for
  /// edges, or a chain's plain topic path joined with " -> ".
  std::string subject;
  std::string detail;  ///< human-readable explanation
  /// Axis-specific magnitude: KS statistic, relative period/latency
  /// delta, or deadline-miss fraction. 1.0 for structural findings. For
  /// sequential (streaming) findings: the accumulated CUSUM statistic.
  double statistic = 1.0;
  /// For a one-shot ExecTimeShift: the per-window KS p-value. For a
  /// sequential finding this is NOT a per-window p-value — it is
  /// exp(-evidence) for the exec-time e-detector (not anytime-valid: the
  /// detector restarts), and the configured alarm level
  /// (SentinelConfig::evidence_alpha) for the CUSUM axes. 0.0 where the
  /// change is certain (structural, deadline).
  double p_value = 0.0;
  /// Accumulated sequential evidence at emission time (CUSUM statistic,
  /// log e-value for the exec axis); 0.0 for one-shot findings.
  double evidence = 0.0;
  /// Windows of evidence behind a sequential finding; 0 for one-shot.
  std::uint64_t windows = 0;
};

/// Structured verdict of one window check. `drifted` is true iff any
/// finding fired; `checks` counts the statistical comparisons that ran
/// (sample-starved callbacks are skipped, not silently passed).
struct DriftVerdict {
  bool drifted = false;
  std::vector<DriftFinding> findings;  ///< sorted by (kind, subject)
  std::size_t checks = 0;

  std::size_t baseline_events = 0;
  std::size_t baseline_vertices = 0;
  std::size_t baseline_edges = 0;
  std::size_t window_events = 0;
  std::size_t window_vertices = 0;
  std::size_t window_edges = 0;
};

/// Compact single-object JSON rendering of a verdict. Deterministic for a
/// deterministic input trace.
std::string verdict_to_json(const DriftVerdict& verdict);

/// How well one ScenarioGenerator::mutate axis explains the accumulated
/// streaming evidence; scores are normalized to sum to 1 across axes.
struct AxisScore {
  std::string axis;  ///< "drop-edge", "add-edge", "retime-timer", ...
  double score = 0.0;
};

/// Verdict of one streaming window advance. `transient` holds the
/// per-window findings (one-shot thresholds — informational); `alarms`
/// holds the sequential findings whose accumulated evidence crossed the
/// budgeted level, plus any deadline violations (alarming immediately).
struct WindowVerdict {
  std::size_t index = 0;  ///< 0-based window number since stream start
  TimePoint begin;        ///< window [begin, end) in stream event time
  TimePoint end;
  std::size_t events = 0;  ///< events in the window slice
  std::size_t checks = 0;  ///< statistical comparisons run this window
  bool window_drifted = false;  ///< any transient finding
  bool alarmed = false;         ///< any sequential alarm active
  bool refreshed = false;       ///< BaselineRefreshed fired this window
  std::vector<DriftFinding> alarms;     ///< sorted by (kind, subject)
  std::vector<DriftFinding> transient;  ///< sorted by (kind, subject)
  std::vector<AxisScore> localization;  ///< sorted by score desc, axis asc
};

/// One-line JSON rendering of a streaming window verdict; byte-stable for
/// a deterministic stream (the CI determinism job diffs two runs).
std::string window_verdict_to_json(const WindowVerdict& verdict);

}  // namespace tetra::sentinel
