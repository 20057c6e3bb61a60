// SentinelConfig: the one configuration shared by both sentinel entry
// points — the one-shot DriftEngine::analyze and the streaming
// StreamSentinel::feed. Per-window thresholds come first (they also gate
// the transient findings of every streaming window); the streaming
// window geometry and sequential-evidence knobs follow. Fixed parameters
// that no caller tunes are named constants.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "api/config.hpp"
#include "support/time.hpp"

namespace tetra::sentinel {

/// Chain enumeration guard of the baseline's chains (pathological DAGs).
inline constexpr std::size_t kMaxChains = 256;
/// With SentinelConfig::rebase_segments, each fed segment after the first
/// starts this long after the previous segment's last event.
inline constexpr Duration kRebaseGap = Duration::ms(1);
/// Minimum samples per side before a window's KS result feeds the
/// sequential exec-time accumulator (lower than min_samples: evidence
/// merely accumulates, it does not alarm by itself).
inline constexpr std::size_t kSequentialMinSamples = 4;
/// Clamp on one window's e-value contribution, so a single aberrant
/// window (or an optimistic small-sample p approximation) cannot carry an
/// alarm alone.
inline constexpr double kMaxWindowEValue = 20.0;
/// CUSUM allowance of the period/latency delta axes, as a fraction of the
/// matching per-window tolerance: each window's excess over
/// kCusumReferenceFraction * tolerance accumulates.
inline constexpr double kCusumReferenceFraction = 0.5;

struct SentinelConfig {
  // -- per-window thresholds ----------------------------------------------

  /// Significance level of the two-sample KS execution-time test. The
  /// default trades detection lag for a near-zero false-alarm rate over
  /// the hundreds of per-callback tests a long-running sentinel performs.
  /// Must lie in (0, 1).
  double alpha = 1e-4;
  /// Minimum samples per side before the KS test can produce a
  /// per-window finding; below this the asymptotic p-value is unreliable
  /// in both directions.
  std::size_t min_samples = 8;
  /// Relative timer-period change that counts as drift.
  double period_tolerance = 0.2;
  /// Relative mean chain-latency change that counts as drift.
  double latency_tolerance = 0.5;
  /// Optional per-chain deadlines, keyed by the chain's plain topic path
  /// joined with " -> " (the DriftFinding subject format). Any window
  /// instance above the deadline raises DeadlineViolation — immediately,
  /// even in streaming mode (a hard violation is not statistical).
  std::map<std::string, Duration> chain_deadlines;
  /// Synthesis pipeline configuration.
  api::SynthesisConfig synthesis;

  // -- streaming window geometry ------------------------------------------

  /// Event-time span of one sliding window. Must comfortably exceed the
  /// longest timer period in the system or every window looks
  /// structurally starved.
  Duration window_span = Duration::ms(1000);
  /// Event-time step between window starts; advance < span overlaps
  /// windows, advance == span tiles them. feed() rejects advance > span
  /// (events would be skipped) and non-positive values.
  Duration window_advance = Duration::ms(500);
  /// Rebase each fed segment to start kRebaseGap after the previous
  /// segment's last event. Required when following a directory of
  /// per-run segment files that each restart near t=0.
  bool rebase_segments = false;

  // -- sequential evidence ------------------------------------------------

  /// Alarm level of the sequential evidence: ln(1/evidence_alpha) for the
  /// exec-time e-detectors, beside the per-axis CUSUM thresholds. An
  /// e-detector restarts at zero, so this bounds the mean number of clean
  /// windows before one accumulator false-alarms (at least
  /// 1/evidence_alpha), not the chance of ever alarming; a monitor runs
  /// one accumulator per callback label (ROADMAP.md, item 1).
  double evidence_alpha = 1e-3;
  /// Consecutive windows a structural difference must persist before its
  /// alarm fires; debounces transient drops and window-boundary effects.
  std::size_t structural_hits = 2;
  /// CUSUM alarm threshold of the period/latency delta axes, as a
  /// fraction of the matching per-window tolerance: the alarm fires at
  /// cusum_threshold_fraction * tolerance of accumulated excess over the
  /// kCusumReferenceFraction allowance.
  double cusum_threshold_fraction = 2.0;

  // -- baseline auto-refresh ----------------------------------------------

  /// After this many consecutive clean-but-shifted windows (transient
  /// findings present, no sequential alarm active) the stream is folded
  /// into a new baseline and a BaselineRefreshed event is emitted. Keep
  /// it well above the typical alarm latency or a real drift can be
  /// absorbed before it alarms. 0 disables auto-refresh (default).
  std::size_t refresh_after = 0;
};

}  // namespace tetra::sentinel
