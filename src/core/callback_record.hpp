// CBlist entries: the per-callback architectural and timing attributes
// Algorithm 1 extracts from the traces (paper §IV).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/ids.hpp"
#include "support/statistics.hpp"
#include "support/time.hpp"

namespace tetra::core {

/// Separator used when a callback id is concatenated to a topic name to
/// disambiguate per-caller service requests and per-client responses
/// (Alg. 1's cat(topic, id)).
inline constexpr char kTopicAnnotationSeparator = '#';

/// Annotation value used when FindCaller/FindClient cannot resolve an id
/// (e.g. the counterpart event fell outside the trace window).
inline constexpr const char* kUnknownAnnotation = "?";

/// Builds an annotated topic name ("/sv3Request#0x56...").
std::string annotate_topic(const std::string& topic, const std::string& suffix);

/// Splits an annotated topic into (plain topic, suffix); the suffix is
/// empty when the topic carries no annotation.
std::pair<std::string, std::string> split_annotated_topic(const std::string& topic);

/// One entry of a CBlist. A service invoked by n distinct callers yields n
/// entries (same id, different annotated in_topic) — Alg. 1's matching
/// rule — which is what later makes the DAG grow n service vertices.
struct CallbackRecord {
  CallbackKind kind = CallbackKind::Timer;
  CallbackId id = kInvalidCallbackId;
  Pid pid = kInvalidPid;
  std::string node_name;

  /// Subscribed topic; annotated for services (caller id) and clients
  /// (own id). Empty for timers.
  std::string in_topic;
  /// Published topics; annotated for requests (own id) and responses
  /// (client id). Order = first-publication order, no duplicates.
  std::vector<std::string> out_topics;

  bool is_sync_subscriber = false;

  /// Stable cross-run label assigned by normalize_labels
  /// ("<node>/<T|SC|SV|CL><ordinal>"); empty until normalization.
  std::string label;

  // Per-instance measurements -----------------------------------------------
  std::vector<TimePoint> start_times;
  /// Wall-clock instance ends (start + response time, preemption
  /// included), parallel to start_times. Concurrency inference reads the
  /// [start, end) intervals to learn per-group serialization.
  std::vector<TimePoint> end_times;
  std::vector<Duration> exec_times;

  /// Aggregated execution-time statistics (mBCET/mACET/mWCET).
  ExecStats stats;

  /// Adds one measured instance. `end` defaults to start + exec_time
  /// (uncontended execution).
  void add_instance(TimePoint start, Duration exec_time,
                    std::optional<TimePoint> end = std::nullopt);

  /// Merges another record of the same callback (same id / matching rule)
  /// observed on a different executor worker: instances re-sorted by
  /// start time, out-topics unioned, statistics merged.
  void merge_from(const CallbackRecord& other);

  /// Adds an out topic if not yet present.
  void add_out_topic(const std::string& topic);

  std::size_t instances() const { return exec_times.size(); }

  /// For timer callbacks: the median difference between consecutive start
  /// times approximates the period (paper §IV). nullopt with <2 starts.
  std::optional<Duration> estimated_period() const;
};

/// All callbacks of one ROS2 node, in discovery order.
struct CallbackList {
  Pid pid = kInvalidPid;
  std::string node_name;
  std::vector<CallbackRecord> records;

  /// Alg. 1's AddToCallback matching: same id (and, for services, same
  /// annotated in_topic) => same entry. Returns the matched record, or a
  /// new one holding only the given identity fields (no instances).
  CallbackRecord& match_or_insert(CallbackKind kind, CallbackId id, Pid pid,
                                  const std::string& node_name,
                                  std::string_view in_topic);
  /// Same, with the identity fields taken from `instance`.
  CallbackRecord& match_or_insert(const CallbackRecord& instance);

  const CallbackRecord* find_by_label(const std::string& label) const;
  std::size_t total_instances() const;
};

}  // namespace tetra::core
