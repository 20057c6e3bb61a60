// End-to-end latency measurement through source timestamps (paper §VII:
// "We are logging the source timestamp of data on publisher and subscriber
// sides using which we can traverse data flow through a computation chain
// and calculate its end-to-end latency").
//
// The InstanceTimeline reconstructs per-instance detail (which sample each
// callback instance consumed, which samples it wrote), then chains are
// traversed sample-by-sample: write on topic[0] -> consuming instance ->
// its write on topic[1] -> ... -> final consumer's end time.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/ids.hpp"
#include "support/statistics.hpp"
#include "support/time.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::analysis {

/// One observed callback execution with its data-flow endpoints.
struct CallbackInstance {
  Pid pid = kInvalidPid;
  CallbackId callback_id = kInvalidCallbackId;
  CallbackKind kind = CallbackKind::Timer;
  TimePoint start;
  TimePoint end;
  /// The (topic, srcTS) this instance consumed, if any.
  std::optional<std::pair<std::string, TimePoint>> take;
  /// The (topic, srcTS) samples this instance wrote.
  std::vector<std::pair<std::string, TimePoint>> writes;
};

class InstanceTimeline {
 public:
  /// Builds the timeline from a merged trace (ROS2 events only needed).
  /// Time-sorted rows are walked in place; unsorted ones through a sorted
  /// copy.
  explicit InstanceTimeline(const trace::ColumnsView& events);
  /// Packs heap events and builds the timeline from them.
  explicit InstanceTimeline(const trace::EventVector& events);

  /// Builds the timeline from already-assembled instances, plus writes
  /// that have no owning instance (untraced external inputs, whose
  /// DdsWrite events likewise carry no open callback in a real trace).
  /// The predict:: model replay records its activations as instances and
  /// hands them here, so predicted chain latencies are measured by
  /// exactly the same traversal code as substrate measurements.
  explicit InstanceTimeline(
      std::vector<CallbackInstance> instances,
      std::map<std::string, std::vector<TimePoint>> external_writes = {});

  const std::vector<CallbackInstance>& instances() const { return instances_; }

  /// Instances that consumed the sample identified by (topic, srcTS).
  std::vector<const CallbackInstance*> consumers_of(const std::string& topic,
                                                    TimePoint src_ts) const;

  /// Allocation-free form of consumers_of: indices into instances(), or
  /// nullptr when nobody consumed the sample. The chain-latency traversal
  /// sits on this lookup for every sample at every hop.
  const std::vector<std::size_t>* consumer_indices(const std::string& topic,
                                                   TimePoint src_ts) const;

  /// All source timestamps written on `topic`, in time order.
  const std::vector<TimePoint>& writes_on(const std::string& topic) const;

 private:
  using Key = std::pair<std::string, std::int64_t>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return std::hash<std::string>()(key.first) ^
             (static_cast<std::size_t>(key.second) * 0x9e3779b97f4a7c15ULL);
    }
  };
  std::vector<CallbackInstance> instances_;
  /// Hashed: consumers_of is the hot lookup of every chain traversal.
  std::unordered_map<Key, std::vector<std::size_t>, KeyHash> consumers_;
  std::map<std::string, std::vector<TimePoint>> writes_by_topic_;
  static const std::vector<TimePoint> kNoWrites;
};

struct ChainLatencyResult {
  /// End-to-end latencies (ns) of completed traversals.
  SampleSet latencies;
  std::size_t complete = 0;
  std::size_t incomplete = 0;

  Duration min() const { return Duration{static_cast<std::int64_t>(latencies.min())}; }
  Duration mean() const { return Duration{static_cast<std::int64_t>(latencies.mean())}; }
  Duration max() const { return Duration{static_cast<std::int64_t>(latencies.max())}; }
};

/// Measures end-to-end latency along a topic chain: for every sample
/// written on topics[0], follows consumption/production through each
/// subsequent topic and reports (final consumer end - first write time).
/// Traversals that die out (e.g. a sync member that was not the last to
/// arrive and therefore never published) count as incomplete.
ChainLatencyResult measure_chain_latency(const InstanceTimeline& timeline,
                                         const std::vector<std::string>& topics);

/// Per-callback waiting times (wakeup -> dispatch) aggregated from the
/// sched_wakeup extension (paper §VII): each instance waits from its
/// thread's last wakeup at or before its start; instances with no earlier
/// wakeup add no sample. Keyed by callback id.
std::map<CallbackId, SampleSet> measure_waiting_times(
    const trace::EventVector& events);

}  // namespace tetra::analysis
