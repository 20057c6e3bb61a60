// End-to-end latency measurement through source timestamps (paper §VII:
// "We are logging the source timestamp of data on publisher and subscriber
// sides using which we can traverse data flow through a computation chain
// and calculate its end-to-end latency").
//
// The InstanceTimeline reconstructs per-instance detail (which sample each
// callback instance consumed, which samples it wrote), then chains are
// traversed sample-by-sample: write on topic[0] -> consuming instance ->
// its write on topic[1] -> ... -> final consumer's end time.
//
// Topics are interned once into the timeline's own small table, so the
// walk and the traversal compare and hash integer ids, never strings.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/extract.hpp"
#include "support/ids.hpp"
#include "support/statistics.hpp"
#include "support/time.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::analysis {

/// A topic of one timeline: an index into its topic table
/// (InstanceTimeline::topic_name).
using TopicId = std::uint32_t;

/// One data sample, identified as the paper does by (topic, srcTS).
struct TopicSample {
  TopicId topic = 0;
  TimePoint src_ts;

  friend bool operator==(const TopicSample&, const TopicSample&) = default;
};

/// One observed callback execution with its data-flow endpoints. Topic ids
/// index the table of the timeline that holds the instance.
struct CallbackInstance {
  Pid pid = kInvalidPid;
  CallbackId callback_id = kInvalidCallbackId;
  CallbackKind kind = CallbackKind::Timer;
  TimePoint start;
  TimePoint end;
  /// The sample this instance consumed, if any.
  std::optional<TopicSample> take;
  /// The samples this instance wrote, in trace order, as a range of the
  /// timeline's flat write list: InstanceTimeline::writes_of.
  std::uint32_t first_write = 0;
  std::uint32_t write_count = 0;
};

/// Marks a write no instance made (an untraced external input).
inline constexpr std::uint32_t kNoInstance =
    std::numeric_limits<std::uint32_t>::max();

/// A sample written by instances[instance] of an instance list, or by
/// none (kNoInstance).
struct InstanceWrite {
  std::uint32_t instance = kNoInstance;
  TopicSample sample;
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

class InstanceTimeline {
 public:
  /// The id of a name no event of the timeline carries.
  static constexpr TopicId kNoTopic = std::numeric_limits<TopicId>::max();

  /// Builds the timeline from a merged trace (ROS2 events only needed).
  /// Time-sorted rows are walked in place; unsorted ones through a sorted
  /// copy.
  explicit InstanceTimeline(const trace::ColumnsView& events);
  /// Packs heap events and builds the timeline from them.
  explicit InstanceTimeline(const trace::EventVector& events);

  /// Builds the timeline from already-assembled instances (their write
  /// ranges are assigned here) and every write in the order it was made,
  /// each naming the instance that made it or none (untraced external
  /// inputs, whose DdsWrite events likewise carry no open callback in a
  /// real trace). Topic ids index `topics`, which is interned like a
  /// trace's names, so the timeline's ids may differ from the caller's.
  /// The predict:: model replay records its activations here, so
  /// predicted chain latencies are measured by exactly the same traversal
  /// code as substrate measurements.
  InstanceTimeline(const std::vector<std::string>& topics,
                   std::vector<CallbackInstance> instances,
                   const std::vector<InstanceWrite>& writes);

  const std::vector<CallbackInstance>& instances() const { return instances_; }
  /// The samples `instance` (one of instances()) wrote, in trace order.
  std::span<const TopicSample> writes_of(const CallbackInstance& instance) const {
    return std::span<const TopicSample>(writes_).subspan(instance.first_write,
                                                         instance.write_count);
  }

  /// The name of one of this timeline's topic ids.
  const std::string& topic_name(TopicId topic) const { return topics_.at(topic); }
  /// The id of `name`, or kNoTopic when no event of the timeline names it.
  TopicId topic_id(std::string_view name) const;

  /// Instances that consumed the sample identified by (topic, srcTS), in
  /// instance order.
  std::vector<const CallbackInstance*> consumers_of(std::string_view topic,
                                                    TimePoint src_ts) const;

  /// All source timestamps written on `topic`, in time order.
  std::span<const TimePoint> writes_on(std::string_view topic) const;
  std::span<const TimePoint> writes_on(TopicId topic) const;

 private:
  friend ChainLatencyResult measure_chain_latency(
      const InstanceTimeline& timeline, const std::vector<std::string>& topics);

  /// The consumers of one sample: the first and last instance of a list
  /// threaded through next_consumer_. An entry whose `first` is
  /// kNoInstance is free.
  struct Consumers {
    core::TopicTsKey sample;
    std::uint32_t first = kNoInstance;
    std::uint32_t last = kNoInstance;
  };

  TopicId intern(std::string_view name);
  /// Sizes the consumer table for `samples` taken samples.
  void size_consumers(std::size_t samples);
  /// The table entry of `sample`: its own, or the free one it would take.
  std::size_t consumer_slot(const core::TopicTsKey& sample) const;
  /// Appends instance `index` to the consumers of the sample it took.
  void link_consumer(std::size_t index);
  /// First consumer of (topic, src_ts), or kNoInstance.
  std::uint32_t first_consumer(TopicId topic, TimePoint src_ts) const;
  /// Groups every write, given in trace order, by topic.
  void index_writes(const std::vector<TopicSample>& writes);
  /// Follows one sample written on chain[depth] to the deepest consumer
  /// end time: the chain's completion time for this sample, if the whole
  /// remaining topic sequence is traversed.
  std::optional<TimePoint> follow(const std::vector<TopicId>& chain,
                                  std::size_t depth, TimePoint src_ts) const;

  struct NameHash : std::hash<std::string_view> {
    using is_transparent = void;  // find() by string_view, no copy
  };
  std::vector<std::string> topics_;
  std::unordered_map<std::string, TopicId, NameHash, std::equal_to<>>
      topic_ids_;
  std::vector<CallbackInstance> instances_;
  /// Every instance's writes, grouped by instance.
  std::vector<TopicSample> writes_;
  /// Hashed by sample, the hot lookup of every chain traversal: open
  /// addressing over a power-of-two table at most half full, sized once
  /// from the number of takes, so no sample costs an allocation.
  std::vector<Consumers> consumers_;
  int consumer_shift_ = 63;
  /// Per instance: the next instance that took the same sample.
  std::vector<std::uint32_t> next_consumer_;
  /// Every written source timestamp, grouped by topic: topic t's writes
  /// are [write_offsets_[t], write_offsets_[t + 1]).
  std::vector<TimePoint> write_times_;
  std::vector<std::uint32_t> write_offsets_;
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
