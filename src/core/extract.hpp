// Algorithm 1 (paper §IV): extracting every callback of a ROS2 node and
// its architectural + timing attributes from the merged event trace.
//
// The extraction walks the node's ROS2 events chronologically. Because the
// node uses a single-threaded executor, everything between a CB-start
// event and the next CB-end event describes one callback instance. Service
// request/response topics are annotated with caller/client identities via
// the FindCaller/FindClient trace searches, so that multi-client services
// later split into per-caller DAG vertices.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/callback_record.hpp"
#include "core/exec_time.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::core {

struct ExtractOptions {
  /// Tracer-overhead compensation (src/overhead/): when positive, each
  /// instance's execution time is reduced by this per-probe-hit cost times
  /// the number of probe executions inside its [start, end] window
  /// (clamped at zero). Zero keeps measurements as-is.
  Duration compensate_per_hit = Duration::zero();
};

/// Topic-name suffix conventions by which Alg. 1 classifies dds_write
/// events as service requests/responses (mirrors the rq/…Request and
/// rr/…Reply naming of rmw implementations). The core module re-declares
/// them to stay independent of the middleware substrate.
const char* ros2_request_suffix();
const char* ros2_reply_suffix();
bool is_service_request_topic(std::string_view topic);
bool is_service_reply_topic(std::string_view topic);

/// Lookup key of the (topic, source-timestamp) matching searches. The
/// topic is its string-table id in the owning TraceIndex, so keys compare
/// only within one index.
struct TopicTsKey {
  std::uint32_t topic = 0;
  std::int64_t src_ts = 0;

  friend bool operator==(const TopicTsKey&, const TopicTsKey&) = default;
};

/// Hash of a TopicTsKey for the index's hash maps.
struct TopicTsKeyHash {
  std::size_t operator()(const TopicTsKey& key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key.src_ts) * 0x9E3779B97F4A7C15ull) ^
        key.topic);
  }
};

/// Pre-built indices over one trace, shared by per-node extractions and by
/// the caller/client resolution searches.
///
/// Storage is columnar (trace::EventColumns) and append-only: segments are
/// appended in arrival order and every per-pid / per-key index keeps its
/// entries sorted by (time, append-sequence). That order is exactly the
/// k-way-merge order of the segments (ties resolve to the earlier-ingested
/// segment, which always has the smaller sequence number), so an index
/// grown by appends is indistinguishable from one built over the fully
/// merged trace, and a model synthesized from it equals the one-pass
/// model whatever order the segments arrived in.
///
/// Everything indexed for one pid lives in one slot, found through a hash
/// map: its ROS2 and P14 rows for Alg. 1, and the sched_switch and
/// sched_wakeup lists Alg. 2 and the waiting times read. The (topic,
/// src_ts) lookups are hash maps keyed by interned topic ids. Neither is
/// ever iterated where the order could reach output: nodes() stays
/// pid-ordered.
class TraceIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  TraceIndex() = default;

  /// Indexes a whole trace at once; copies + sorts when unsorted.
  explicit TraceIndex(const trace::EventVector& events);

  /// Appends one time-sorted segment (throws std::invalid_argument when
  /// unsorted).
  void append(const trace::EventVector& sorted_segment);

  /// Same, straight from columnar storage (e.g. a mapped .ttb file).
  void append(const trace::ColumnsView& view);

  /// Same for an owned segment: an empty index adopts its columns whole,
  /// a non-empty one copies them in.
  void append(trace::EventColumns&& segment);

  /// Number of indexed events. Sequence numbers are [0, size()).
  std::size_t size() const { return columns_.size(); }

  /// Raw columnar view of the indexed events, in append order.
  trace::ColumnsView view() const { return columns_.view(); }

  /// Decodes one event (tests, diagnostics — not the hot path).
  trace::TraceEvent event_at(std::size_t seq) const;

  /// Sequences of ROS2 events of `pid`, chronological ((time, seq) order).
  const std::vector<std::size_t>& ros_events_of(Pid pid) const;

  /// The sched_switch events that moved `pid` on or off a CPU, sorted by
  /// time (ties in row order) — Alg. 2's input for exec_time().
  const std::vector<CpuSwitch>& switches_of(Pid pid) const;

  /// The times of `pid`'s sched_wakeup events, sorted.
  const std::vector<TimePoint>& wakeups_of(Pid pid) const;

  /// Node name per PID from P1 events; empty map entry when unknown.
  const std::map<Pid, std::string>& nodes() const { return nodes_; }

  /// Sequence of the dds_write matching the key, or npos. When several
  /// match, the chronologically first one wins.
  std::size_t find_write(const TopicTsKey& key) const;
  /// Same by topic name; npos when the trace never names the topic.
  std::size_t find_write(const std::string& topic, TimePoint src_ts) const;

  /// All take-response (P13) sequences matching the key, chronological.
  const std::vector<std::size_t>& find_take_responses(
      const TopicTsKey& key) const;
  /// Same by topic name; empty when the trace never names the topic.
  const std::vector<std::size_t>& find_take_responses(const std::string& topic,
                                                      TimePoint src_ts) const;

  /// The chronologically next P14 event of `pid` strictly after sequence
  /// `after` (in (time, seq) order), or npos.
  std::size_t next_take_type_erased_after(Pid pid, std::size_t after) const;

 private:
  /// Everything indexed for one pid.
  struct PidSlot {
    std::vector<std::size_t> ros;  ///< all ROS2 events, (time, seq) order
    std::vector<std::size_t> p14;  ///< TakeTypeErased events, same order
    std::vector<CpuSwitch> switches;  ///< by time, ties in row order
    std::vector<TimePoint> wakeups;   ///< sorted
    /// (time, seq) of the P1 event currently naming the pid; appends only
    /// replace a name when the newcomer is chronologically no earlier.
    std::int64_t node_time = 0;
    std::size_t node_seq = npos;
    /// The append that last grew the lists, and their sizes before it.
    std::uint64_t batch = 0;
    std::size_t ros_mark = 0;
    std::size_t p14_mark = 0;
    std::size_t switches_mark = 0;
    std::size_t wakeups_mark = 0;
  };
  struct ResponseList {
    std::vector<std::size_t> seqs;  ///< (time, seq) order
    std::uint64_t batch = 0;
    std::size_t mark = 0;
  };

  void index_rows(std::size_t base);
  const PidSlot* find_slot(Pid pid) const;

  trace::EventColumns columns_;
  std::unordered_map<Pid, PidSlot> slots_;
  std::unordered_map<TopicTsKey, std::size_t, TopicTsKeyHash> writes_;
  std::unordered_map<TopicTsKey, ResponseList, TopicTsKeyHash>
      take_responses_;
  std::map<Pid, std::string> nodes_;
  std::uint64_t batch_ = 0;
  static const std::vector<std::size_t> kEmpty;
};

/// FindCaller (Alg. 1, line 13): resolves which callback issued the
/// service request that the take_request event at `take_seq` consumed.
/// Returns kInvalidCallbackId when unresolvable. Costs one hash lookup,
/// one binary search in the writer's stream and a walk back over the
/// writing callback's events.
CallbackId find_caller(const TraceIndex& index, std::size_t take_seq);

/// FindClient (Alg. 1, line 20): resolves which client callback a service
/// response dds_write is dispatched to. Returns kInvalidCallbackId when
/// unresolvable.
CallbackId find_client(const TraceIndex& index, std::size_t write_seq);

/// Runs Algorithm 1 for one node. `pid` must be a node discovered via P1.
CallbackList extract_callbacks(const TraceIndex& index, Pid pid,
                               const ExtractOptions& options = {});

/// Convenience: extraction for every node discovered in the trace.
std::vector<CallbackList> extract_all_nodes(const TraceIndex& index,
                                            const ExtractOptions& options = {});

/// Merges per-worker-PID CBlists of one node into a single per-node list.
/// A multi-threaded executor fires P1 once per worker, so Algorithm 1
/// yields one (strictly sequential) list per worker PID; callbacks that
/// migrated between workers are re-unified here via the Alg. 1 matching
/// rule (same id; services also same annotated in-topic), with their
/// instances re-sorted chronologically. Single-threaded nodes pass
/// through untouched. Must run before normalize_labels (ordinals count
/// callbacks per node, not per worker).
void merge_worker_lists(std::vector<CallbackList>& lists);

/// Post-extraction normalization: assigns stable labels
/// ("<node>/<kind><ordinal>", ordinals by callback-id order within the
/// node) and rewrites topic annotations from run-specific raw callback ids
/// to those labels. Required before cross-run DAG merging, since raw ids
/// are pseudo-addresses that change run to run.
void normalize_labels(std::vector<CallbackList>& lists);

}  // namespace tetra::core
