// Trace event records. Each record mirrors what the eBPF programs of the
// paper can observe at their probe site: a timestamp, the PID the event is
// attributed to, the probe name, and a probe-specific payload.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "support/ids.hpp"
#include "support/time.hpp"
#include "trace/probe_id.hpp"

namespace tetra::trace {

/// High-level classification used by Algorithm 1's dispatch.
enum class EventType : std::uint8_t {
  RmwCreateNode,    ///< P1
  CallbackStart,    ///< P2/P5/P9/P12
  TimerCall,        ///< P3
  Take,             ///< P6/P10/P13
  TakeTypeErased,   ///< P14
  SyncOperator,     ///< P7
  CallbackEnd,      ///< P4/P8/P11/P15
  DdsWrite,         ///< P16
  SchedSwitch,
  SchedWakeup,
};

std::string_view to_string(EventType t);
EventType event_type_from_string(std::string_view name);

/// What flavour of rmw_take produced a Take event.
enum class TakeKind : std::uint8_t {
  Data,      ///< rmw_take (with message info) — subscription data
  Request,   ///< rmw_take_request — service side
  Response,  ///< rmw_take_response — client side
};

/// Payloads ---------------------------------------------------------------

struct NodeInfo {
  std::string node_name;
  bool operator==(const NodeInfo&) const = default;
};

struct CallbackPhaseInfo {
  CallbackKind kind = CallbackKind::Timer;
  bool operator==(const CallbackPhaseInfo&) const = default;
};

struct TimerCallInfo {
  CallbackId callback_id = kInvalidCallbackId;
  bool operator==(const TimerCallInfo&) const = default;
};

struct TakeInfo {
  TakeKind kind = TakeKind::Data;
  CallbackId callback_id = kInvalidCallbackId;
  std::string topic;      ///< topic name, or service topic (…Request/…Reply)
  TimePoint src_ts;       ///< source timestamp read via the entry/exit stash
  bool operator==(const TakeInfo&) const = default;
};

struct TakeTypeErasedInfo {
  bool will_dispatch = false;  ///< return value of take_type_erased_response
  bool operator==(const TakeTypeErasedInfo&) const = default;
};

struct SyncOperatorInfo {
  CallbackId callback_id = kInvalidCallbackId;
  bool operator==(const SyncOperatorInfo&) const = default;
};

struct DdsWriteInfo {
  std::string topic;
  TimePoint src_ts;
  bool operator==(const DdsWriteInfo&) const = default;
};

/// Thread states reported by sched_switch for the previous thread, using
/// the kernel's single-letter convention.
enum class ThreadRunState : char {
  Runnable = 'R',       ///< preempted while still runnable
  Sleeping = 'S',       ///< voluntarily blocked (interruptible)
  DiskSleep = 'D',      ///< uninterruptible wait
  Dead = 'X',
};

struct SchedSwitchInfo {
  CpuId cpu = kInvalidCpu;
  Pid prev_pid = kInvalidPid;
  int prev_prio = 0;
  ThreadRunState prev_state = ThreadRunState::Runnable;
  Pid next_pid = kInvalidPid;
  int next_prio = 0;
  bool operator==(const SchedSwitchInfo&) const = default;
};

struct SchedWakeupInfo {
  Pid woken_pid = kInvalidPid;
  CpuId target_cpu = kInvalidCpu;
  bool operator==(const SchedWakeupInfo&) const = default;
};

/// Validating decoders for enum-bearing fields arriving from external
/// input (JSONL lines, .ttb records). Out-of-range values raise
/// std::invalid_argument instead of being static_cast into garbage.
EventType event_type_from_int(std::int64_t value);
TakeKind take_kind_from_int(std::int64_t value);
ThreadRunState thread_run_state_from_char(char state);
CallbackKind callback_kind_from_int(std::int64_t value);

using EventPayload =
    std::variant<NodeInfo, CallbackPhaseInfo, TimerCallInfo, TakeInfo,
                 TakeTypeErasedInfo, SyncOperatorInfo, DdsWriteInfo,
                 SchedSwitchInfo, SchedWakeupInfo>;

/// One trace record. `pid` is the process the event belongs to: the probed
/// process for uprobes, and the CPU's previous-thread owner process for
/// sched events (sched payloads carry both pids explicitly).
struct TraceEvent {
  TimePoint time;
  Pid pid = kInvalidPid;
  ProbeId probe = ProbeId::P1_RmwCreateNode;
  EventType type = EventType::RmwCreateNode;
  EventPayload payload;

  template <typename T>
  const T& as() const {
    return std::get<T>(payload);
  }
  template <typename T>
  bool is() const {
    return std::holds_alternative<T>(payload);
  }

  bool operator==(const TraceEvent&) const = default;
};

/// Convenience constructors -----------------------------------------------

TraceEvent make_node_event(TimePoint t, Pid pid, std::string node_name);
TraceEvent make_callback_start(TimePoint t, Pid pid, CallbackKind kind);
TraceEvent make_callback_end(TimePoint t, Pid pid, CallbackKind kind);
TraceEvent make_timer_call(TimePoint t, Pid pid, CallbackId id);
TraceEvent make_take(TimePoint t, Pid pid, TakeKind kind, CallbackId id,
                     std::string topic, TimePoint src_ts);
TraceEvent make_take_type_erased(TimePoint t, Pid pid, bool will_dispatch);
TraceEvent make_sync_operator(TimePoint t, Pid pid, CallbackId id);
TraceEvent make_dds_write(TimePoint t, Pid pid, std::string topic,
                          TimePoint src_ts);
TraceEvent make_sched_switch(TimePoint t, SchedSwitchInfo info);
TraceEvent make_sched_wakeup(TimePoint t, SchedWakeupInfo info);

/// Probe/phase mapping helpers used both by the tracer and by Algorithm 1.
ProbeId start_probe_for(CallbackKind kind);
ProbeId end_probe_for(CallbackKind kind);
CallbackKind kind_for_phase_probe(ProbeId id);

/// A flat, time-sorted collection of events (one tracer's output, or a
/// merged view). Kept simple on purpose: analysis passes index into it.
using EventVector = std::vector<TraceEvent>;

/// True when `events` is non-decreasing in time.
bool is_time_sorted(const EventVector& events);

/// Stable sort by (time, original order). Already time-sorted input is
/// left as is after one O(n) check, since a stable sort would not move it.
void sort_by_time(EventVector& events);

/// Approximate serialized size in bytes of one event record, used for the
/// trace-footprint accounting the paper reports (9 MB / 60 s).
std::size_t approximate_record_size(const TraceEvent& event);

}  // namespace tetra::trace
