#include "trace/event.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace tetra::trace {

std::string_view to_string(EventType t) {
  switch (t) {
    case EventType::RmwCreateNode: return "rmw_create_node";
    case EventType::CallbackStart: return "cb_start";
    case EventType::TimerCall: return "timer_call";
    case EventType::Take: return "take";
    case EventType::TakeTypeErased: return "take_type_erased";
    case EventType::SyncOperator: return "sync_operator";
    case EventType::CallbackEnd: return "cb_end";
    case EventType::DdsWrite: return "dds_write";
    case EventType::SchedSwitch: return "sched_switch";
    case EventType::SchedWakeup: return "sched_wakeup";
  }
  return "?";
}

EventType event_type_from_string(std::string_view name) {
  // Length (and one letter for the two 12-character names) picks at most
  // one candidate; to_string confirms it.
  std::optional<EventType> guess;
  switch (name.size()) {
    case 4: guess = EventType::Take; break;
    case 6: guess = EventType::CallbackEnd; break;
    case 8: guess = EventType::CallbackStart; break;
    case 9: guess = EventType::DdsWrite; break;
    case 10: guess = EventType::TimerCall; break;
    case 12:
      guess = name[6] == 's' ? EventType::SchedSwitch : EventType::SchedWakeup;
      break;
    case 13: guess = EventType::SyncOperator; break;
    case 15: guess = EventType::RmwCreateNode; break;
    case 16: guess = EventType::TakeTypeErased; break;
  }
  if (guess && to_string(*guess) == name) return *guess;
  throw std::invalid_argument("unknown event type: " + std::string(name));
}

EventType event_type_from_int(std::int64_t value) {
  if (value < 0 || value > static_cast<std::int64_t>(EventType::SchedWakeup)) {
    throw std::invalid_argument("bad event type: " + std::to_string(value));
  }
  return static_cast<EventType>(value);
}

TakeKind take_kind_from_int(std::int64_t value) {
  switch (value) {
    case 0: return TakeKind::Data;
    case 1: return TakeKind::Request;
    case 2: return TakeKind::Response;
    default:
      throw std::invalid_argument("bad take_kind: " + std::to_string(value));
  }
}

ThreadRunState thread_run_state_from_char(char state) {
  switch (state) {
    case 'R': return ThreadRunState::Runnable;
    case 'S': return ThreadRunState::Sleeping;
    case 'D': return ThreadRunState::DiskSleep;
    case 'X': return ThreadRunState::Dead;
    default:
      throw std::invalid_argument(std::string("bad prev_state: '") + state +
                                  "' (expected R, S, D or X)");
  }
}

CallbackKind callback_kind_from_int(std::int64_t value) {
  if (value < 0 || value > static_cast<std::int64_t>(CallbackKind::Client)) {
    throw std::invalid_argument("bad callback kind: " + std::to_string(value));
  }
  return static_cast<CallbackKind>(value);
}

TraceEvent make_node_event(TimePoint t, Pid pid, std::string node_name) {
  return TraceEvent{t, pid, ProbeId::P1_RmwCreateNode, EventType::RmwCreateNode,
                    NodeInfo{std::move(node_name)}};
}

TraceEvent make_callback_start(TimePoint t, Pid pid, CallbackKind kind) {
  return TraceEvent{t, pid, start_probe_for(kind), EventType::CallbackStart,
                    CallbackPhaseInfo{kind}};
}

TraceEvent make_callback_end(TimePoint t, Pid pid, CallbackKind kind) {
  return TraceEvent{t, pid, end_probe_for(kind), EventType::CallbackEnd,
                    CallbackPhaseInfo{kind}};
}

TraceEvent make_timer_call(TimePoint t, Pid pid, CallbackId id) {
  return TraceEvent{t, pid, ProbeId::P3_RclTimerCall, EventType::TimerCall,
                    TimerCallInfo{id}};
}

TraceEvent make_take(TimePoint t, Pid pid, TakeKind kind, CallbackId id,
                     std::string topic, TimePoint src_ts) {
  ProbeId probe = ProbeId::P6_RmwTakeInt;
  if (kind == TakeKind::Request) probe = ProbeId::P10_RmwTakeRequest;
  if (kind == TakeKind::Response) probe = ProbeId::P13_RmwTakeResponse;
  return TraceEvent{t, pid, probe, EventType::Take,
                    TakeInfo{kind, id, std::move(topic), src_ts}};
}

TraceEvent make_take_type_erased(TimePoint t, Pid pid, bool will_dispatch) {
  return TraceEvent{t, pid, ProbeId::P14_TakeTypeErasedResponse,
                    EventType::TakeTypeErased, TakeTypeErasedInfo{will_dispatch}};
}

TraceEvent make_sync_operator(TimePoint t, Pid pid, CallbackId id) {
  return TraceEvent{t, pid, ProbeId::P7_MessageFilterOperator,
                    EventType::SyncOperator, SyncOperatorInfo{id}};
}

TraceEvent make_dds_write(TimePoint t, Pid pid, std::string topic,
                          TimePoint src_ts) {
  return TraceEvent{t, pid, ProbeId::P16_DdsWriteImpl, EventType::DdsWrite,
                    DdsWriteInfo{std::move(topic), src_ts}};
}

TraceEvent make_sched_switch(TimePoint t, SchedSwitchInfo info) {
  return TraceEvent{t, info.prev_pid, ProbeId::SchedSwitch,
                    EventType::SchedSwitch, info};
}

TraceEvent make_sched_wakeup(TimePoint t, SchedWakeupInfo info) {
  return TraceEvent{t, info.woken_pid, ProbeId::SchedWakeup,
                    EventType::SchedWakeup, info};
}

ProbeId start_probe_for(CallbackKind kind) {
  switch (kind) {
    case CallbackKind::Timer: return ProbeId::P2_ExecuteTimerEntry;
    case CallbackKind::Subscription: return ProbeId::P5_ExecuteSubscriptionEntry;
    case CallbackKind::Service: return ProbeId::P9_ExecuteServiceEntry;
    case CallbackKind::Client: return ProbeId::P12_ExecuteClientEntry;
  }
  throw std::logic_error("bad callback kind");
}

ProbeId end_probe_for(CallbackKind kind) {
  switch (kind) {
    case CallbackKind::Timer: return ProbeId::P4_ExecuteTimerExit;
    case CallbackKind::Subscription: return ProbeId::P8_ExecuteSubscriptionExit;
    case CallbackKind::Service: return ProbeId::P11_ExecuteServiceExit;
    case CallbackKind::Client: return ProbeId::P15_ExecuteClientExit;
  }
  throw std::logic_error("bad callback kind");
}

CallbackKind kind_for_phase_probe(ProbeId id) {
  switch (id) {
    case ProbeId::P2_ExecuteTimerEntry:
    case ProbeId::P4_ExecuteTimerExit:
      return CallbackKind::Timer;
    case ProbeId::P5_ExecuteSubscriptionEntry:
    case ProbeId::P8_ExecuteSubscriptionExit:
      return CallbackKind::Subscription;
    case ProbeId::P9_ExecuteServiceEntry:
    case ProbeId::P11_ExecuteServiceExit:
      return CallbackKind::Service;
    case ProbeId::P12_ExecuteClientEntry:
    case ProbeId::P15_ExecuteClientExit:
      return CallbackKind::Client;
    default:
      throw std::invalid_argument("probe is not a callback phase probe");
  }
}

bool is_time_sorted(const EventVector& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time < events[i - 1].time) return false;
  }
  return true;
}

void sort_by_time(EventVector& events) {
  if (is_time_sorted(events)) return;
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
}

std::size_t approximate_record_size(const TraceEvent& event) {
  // Fixed header: timestamp (8) + pid (4) + probe (1) + type (1).
  std::size_t size = 14;
  if (const auto* node = std::get_if<NodeInfo>(&event.payload)) {
    size += node->node_name.size() + 1;
  } else if (std::holds_alternative<CallbackPhaseInfo>(event.payload)) {
    size += 1;
  } else if (std::holds_alternative<TimerCallInfo>(event.payload)) {
    size += 8;
  } else if (const auto* take = std::get_if<TakeInfo>(&event.payload)) {
    size += 1 + 8 + take->topic.size() + 1 + 8;
  } else if (std::holds_alternative<TakeTypeErasedInfo>(event.payload)) {
    size += 1;
  } else if (std::holds_alternative<SyncOperatorInfo>(event.payload)) {
    size += 8;
  } else if (const auto* write = std::get_if<DdsWriteInfo>(&event.payload)) {
    size += write->topic.size() + 1 + 8;
  } else if (std::holds_alternative<SchedSwitchInfo>(event.payload)) {
    size += 4 + 4 + 4 + 1 + 4 + 4;
  } else if (std::holds_alternative<SchedWakeupInfo>(event.payload)) {
    size += 4 + 4;
  }
  return size;
}

}  // namespace tetra::trace
