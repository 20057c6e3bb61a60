#include "trace/probe_id.hpp"

#include <optional>
#include <stdexcept>
#include <string>

namespace tetra::trace {

std::string_view to_string(ProbeId id) {
  switch (id) {
    case ProbeId::P1_RmwCreateNode: return "P1";
    case ProbeId::P2_ExecuteTimerEntry: return "P2";
    case ProbeId::P3_RclTimerCall: return "P3";
    case ProbeId::P4_ExecuteTimerExit: return "P4";
    case ProbeId::P5_ExecuteSubscriptionEntry: return "P5";
    case ProbeId::P6_RmwTakeInt: return "P6";
    case ProbeId::P7_MessageFilterOperator: return "P7";
    case ProbeId::P8_ExecuteSubscriptionExit: return "P8";
    case ProbeId::P9_ExecuteServiceEntry: return "P9";
    case ProbeId::P10_RmwTakeRequest: return "P10";
    case ProbeId::P11_ExecuteServiceExit: return "P11";
    case ProbeId::P12_ExecuteClientEntry: return "P12";
    case ProbeId::P13_RmwTakeResponse: return "P13";
    case ProbeId::P14_TakeTypeErasedResponse: return "P14";
    case ProbeId::P15_ExecuteClientExit: return "P15";
    case ProbeId::P16_DdsWriteImpl: return "P16";
    case ProbeId::SchedSwitch: return "sched_switch";
    case ProbeId::SchedWakeup: return "sched_wakeup";
  }
  return "?";
}

ProbeId probe_id_from_string(std::string_view name) {
  // Length and characters pick at most one candidate; to_string confirms it.
  std::optional<ProbeId> guess;
  if (name.size() == 12) {
    guess = name[6] == 's' ? ProbeId::SchedSwitch : ProbeId::SchedWakeup;
  } else if (name.size() == 2 || name.size() == 3) {
    const int n = name.size() == 2 ? name[1] - '0'
                                   : 10 * (name[1] - '0') + (name[2] - '0');
    if (n >= 1 && n <= 16) guess = static_cast<ProbeId>(n);
  }
  if (guess && to_string(*guess) == name) return *guess;
  throw std::invalid_argument("unknown probe id: " + std::string(name));
}

ProbeId probe_id_from_int(std::int64_t value) {
  if (value < static_cast<std::int64_t>(ProbeId::P1_RmwCreateNode) ||
      value > static_cast<std::int64_t>(ProbeId::SchedWakeup)) {
    throw std::invalid_argument("bad probe id: " + std::to_string(value));
  }
  return static_cast<ProbeId>(value);
}

}  // namespace tetra::trace
