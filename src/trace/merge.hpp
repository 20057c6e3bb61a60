// Trace merging (Fig. 2): traces collected in segments and across runs can
// be merged into one chronologically ordered stream before model synthesis
// (deployment option i), or kept separate with DAG-level merging
// (option ii). Both are supported; this header implements the trace side.
#pragma once

#include <vector>

#include "trace/event.hpp"

namespace tetra::trace {

/// K-way merges already-time-sorted traces into one sorted stream.
/// Ties keep the input order (earlier vector first) for determinism.
EventVector merge_sorted(const std::vector<EventVector>& traces);

}  // namespace tetra::trace
