// The synthesized model, the option bundle the synthesis pipeline takes,
// and the pipeline itself: core::synthesize, a pure function of one trace
// index. api::SynthesisSession (api/session.hpp) drives it with segment
// ingestion, a worker pool and structured errors.
#pragma once

#include <string>
#include <vector>

#include "core/callback_record.hpp"
#include "core/dag.hpp"
#include "core/dag_builder.hpp"
#include "core/extract.hpp"
#include "trace/event.hpp"

namespace tetra::core {

/// The synthesized model of one trace (or one merged trace).
struct TimingModel {
  /// Per-node CBlists (normalized labels).
  std::vector<CallbackList> node_callbacks;
  /// The synthesized DAG, annotated with timing statistics.
  Dag dag;

  const CallbackRecord* find_callback(const std::string& label) const;
};

struct SynthesisOptions {
  DagOptions dag;
  ExtractOptions extract;
};

/// The model of everything `index` holds: Alg. 1 for every node (Alg. 2
/// inside), per-worker lists merged per node, labels normalized, then the
/// DAG. An index built from segments in any arrival order equals the
/// one-pass index of their merged trace, so the model does too.
TimingModel synthesize(const TraceIndex& index,
                       const SynthesisOptions& options = {});

}  // namespace tetra::core
