// The synthesized model and the option bundle the synthesis pipeline
// takes. The pipeline itself runs in core::IncrementalSynthesizer
// (core/incremental.hpp), driven through api::SynthesisSession
// (api/session.hpp): segment ingestion, a worker pool and structured
// errors.
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

}  // namespace tetra::core
