// DAG synthesis from per-node CBlists (paper §IV, "DAG synthesis"):
//
//  - every CBlist entry becomes a vertex; a service called by n callers
//    has n entries and therefore n vertices, keeping computation chains
//    disjoint (the paper's §VI point iv);
//  - an edge cbk' -> cbk is drawn when a published topic of cbk' equals
//    the subscribed topic of cbk — except that edges OUT of message-
//    synchronization members are rerouted through a zero-execution-time
//    AND-junction vertex (members -> & -> downstream subscribers);
//  - a vertex whose in-topic has multiple producers is marked as an OR
//    junction.
//
// Options exist to switch both special constructions off, reproducing the
// "wrong interpretation" baselines the paper argues against.
#pragma once

#include <vector>

#include "core/callback_record.hpp"
#include "core/dag.hpp"

namespace tetra::core {

struct DagOptions {
  /// n-caller services become n vertices (paper's proposal). When false, a
  /// service is a single vertex with n in/out edges — the incorrect model
  /// that creates spurious n x n chains.
  bool split_service_per_caller = true;

  /// Model m-way synchronization with an AND-junction vertex (paper's
  /// proposal). When false, sync members connect directly to downstream
  /// subscribers like ordinary callbacks.
  bool model_sync_with_and_junction = true;
};

/// Builds the DAG for one trace from normalized CBlists (labels assigned).
/// Lists must come from normalize_labels; throws std::logic_error if a
/// record lacks a label.
Dag build_dag(const std::vector<CallbackList>& lists,
              const DagOptions& options = {});

}  // namespace tetra::core
