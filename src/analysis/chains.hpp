// Chain enumeration over the synthesized DAG. Computation chains (source
// to sink paths) are the unit of end-to-end timing analysis in the ROS2
// literature the paper targets ([1]-[5]); the service-vertex splitting
// exists precisely to keep these chains correct.
#pragma once

#include <string>
#include <vector>

#include "core/dag.hpp"

namespace tetra::analysis {

/// One source-to-sink path, as vertex keys in order.
using Chain = std::vector<std::string>;

/// Result of a chain enumeration. When the graph holds more source->sink
/// paths than `max_chains`, `chains` keeps the first `max_chains` found
/// and `truncated` is set — callers that present results to a user should
/// surface the flag (tetra_synth / tetra_predict print a warning).
struct ChainEnumeration {
  std::vector<Chain> chains;
  bool truncated = false;
};

/// Enumerates all simple source->sink paths. On a cyclic graph a chain
/// ends where every out-edge leads back onto it. `max_chains` guards
/// against pathological graphs: enumeration stops there and the result is
/// flagged as truncated instead of throwing.
ChainEnumeration enumerate_chains(const core::Dag& dag,
                                  std::size_t max_chains = 4096);

/// The measured-comparable topic sequence of a chain: the dangling
/// in-topic of the source (when nothing in the DAG produces it — an
/// untraced external input writes it), then each edge's topic in order.
/// AND-junction pseudo-edges ("&<node>") carry no DDS sample and are
/// dropped; per-caller/per-client annotations are stripped, leaving the
/// plain topic names that appear in trace events — i.e. exactly a
/// `topics` argument for analysis::measure_chain_latency.
std::vector<std::string> chain_topics(const core::Dag& dag, const Chain& chain);

/// Sum of mWCETs (mACETs) along a chain; AND junctions contribute zero.
Duration chain_wcet(const core::Dag& dag, const Chain& chain);
Duration chain_acet(const core::Dag& dag, const Chain& chain);

/// Renders "A -> B -> C".
std::string to_string(const Chain& chain);

}  // namespace tetra::analysis
