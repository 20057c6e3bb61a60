#include "analysis/chains.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/callback_record.hpp"

namespace tetra::analysis {

ChainEnumeration enumerate_chains(const core::Dag& dag,
                                  std::size_t max_chains) {
  ChainEnumeration result;
  Chain current;
  std::function<void(const std::string&)> dfs = [&](const std::string& key) {
    if (result.truncated) return;
    current.push_back(key);
    // Only edges into vertices off the current path extend it, so a
    // cycle (overlapping runs merged into one trace) cannot recurse
    // forever; a path no edge extends is a chain. On an acyclic graph
    // these are exactly the source->sink paths.
    bool extended = false;
    for (const auto* edge : dag.out_edges(key)) {
      if (std::find(current.begin(), current.end(), edge->to) !=
          current.end()) {
        continue;
      }
      extended = true;
      dfs(edge->to);
    }
    if (!extended) {
      if (result.chains.size() >= max_chains) {
        result.truncated = true;
      } else {
        result.chains.push_back(current);
      }
    }
    current.pop_back();
  };
  for (const auto* source : dag.sources()) dfs(source->key);
  return result;
}

std::vector<std::string> chain_topics(const core::Dag& dag,
                                      const Chain& chain) {
  std::vector<std::string> topics;
  if (chain.empty()) return topics;

  const auto plain = [](const std::string& topic) {
    return core::split_annotated_topic(topic).first;
  };

  // A source whose in-topic nobody in the DAG produces is driven by an
  // untraced external writer; its samples are real DdsWrite events, so the
  // measured chain can (and should) start there.
  const auto* source = dag.find_vertex(chain.front());
  if (source != nullptr && !source->in_topic.empty() &&
      dag.in_edges(source->key).empty()) {
    topics.push_back(plain(source->in_topic));
  }

  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const auto outs = dag.out_edges(chain[i]);
    const core::DagEdge* hop = nullptr;
    for (const auto* edge : outs) {
      if (edge->to == chain[i + 1]) {
        hop = edge;
        break;
      }
    }
    if (hop == nullptr) {
      throw std::out_of_range("chain_topics: no edge " + chain[i] + " -> " +
                              chain[i + 1]);
    }
    // AND-junction pseudo-edges never carry a DDS sample: the member that
    // completes the synchronization set publishes the junction's output
    // topic inside its own execution.
    if (!hop->topic.empty() && hop->topic.front() == '&') continue;
    topics.push_back(plain(hop->topic));
  }
  return topics;
}

namespace {
Duration accumulate(const core::Dag& dag, const Chain& chain, bool worst) {
  Duration total = Duration::zero();
  for (const auto& key : chain) {
    const auto* vertex = dag.find_vertex(key);
    if (vertex == nullptr) {
      throw std::out_of_range("chain references unknown vertex " + key);
    }
    total += worst ? vertex->mwcet() : vertex->macet();
  }
  return total;
}
}  // namespace

Duration chain_wcet(const core::Dag& dag, const Chain& chain) {
  return accumulate(dag, chain, true);
}

Duration chain_acet(const core::Dag& dag, const Chain& chain) {
  return accumulate(dag, chain, false);
}

std::string to_string(const Chain& chain) {
  std::string out;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i) out += " -> ";
    out += chain[i];
  }
  return out;
}

}  // namespace tetra::analysis
