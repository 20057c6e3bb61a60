#include "core/dag_builder.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/concurrency.hpp"

namespace tetra::core {

namespace {

/// Vertex key for a record: the stable label, plus — when services are
/// split per caller — the caller identity carried by the annotated
/// in-topic ("node/SV1@node2/SC1").
std::string vertex_key(const CallbackRecord& record, const DagOptions& options) {
  if (record.label.empty()) {
    throw std::logic_error(
        "build_dag: record without label (run normalize_labels first)");
  }
  if (record.kind == CallbackKind::Service && options.split_service_per_caller) {
    auto [plain, suffix] = split_annotated_topic(record.in_topic);
    if (!suffix.empty()) return record.label + "@" + suffix;
  }
  return record.label;
}

DagVertex make_vertex(const CallbackRecord& record, std::string key) {
  DagVertex v;
  v.key = std::move(key);
  v.node_name = record.node_name;
  v.kind = record.kind;
  v.is_sync_member = record.is_sync_subscriber;
  v.in_topic = record.in_topic;
  v.out_topics = record.out_topics;
  v.stats = record.stats;
  v.instance_count = record.instances();
  v.period = record.estimated_period();
  return v;
}

}  // namespace

Dag build_dag(const std::vector<CallbackList>& lists, const DagOptions& options) {
  Dag dag;

  // ---- vertices ----------------------------------------------------------
  // Also collect, per node, the sync-member records (one MS group per node;
  // distinguishing several groups inside one node is not observable from
  // P7 alone — see DESIGN.md).
  struct RecordRef {
    const CallbackRecord* record;
    std::string key;
  };
  std::vector<RecordRef> refs;
  std::map<std::string, std::vector<RecordRef>> sync_members_by_node;

  for (const auto& list : lists) {
    for (const auto& record : list.records) {
      std::string key = vertex_key(record, options);
      dag.add_or_merge_vertex(make_vertex(record, key));
      refs.push_back(RecordRef{&record, key});
      if (record.is_sync_subscriber && options.model_sync_with_and_junction) {
        sync_members_by_node[record.node_name].push_back(RecordRef{&record, key});
      }
    }
  }

  // ---- producer map: topic -> producing vertex keys ----------------------
  std::map<std::string, std::vector<std::string>> producers;
  for (const auto& ref : refs) {
    for (const auto& topic : ref.record->out_topics) {
      producers[topic].push_back(ref.key);
    }
  }

  // ---- AND junctions ------------------------------------------------------
  // For each node's sync group: add "<node>/&", edges member -> &, and
  // & -> every subscriber of a topic the members publish. Direct edges out
  // of members are suppressed below.
  std::set<std::string> sync_member_keys;
  std::set<std::string> sync_output_topics;
  for (const auto& [node, members] : sync_members_by_node) {
    if (members.size() < 2) continue;  // a lone marked member: no junction
    DagVertex junction;
    junction.key = node + "/&";
    junction.node_name = node;
    junction.is_and_junction = true;
    for (const auto& member : members) {
      for (const auto& topic : member.record->out_topics) {
        if (std::find(junction.out_topics.begin(), junction.out_topics.end(),
                      topic) == junction.out_topics.end()) {
          junction.out_topics.push_back(topic);
        }
        sync_output_topics.insert(topic);
      }
      sync_member_keys.insert(member.key);
    }
    dag.add_or_merge_vertex(junction);
    for (const auto& member : members) {
      dag.add_edge(member.key, junction.key, "&" + node);
    }
  }

  // ---- topic-matched edges -------------------------------------------------
  for (const auto& ref : refs) {
    if (ref.record->in_topic.empty()) continue;
    auto it = producers.find(ref.record->in_topic);
    if (it == producers.end()) continue;
    std::set<std::string> distinct_producers;
    for (const auto& from : it->second) {
      if (from == ref.key) continue;  // no self-loops on republished topics
      if (sync_member_keys.count(from) > 0) continue;  // rerouted through &
      dag.add_edge(from, ref.key, ref.record->in_topic);
      distinct_producers.insert(from);
    }
    // Edges from AND junctions whose members produce this topic.
    if (sync_output_topics.count(ref.record->in_topic) > 0) {
      for (const auto& vertex : dag.vertices()) {
        if (!vertex.is_and_junction) continue;
        for (const auto& topic : vertex.out_topics) {
          if (topic == ref.record->in_topic) {
            dag.add_edge(vertex.key, ref.key, topic);
            distinct_producers.insert(vertex.key);
            break;
          }
        }
      }
    }
    if (distinct_producers.size() > 1) {
      dag.find_vertex(ref.key)->is_or_junction = true;
    }
  }

  // ---- learned executor concurrency ---------------------------------------
  // Per-node serialization groups, reentrancy and worker counts from the
  // observed instance intervals; split service vertices share their
  // callback's constraints. AND junctions execute nothing — they only
  // inherit the node's worker count.
  const auto concurrency = infer_concurrency(lists);
  for (const auto& ref : refs) {
    auto node_it = concurrency.find(ref.record->node_name);
    if (node_it == concurrency.end()) continue;
    auto label_it = node_it->second.by_label.find(ref.record->label);
    if (label_it == node_it->second.by_label.end()) continue;
    DagVertex* vertex = dag.find_vertex(ref.key);
    vertex->exec_group = label_it->second.group;
    vertex->reentrant = label_it->second.reentrant;
    vertex->node_workers = node_it->second.observed_workers;
  }
  for (const auto& [node, info] : concurrency) {
    DagVertex* junction = dag.find_vertex(node + "/&");
    if (junction != nullptr) junction->node_workers = info.observed_workers;
  }

  return dag;
}

}  // namespace tetra::core
