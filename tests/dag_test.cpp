// Tests for the DAG model, builder (service splitting, AND/OR junctions),
// merging, multi-mode models, and the exporters.
#include <gtest/gtest.h>

#include "core/dag.hpp"
#include "core/dag_builder.hpp"
#include "core/export.hpp"

namespace tetra::core {
namespace {

CallbackRecord record(std::string node, CallbackKind kind, std::string label,
                      std::string in_topic, std::vector<std::string> out_topics,
                      bool sync = false) {
  CallbackRecord r;
  r.node_name = std::move(node);
  r.kind = kind;
  r.label = std::move(label);
  r.in_topic = std::move(in_topic);
  r.out_topics = std::move(out_topics);
  r.is_sync_subscriber = sync;
  r.id = std::hash<std::string>{}(r.label);
  r.add_instance(TimePoint{0}, Duration::ms(1));
  return r;
}

/// Simple pipeline: timer -> /a -> sub -> /b -> sub2.
std::vector<CallbackList> pipeline_lists() {
  CallbackList n1, n2, n3;
  n1.node_name = "n1";
  n1.records.push_back(record("n1", CallbackKind::Timer, "n1/T1", "", {"/a"}));
  n2.node_name = "n2";
  n2.records.push_back(
      record("n2", CallbackKind::Subscription, "n2/SC1", "/a", {"/b"}));
  n3.node_name = "n3";
  n3.records.push_back(
      record("n3", CallbackKind::Subscription, "n3/SC1", "/b", {}));
  return {n1, n2, n3};
}

TEST(DagTest, AddVertexAndEdges) {
  Dag dag;
  DagVertex a;
  a.key = "A";
  DagVertex b;
  b.key = "B";
  dag.add_or_merge_vertex(a);
  dag.add_or_merge_vertex(b);
  dag.add_edge("A", "B", "/t");
  EXPECT_EQ(dag.vertex_count(), 2u);
  EXPECT_EQ(dag.edge_count(), 1u);
  dag.add_edge("A", "B", "/t");  // duplicate ignored
  EXPECT_EQ(dag.edge_count(), 1u);
  EXPECT_THROW(dag.add_edge("A", "Z", "/t"), std::logic_error);
}

TEST(DagTest, MergeVertexCombinesStats) {
  Dag dag;
  DagVertex v;
  v.key = "X";
  v.stats.add(Duration::ms(5));
  v.instance_count = 1;
  v.out_topics = {"/a"};
  dag.add_or_merge_vertex(v);
  DagVertex v2;
  v2.key = "X";
  v2.stats.add(Duration::ms(9));
  v2.instance_count = 1;
  v2.out_topics = {"/b"};
  dag.add_or_merge_vertex(v2);
  const DagVertex* merged = dag.find_vertex("X");
  EXPECT_EQ(merged->stats.mwcet(), Duration::ms(9));
  EXPECT_EQ(merged->stats.mbcet(), Duration::ms(5));
  EXPECT_EQ(merged->instance_count, 2u);
  EXPECT_EQ(merged->out_topics.size(), 2u);
}

TEST(DagTest, SourcesSinksAcyclic) {
  Dag dag;
  for (const char* key : {"A", "B", "C"}) {
    DagVertex v;
    v.key = key;
    dag.add_or_merge_vertex(v);
  }
  dag.add_edge("A", "B", "/1");
  dag.add_edge("B", "C", "/2");
  EXPECT_TRUE(dag.is_acyclic());
  ASSERT_EQ(dag.sources().size(), 1u);
  EXPECT_EQ(dag.sources()[0]->key, "A");
  ASSERT_EQ(dag.sinks().size(), 1u);
  EXPECT_EQ(dag.sinks()[0]->key, "C");
  dag.add_edge("C", "A", "/3");
  EXPECT_FALSE(dag.is_acyclic());
}

TEST(DagBuilderTest, PipelineEdges) {
  const Dag dag = build_dag(pipeline_lists());
  EXPECT_EQ(dag.vertex_count(), 3u);
  EXPECT_EQ(dag.edge_count(), 2u);
  EXPECT_TRUE(dag.is_acyclic());
  const auto out = dag.out_edges("n1/T1");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->to, "n2/SC1");
  EXPECT_EQ(out[0]->topic, "/a");
}

TEST(DagBuilderTest, UnlabeledRecordThrows) {
  CallbackList list;
  list.node_name = "n";
  CallbackRecord r = record("n", CallbackKind::Timer, "", "", {});
  r.label.clear();
  list.records.push_back(r);
  EXPECT_THROW(build_dag({list}), std::logic_error);
}

TEST(DagBuilderTest, ServiceSplitPerCaller) {
  // Service SV with two callers: two annotated records -> two vertices,
  // two disjoint chains (the paper's §VI point iv).
  CallbackList callers, server, clients;
  callers.node_name = "c";
  callers.records.push_back(record("c", CallbackKind::Timer, "c/T1", "",
                                   {"/svRequest#c/T1"}));
  callers.records.push_back(record("c", CallbackKind::Timer, "c/T2", "",
                                   {"/svRequest#c/T2"}));
  server.node_name = "s";
  server.records.push_back(record("s", CallbackKind::Service, "s/SV1",
                                  "/svRequest#c/T1", {"/svReply#c/CL1"}));
  server.records.push_back(record("s", CallbackKind::Service, "s/SV1",
                                  "/svRequest#c/T2", {"/svReply#c/CL2"}));
  clients.node_name = "c";
  clients.records.push_back(
      record("c", CallbackKind::Client, "c/CL1", "/svReply#c/CL1", {}));
  clients.records.push_back(
      record("c", CallbackKind::Client, "c/CL2", "/svReply#c/CL2", {}));

  const Dag dag = build_dag({callers, server, clients});
  EXPECT_EQ(dag.vertex_count(), 6u);  // 2 timers + 2 service copies + 2 clients
  EXPECT_TRUE(dag.has_vertex("s/SV1@c/T1"));
  EXPECT_TRUE(dag.has_vertex("s/SV1@c/T2"));
  // Chains are disjoint: T1's service vertex must not reach CL2.
  const auto out1 = dag.out_edges("s/SV1@c/T1");
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1[0]->to, "c/CL1");

  // Ablation: without splitting, one vertex with 2 in + 2 out edges —
  // creating the spurious T1 -> SV -> CL2 sub-chain.
  DagOptions no_split;
  no_split.split_service_per_caller = false;
  const Dag wrong = build_dag({callers, server, clients}, no_split);
  EXPECT_EQ(wrong.vertex_count(), 5u);
  EXPECT_TRUE(wrong.has_vertex("s/SV1"));
  EXPECT_EQ(wrong.in_edges("s/SV1").size(), 2u);
  EXPECT_EQ(wrong.out_edges("s/SV1").size(), 2u);
}

TEST(DagBuilderTest, SyncMembersRouteThroughAndJunction) {
  CallbackList sources, fusion, sink;
  sources.node_name = "src";
  sources.records.push_back(record("src", CallbackKind::Timer, "src/T1", "",
                                   {"/f1"}));
  sources.records.push_back(record("src", CallbackKind::Timer, "src/T2", "",
                                   {"/f2"}));
  fusion.node_name = "fus";
  fusion.records.push_back(record("fus", CallbackKind::Subscription, "fus/SC1",
                                  "/f1", {"/f3"}, /*sync=*/true));
  fusion.records.push_back(record("fus", CallbackKind::Subscription, "fus/SC2",
                                  "/f2", {}, /*sync=*/true));
  sink.node_name = "snk";
  sink.records.push_back(
      record("snk", CallbackKind::Subscription, "snk/SC1", "/f3", {}));

  const Dag dag = build_dag({sources, fusion, sink});
  // 2 timers + 2 sync members + & + sink = 6 vertices.
  EXPECT_EQ(dag.vertex_count(), 6u);
  ASSERT_TRUE(dag.has_vertex("fus/&"));
  const DagVertex* junction = dag.find_vertex("fus/&");
  EXPECT_TRUE(junction->is_and_junction);
  EXPECT_TRUE(junction->stats.empty());  // zero execution time task
  // Members feed the junction; the junction feeds the sink; no direct
  // member->sink edge.
  EXPECT_EQ(dag.in_edges("fus/&").size(), 2u);
  const auto junction_out = dag.out_edges("fus/&");
  ASSERT_EQ(junction_out.size(), 1u);
  EXPECT_EQ(junction_out[0]->to, "snk/SC1");
  for (const auto* edge : dag.in_edges("snk/SC1")) {
    EXPECT_EQ(edge->from, "fus/&");
  }
  // Edges INTO sync members are normal.
  EXPECT_EQ(dag.in_edges("fus/SC1").size(), 1u);

  // Ablation: junction disabled -> direct member->sink edge.
  DagOptions no_sync;
  no_sync.model_sync_with_and_junction = false;
  const Dag flat = build_dag({sources, fusion, sink}, no_sync);
  EXPECT_FALSE(flat.has_vertex("fus/&"));
  ASSERT_EQ(flat.in_edges("snk/SC1").size(), 1u);
  EXPECT_EQ(flat.in_edges("snk/SC1")[0]->from, "fus/SC1");
}

TEST(DagBuilderTest, OrJunctionMarked) {
  CallbackList writers, reader;
  writers.node_name = "w";
  writers.records.push_back(record("w", CallbackKind::Timer, "w/T1", "", {"/t"}));
  writers.records.push_back(record("w", CallbackKind::Timer, "w/T2", "", {"/t"}));
  reader.node_name = "r";
  reader.records.push_back(
      record("r", CallbackKind::Subscription, "r/SC1", "/t", {}));
  const Dag dag = build_dag({writers, reader});
  EXPECT_TRUE(dag.find_vertex("r/SC1")->is_or_junction);
  EXPECT_EQ(dag.in_edges("r/SC1").size(), 2u);
}

TEST(DagBuilderTest, DanglingTopicsProduceNoEdges) {
  CallbackList list;
  list.node_name = "n";
  list.records.push_back(
      record("n", CallbackKind::Timer, "n/T1", "", {"/nowhere"}));
  list.records.push_back(
      record("n", CallbackKind::Subscription, "n/SC1", "/fromnowhere", {}));
  const Dag dag = build_dag({list});
  EXPECT_EQ(dag.edge_count(), 0u);
  EXPECT_EQ(dag.sources().size(), 2u);
}

TEST(DagMergeTest, UnionAcrossRuns) {
  const Dag run1 = build_dag(pipeline_lists());
  const Dag run2 = build_dag(pipeline_lists());
  Dag merged;
  merged.merge(run1);
  merged.merge(run2);
  EXPECT_EQ(merged.vertex_count(), run1.vertex_count());
  EXPECT_EQ(merged.edge_count(), run1.edge_count());
  // Statistics accumulate across runs.
  EXPECT_EQ(merged.find_vertex("n1/T1")->instance_count, 2u);
  EXPECT_EQ(merge_dags({run1, run2}).vertex_count(), run1.vertex_count());
}

TEST(MultiModeDagTest, PerModeAndCombined) {
  MultiModeDag multi;
  multi.merge_into_mode("city", build_dag(pipeline_lists()));
  // Highway mode sees an extra callback.
  auto lists = pipeline_lists();
  CallbackList extra;
  extra.node_name = "n4";
  extra.records.push_back(
      record("n4", CallbackKind::Subscription, "n4/SC1", "/b", {}));
  lists.push_back(extra);
  multi.merge_into_mode("highway", build_dag(lists));

  EXPECT_EQ(multi.modes().size(), 2u);
  EXPECT_EQ(multi.mode_dag("city")->vertex_count(), 3u);
  EXPECT_EQ(multi.mode_dag("highway")->vertex_count(), 4u);
  EXPECT_EQ(multi.combined().vertex_count(), 4u);
  EXPECT_EQ(multi.modes_of_vertex("n1/T1").size(), 2u);
  EXPECT_EQ(multi.modes_of_vertex("n4/SC1"),
            (std::vector<std::string>{"highway"}));
}

TEST(ExportTest, DotContainsClustersAndLabels) {
  const Dag dag = build_dag(pipeline_lists());
  const std::string dot = to_dot(dag);
  EXPECT_NE(dot.find("digraph timing_model"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_NE(dot.find("label=\"/a\""), std::string::npos);
  EXPECT_NE(dot.find("n1/T1"), std::string::npos);
}

TEST(ExportTest, JsonRoundTrip) {
  Dag dag = build_dag(pipeline_lists());
  dag.find_vertex("n1/T1")->period = Duration::ms(100);
  const std::string json = to_json(dag);
  const Dag restored = dag_from_json(json);
  EXPECT_EQ(restored.vertex_count(), dag.vertex_count());
  EXPECT_EQ(restored.edge_count(), dag.edge_count());
  const DagVertex* t1 = restored.find_vertex("n1/T1");
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->period.value(), Duration::ms(100));
  EXPECT_EQ(t1->stats.count(), 1u);
  EXPECT_EQ(t1->stats.mwcet(), Duration::ms(1));
}

TEST(ExportTest, ExecTimeTableListsCallbacks) {
  const Dag dag = build_dag(pipeline_lists());
  const std::string table = to_exec_time_table(dag);
  EXPECT_NE(table.find("n1/T1"), std::string::npos);
  EXPECT_NE(table.find("mWCET"), std::string::npos);
}

}  // namespace
}  // namespace tetra::core
