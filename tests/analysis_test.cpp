// Tests for the analysis module: chain enumeration, end-to-end latency
// through source timestamps, waiting times, load/core binding, the
// simplified response-time estimate, and convergence tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/chains.hpp"
#include "analysis/convergence.hpp"
#include "analysis/latency.hpp"
#include "analysis/load.hpp"
#include "analysis/response_time.hpp"
#include "api/session.hpp"
#include "core/dag_builder.hpp"
#include "ebpf/tracers.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "trace/merge.hpp"
#include "trace/ttb.hpp"
#include "workloads/avp_localization.hpp"
#include "workloads/syn_app.hpp"

namespace tetra::analysis {
namespace {

core::Dag diamond_dag() {
  core::Dag dag;
  auto add = [&](const char* key, const char* node, double wcet_ms) {
    core::DagVertex v;
    v.key = key;
    v.node_name = node;
    v.stats.add(Duration::ms_f(wcet_ms / 2));
    v.stats.add(Duration::ms_f(wcet_ms));
    v.instance_count = 2;
    dag.add_or_merge_vertex(v);
  };
  add("A", "n1", 2);
  add("B", "n2", 4);
  add("C", "n2", 6);
  add("D", "n3", 8);
  dag.add_edge("A", "B", "/ab");
  dag.add_edge("A", "C", "/ac");
  dag.add_edge("B", "D", "/bd");
  dag.add_edge("C", "D", "/cd");
  return dag;
}

TEST(ChainsTest, EnumeratesAllSourceSinkPaths) {
  const auto [chains, truncated] = enumerate_chains(diamond_dag());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(to_string(chains[0]), "A -> B -> D");
  EXPECT_EQ(to_string(chains[1]), "A -> C -> D");
}

TEST(ChainsTest, BackEdgeYieldsFiniteSimpleChains) {
  // Two overlapping runs merged into one trace can close a cycle; the
  // walk must neither recurse forever nor repeat a vertex.
  core::Dag dag = diamond_dag();
  dag.add_edge("D", "B", "/db");
  const auto [chains, truncated] = enumerate_chains(dag);
  EXPECT_FALSE(truncated);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(to_string(chains[0]), "A -> B -> D");
  EXPECT_EQ(to_string(chains[1]), "A -> C -> D -> B");
  for (const Chain& chain : chains) {
    const std::set<std::string> distinct(chain.begin(), chain.end());
    EXPECT_EQ(distinct.size(), chain.size()) << to_string(chain);
  }
}

TEST(ChainsTest, ChainWcetSumsVertices) {
  const auto dag = diamond_dag();
  const auto chains = enumerate_chains(dag).chains;
  EXPECT_EQ(chain_wcet(dag, chains[0]), Duration::ms(14));  // 2+4+8
  EXPECT_EQ(chain_wcet(dag, chains[1]), Duration::ms(16));  // 2+6+8
  EXPECT_EQ(chain_acet(dag, chains[0]),
            Duration::ms_f(0.75 * 14));  // averages of {w/2, w}
}

TEST(ChainsTest, ChainTopicsFollowsEdges) {
  const auto dag = diamond_dag();
  const auto chains = enumerate_chains(dag).chains;
  EXPECT_EQ(chain_topics(dag, chains[0]),
            (std::vector<std::string>{"/ab", "/bd"}));
  EXPECT_EQ(chain_topics(dag, chains[1]),
            (std::vector<std::string>{"/ac", "/cd"}));
}

TEST(ChainsTest, GuardAgainstExplosion) {
  core::Dag dag;
  // Ladder of diamonds: 2^20 paths — must truncate, not hang.
  std::string prev = "S";
  core::DagVertex s;
  s.key = "S";
  dag.add_or_merge_vertex(s);
  for (int i = 0; i < 20; ++i) {
    // std::string(...).append(...), not "a" + std::to_string(i): g++ 12's
    // libstdc++ raises a false -Wrestrict on the latter at -O2.
    const std::string a = std::string("a").append(std::to_string(i));
    const std::string b = std::string("b").append(std::to_string(i));
    const std::string join = std::string("j").append(std::to_string(i));
    for (const auto& key : {a, b, join}) {
      core::DagVertex v;
      v.key = key;
      dag.add_or_merge_vertex(v);
    }
    dag.add_edge(prev, a, "/");
    dag.add_edge(prev, b, "/");
    dag.add_edge(a, join, "/");
    dag.add_edge(b, join, "/");
    prev = join;
  }
  const auto result = enumerate_chains(dag, 1000);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.chains.size(), 1000u);
}

TEST(LoadTest, UtilizationFromRateAndAcet) {
  const auto dag = diamond_dag();
  // span 1s, 2 instances each: rate 2 Hz; util = rate * mACET.
  const auto loads = per_callback_load(dag, Duration::sec(1));
  ASSERT_EQ(loads.size(), 4u);
  for (const auto& load : loads) {
    EXPECT_NEAR(load.rate_hz, 2.0, 1e-9);
    EXPECT_NEAR(load.utilization, load.rate_hz * load.macet.to_sec(), 1e-12);
  }
  const auto node_loads = per_node_load(dag, Duration::sec(1));
  EXPECT_EQ(node_loads.size(), 3u);
  EXPECT_GT(node_loads.at("n2"), node_loads.at("n1"));
}

TEST(LoadTest, BalanceNodeLoadsLpt) {
  std::map<std::string, double> loads{
      {"a", 0.6}, {"b", 0.5}, {"c", 0.3}, {"d", 0.2}};
  const auto binding = balance_node_loads(loads, 2);
  EXPECT_EQ(binding.node_to_core.size(), 4u);
  // LPT: a->0, b->1, c->1, d->0 => loads 0.8 / 0.8.
  EXPECT_NEAR(binding.makespan, 0.8, 1e-9);
  EXPECT_THROW(balance_node_loads(loads, 0), std::invalid_argument);
}

TEST(ResponseTimeTest, TermsComposeAndBound) {
  const auto dag = diamond_dag();
  ResponseTimeOptions options;
  options.dds_hop_bound = Duration::ms(1);
  const auto chains = enumerate_chains(dag).chains;
  const auto estimate = estimate_chain_response(dag, chains[0], options);
  EXPECT_EQ(estimate.execution, Duration::ms(14));
  // Blocking: B and C share node n2 -> B's blocker is C (6ms); A and D
  // are alone in their nodes (0 blocking).
  EXPECT_EQ(estimate.blocking, Duration::ms(6));
  EXPECT_EQ(estimate.queueing, Duration::ms(6));
  EXPECT_EQ(estimate.transport, Duration::ms(2));
  EXPECT_EQ(estimate.total(), Duration::ms(28));
  // Estimate must dominate the raw chain WCET.
  EXPECT_GE(estimate.total(), chain_wcet(dag, chains[0]));
  const auto [all, truncated] = estimate_all_chains(dag, options);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(all.size(), 2u);
}

TEST(ConvergenceTest, SeriesGrowsAndSettles) {
  ConvergenceTracker tracker({"X"});
  Rng rng(5);
  // Assigned from std::string, not string literals: the literal-assign
  // inline path trips a GCC -Wrestrict false positive under -O3, and the
  // Release CI matrix builds tests with -Werror.
  const std::string key = "X";
  const std::string node_name = "n";
  for (int run = 0; run < 30; ++run) {
    core::Dag dag;
    core::DagVertex v;
    v.key = key;
    v.node_name = node_name;
    // Samples from a fixed range: cumulative mWCET is non-decreasing and
    // approaches 10ms.
    for (int i = 0; i < 50; ++i) {
      v.stats.add(Duration::ms_f(rng.uniform(1.0, 10.0)));
    }
    v.instance_count = 50;
    dag.add_or_merge_vertex(v);
    tracker.add_run(dag);
  }
  const auto& series = tracker.series("X");
  ASSERT_EQ(series.size(), 30u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].mwcet, series[i - 1].mwcet);
    EXPECT_LE(series[i].mbcet, series[i - 1].mbcet);
  }
  EXPECT_NEAR(series.back().mwcet.to_ms(), 10.0, 0.3);
  const std::size_t settle = tracker.mwcet_settling_run("X", 0.01);
  EXPECT_GT(settle, 0u);
  EXPECT_LT(settle, 30u);
  EXPECT_EQ(tracker.mwcet_settling_run("unknown"), 0u);
}

// -- reference: the string-keyed event walker the interned timeline
// replaced, kept verbatim but for its names (ReferenceTimeline,
// ReferenceInstance, reference_*). The interned timeline must agree with
// it on instances, consumers, writes and chain latencies.

/// One observed callback execution with its data-flow endpoints.
struct ReferenceInstance {
  Pid pid = kInvalidPid;
  CallbackId callback_id = kInvalidCallbackId;
  CallbackKind kind = CallbackKind::Timer;
  TimePoint start;
  TimePoint end;
  /// The (topic, srcTS) this instance consumed, if any.
  std::optional<std::pair<std::string, TimePoint>> take;
  /// The (topic, srcTS) samples this instance wrote.
  std::vector<std::pair<std::string, TimePoint>> writes;

  friend bool operator==(const ReferenceInstance&,
                         const ReferenceInstance&) = default;
};

class ReferenceTimeline {
 public:
  explicit ReferenceTimeline(const trace::ColumnsView& events) {
    trace::EventColumns copy;
    if (!trace::is_time_sorted(events)) {
      copy.append(events);
      trace::sort_by_time(copy);
    }
    const trace::ColumnsView v = copy.empty() ? events : copy.view();
    consumers_.reserve(v.count / 4);

    // Per-PID in-flight instance assembly, mirroring the single-threaded
    // executor assumption: one open instance per PID at a time.
    std::map<Pid, ReferenceInstance> open;
    for (std::size_t i = 0; i < v.count; ++i) {
      const Pid pid = static_cast<Pid>(v.pid[i]);
      switch (static_cast<trace::EventType>(v.type[i])) {
        case trace::EventType::CallbackStart: {
          ReferenceInstance inst;
          inst.pid = pid;
          inst.kind = static_cast<CallbackKind>(v.aux[i]);
          inst.start = TimePoint{v.time[i]};
          open[pid] = std::move(inst);
          break;
        }
        case trace::EventType::TimerCall: {
          auto it = open.find(pid);
          if (it != open.end()) {
            it->second.callback_id = static_cast<CallbackId>(v.arg_a[i]);
          }
          break;
        }
        case trace::EventType::Take: {
          auto it = open.find(pid);
          if (it != open.end()) {
            it->second.callback_id = static_cast<CallbackId>(v.arg_a[i]);
            it->second.take = {std::string(v.str(v.arg_c[i])),
                               TimePoint{v.arg_b[i]}};
          }
          break;
        }
        case trace::EventType::TakeTypeErased: {
          // A response taken but not dispatched (P14 false): the instance
          // consumed nothing, and Alg. 1 drops it too (lines 24-25).
          if (v.aux[i] == 0) open.erase(pid);
          break;
        }
        case trace::EventType::DdsWrite: {
          const std::string topic(v.str(v.arg_c[i]));
          const TimePoint src_ts{v.arg_b[i]};
          writes_by_topic_[topic].push_back(src_ts);
          auto it = open.find(pid);
          if (it != open.end()) it->second.writes.push_back({topic, src_ts});
          break;
        }
        case trace::EventType::CallbackEnd: {
          auto it = open.find(pid);
          if (it != open.end()) {
            it->second.end = TimePoint{v.time[i]};
            const std::size_t index = instances_.size();
            if (it->second.take.has_value()) {
              consumers_[Key{it->second.take->first,
                             it->second.take->second.count_ns()}]
                  .push_back(index);
            }
            instances_.push_back(std::move(it->second));
            open.erase(it);
          }
          break;
        }
        default:
          break;
      }
    }
  }

  const std::vector<ReferenceInstance>& instances() const { return instances_; }

  const std::vector<std::size_t>* consumer_indices(const std::string& topic,
                                                   TimePoint src_ts) const {
    auto it = consumers_.find(Key{topic, src_ts.count_ns()});
    return it == consumers_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, std::vector<TimePoint>>& writes_by_topic() const {
    return writes_by_topic_;
  }

  const std::vector<TimePoint>& writes_on(const std::string& topic) const {
    auto it = writes_by_topic_.find(topic);
    return it == writes_by_topic_.end() ? kNoWrites : it->second;
  }

 private:
  using Key = std::pair<std::string, std::int64_t>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return std::hash<std::string>()(key.first) ^
             (static_cast<std::size_t>(key.second) * 0x9e3779b97f4a7c15ULL);
    }
  };
  std::vector<ReferenceInstance> instances_;
  std::unordered_map<Key, std::vector<std::size_t>, KeyHash> consumers_;
  std::map<std::string, std::vector<TimePoint>> writes_by_topic_;
  inline static const std::vector<TimePoint> kNoWrites{};
};

std::optional<TimePoint> reference_follow(const ReferenceTimeline& timeline,
                                          const std::vector<std::string>& topics,
                                          std::size_t depth, TimePoint src_ts) {
  const std::vector<std::size_t>* consumers =
      timeline.consumer_indices(topics[depth], src_ts);
  if (consumers == nullptr) return std::nullopt;
  std::optional<TimePoint> best;
  for (const std::size_t index : *consumers) {
    const ReferenceInstance* instance = &timeline.instances()[index];
    if (depth + 1 == topics.size()) {
      // Last hop: the chain completes when the final consumer finishes.
      if (!best.has_value() || instance->end > *best) best = instance->end;
      continue;
    }
    // Find this instance's write on the next topic (if it produced one).
    for (const auto& [topic, ts] : instance->writes) {
      if (topic == topics[depth + 1]) {
        auto completed = reference_follow(timeline, topics, depth + 1, ts);
        if (completed.has_value() && (!best.has_value() || *completed > *best)) {
          best = completed;
        }
      }
    }
  }
  return best;
}

ChainLatencyResult reference_chain_latency(const ReferenceTimeline& timeline,
                                           const std::vector<std::string>& topics) {
  ChainLatencyResult result;
  if (topics.empty()) return result;
  for (TimePoint src_ts : timeline.writes_on(topics[0])) {
    auto completed = reference_follow(timeline, topics, 0, src_ts);
    if (completed.has_value()) {
      result.latencies.add(*completed - src_ts);
      ++result.complete;
    } else {
      ++result.incomplete;
    }
  }
  return result;
}

/// An interned instance spelled out with its timeline's topic names.
ReferenceInstance named(const InstanceTimeline& timeline,
                        const CallbackInstance& instance) {
  ReferenceInstance out{instance.pid, instance.callback_id, instance.kind,
                        instance.start, instance.end, std::nullopt, {}};
  if (instance.take.has_value()) {
    out.take = {timeline.topic_name(instance.take->topic),
                instance.take->src_ts};
  }
  for (const TopicSample& write : timeline.writes_of(instance)) {
    out.writes.emplace_back(timeline.topic_name(write.topic), write.src_ts);
  }
  return out;
}

/// Indices into instances() of the consumers of (topic, src_ts).
std::vector<std::size_t> consumer_indices(const InstanceTimeline& timeline,
                                          const std::string& topic,
                                          TimePoint src_ts) {
  std::vector<std::size_t> out;
  for (const CallbackInstance* instance : timeline.consumers_of(topic, src_ts)) {
    out.push_back(static_cast<std::size_t>(instance -
                                           timeline.instances().data()));
  }
  return out;
}

/// Holds the interned timeline over `events` to the reference: every
/// instance, the consumers and writes of every sample the trace names,
/// and the latency of every chain in `chains`. Returns the number of
/// chain traversals the reference completed.
std::size_t expect_timeline_matches_reference(
    const trace::ColumnsView& events,
    const std::vector<std::vector<std::string>>& chains) {
  const ReferenceTimeline want(events);
  const InstanceTimeline got(events);
  EXPECT_EQ(got.instances().size(), want.instances().size());
  if (got.instances().size() != want.instances().size()) return 0;
  for (std::size_t i = 0; i < want.instances().size(); ++i) {
    EXPECT_EQ(named(got, got.instances()[i]), want.instances()[i]);
  }
  std::set<std::pair<std::string, TimePoint>> samples;
  for (const auto& [topic, writes] : want.writes_by_topic()) {
    const std::span<const TimePoint> got_writes = got.writes_on(topic);
    EXPECT_EQ(std::vector<TimePoint>(got_writes.begin(), got_writes.end()),
              writes)
        << topic;
    for (const TimePoint src_ts : writes) samples.insert({topic, src_ts});
  }
  for (const ReferenceInstance& instance : want.instances()) {
    if (instance.take.has_value()) samples.insert(*instance.take);
  }
  for (const auto& [topic, src_ts] : samples) {
    const std::vector<std::size_t>* want_consumers =
        want.consumer_indices(topic, src_ts);
    EXPECT_EQ(consumer_indices(got, topic, src_ts),
              want_consumers == nullptr ? std::vector<std::size_t>{}
                                        : *want_consumers)
        << topic << " @ " << src_ts.count_ns();
  }
  std::size_t complete = 0;
  for (const std::vector<std::string>& chain : chains) {
    const ChainLatencyResult want_latency = reference_chain_latency(want, chain);
    const ChainLatencyResult got_latency = measure_chain_latency(got, chain);
    EXPECT_EQ(got_latency.complete, want_latency.complete);
    EXPECT_EQ(got_latency.incomplete, want_latency.incomplete);
    EXPECT_EQ(got_latency.latencies.samples(), want_latency.latencies.samples());
    complete += want_latency.complete;
  }
  return complete;
}

/// The topic sequence of every chain of `dag`, plus chains through topics
/// the trace never names.
std::vector<std::vector<std::string>> chains_of(const core::Dag& dag) {
  std::vector<std::vector<std::string>> chains;
  for (const Chain& chain : enumerate_chains(dag).chains) {
    std::vector<std::string> topics = chain_topics(dag, chain);
    if (topics.empty()) continue;
    chains.push_back(topics);
    topics.push_back("/never-written");
    chains.push_back(std::move(topics));
  }
  chains.push_back({"/never-written"});
  chains.push_back({});
  return chains;
}

TEST(LatencyTest, InstanceTimelineLinksTakesAndWrites) {
  using namespace tetra::trace;
  EventVector ev;
  ev.push_back(make_callback_start(TimePoint{100}, 1, CallbackKind::Subscription));
  ev.push_back(make_take(TimePoint{101}, 1, TakeKind::Data, 0x1, "/in",
                         TimePoint{90}));
  ev.push_back(make_dds_write(TimePoint{150}, 1, "/out", TimePoint{150}));
  ev.push_back(make_callback_end(TimePoint{200}, 1, CallbackKind::Subscription));
  InstanceTimeline timeline(ev);
  ASSERT_EQ(timeline.instances().size(), 1u);
  const auto& instance = timeline.instances()[0];
  EXPECT_EQ(timeline.topic_name(instance.take->topic), "/in");
  ASSERT_EQ(timeline.writes_of(instance).size(), 1u);
  EXPECT_EQ(timeline.topic_name(timeline.writes_of(instance)[0].topic), "/out");
  EXPECT_EQ(timeline.consumers_of("/in", TimePoint{90}).size(), 1u);
  EXPECT_TRUE(timeline.consumers_of("/in", TimePoint{91}).empty());
}

TEST(LatencyTest, UndispatchedClientInstanceConsumesNothing) {
  // Two clients of one service take the same reply; only `a` dispatches
  // it (P14 true). `b` takes it without dispatching (P14 false, then
  // P15), an instance Alg. 1 drops (lines 24-25), so the reply has one
  // consumer and the chain ends with a's callback.
  using namespace tetra::trace;
  EventVector ev;
  ev.push_back(make_callback_start(TimePoint{1}, 1, CallbackKind::Timer));
  ev.push_back(make_dds_write(TimePoint{2}, 1, "/svRequest", TimePoint{2}));
  ev.push_back(make_callback_end(TimePoint{3}, 1, CallbackKind::Timer));
  ev.push_back(make_callback_start(TimePoint{4}, 2, CallbackKind::Service));
  ev.push_back(make_take(TimePoint{5}, 2, TakeKind::Request, 0x2,
                         "/svRequest", TimePoint{2}));
  ev.push_back(make_dds_write(TimePoint{6}, 2, "/svReply", TimePoint{6}));
  ev.push_back(make_callback_end(TimePoint{7}, 2, CallbackKind::Service));
  ev.push_back(make_callback_start(TimePoint{10}, 1, CallbackKind::Client));
  ev.push_back(make_take(TimePoint{11}, 1, TakeKind::Response, 0x1,
                         "/svReply", TimePoint{6}));
  ev.push_back(make_take_type_erased(TimePoint{12}, 1, true));
  ev.push_back(make_callback_end(TimePoint{20}, 1, CallbackKind::Client));
  ev.push_back(make_callback_start(TimePoint{25}, 3, CallbackKind::Client));
  ev.push_back(make_take(TimePoint{26}, 3, TakeKind::Response, 0x3,
                         "/svReply", TimePoint{6}));
  ev.push_back(make_take_type_erased(TimePoint{27}, 3, false));
  ev.push_back(make_callback_end(TimePoint{28}, 3, CallbackKind::Client));
  const InstanceTimeline timeline(ev);
  const auto consumers = timeline.consumers_of("/svReply", TimePoint{6});
  ASSERT_EQ(consumers.size(), 1u);
  EXPECT_EQ(consumers[0]->pid, 1);
  const ChainLatencyResult latency =
      measure_chain_latency(timeline, {"/svRequest", "/svReply"});
  ASSERT_EQ(latency.complete, 1u);
  EXPECT_EQ(latency.max(), Duration::ns(18));
}

TEST(LatencyTest, InstanceTimelineIgnoresInputOrder) {
  ros2::Context ctx;
  ebpf::TracerSuite suite(ctx);
  suite.start_init();
  workloads::build_syn_app(ctx);
  auto init_trace = suite.stop_init();
  suite.start_runtime();
  ctx.run_for(Duration::sec(2));
  const auto sorted = trace::merge_sorted({init_trace, suite.stop_runtime()});
  ASSERT_TRUE(trace::is_time_sorted(sorted));

  // Shuffle whole runs of equal-time events, each run kept in its order,
  // so sorting the shuffled trace by time restores `sorted` exactly.
  std::vector<trace::EventVector> runs;
  for (const auto& event : sorted) {
    if (runs.empty() || runs.back().back().time != event.time) {
      runs.emplace_back();
    }
    runs.back().push_back(event);
  }
  Rng rng(5);
  for (std::size_t i = runs.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(runs[i], runs[j]);
  }
  trace::EventVector shuffled;
  for (const auto& run : runs) {
    shuffled.insert(shuffled.end(), run.begin(), run.end());
  }
  ASSERT_FALSE(trace::is_time_sorted(shuffled));

  const InstanceTimeline from_sorted(sorted);
  const InstanceTimeline from_shuffled(shuffled);
  ASSERT_GT(from_sorted.instances().size(), 100u);
  ASSERT_EQ(from_shuffled.instances().size(), from_sorted.instances().size());
  for (std::size_t i = 0; i < from_sorted.instances().size(); ++i) {
    EXPECT_EQ(named(from_shuffled, from_shuffled.instances()[i]),
              named(from_sorted, from_sorted.instances()[i]));
  }
  for (const auto& event : sorted) {
    if (const auto* write = std::get_if<trace::DdsWriteInfo>(&event.payload)) {
      const std::span<const TimePoint> got = from_shuffled.writes_on(write->topic);
      const std::span<const TimePoint> want = from_sorted.writes_on(write->topic);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
    } else if (const auto* take =
                   std::get_if<trace::TakeInfo>(&event.payload)) {
      EXPECT_EQ(consumer_indices(from_shuffled, take->topic, take->src_ts),
                consumer_indices(from_sorted, take->topic, take->src_ts));
    }
  }
}

TEST(LatencyTest, TimelineMatchesTheReferenceWalkerOnEveryTestTrace) {
  for (const char* name : {"scenario_seed7_trace.jsonl",
                           "sentinel_seed7_clean.jsonl",
                           "sentinel_seed7_drift.jsonl"}) {
    SCOPED_TRACE(name);
    const trace::EventColumns events =
        trace::read_trace_file(std::string(TETRA_TEST_DATA_DIR) + "/" + name);
    api::SynthesisSession session;
    ASSERT_TRUE(session.ingest(events).ok());
    const auto model = session.model();
    ASSERT_TRUE(model.ok());
    EXPECT_GT(expect_timeline_matches_reference(events.view(),
                                                chains_of(model.value().dag)),
              100u);
  }
}

TEST(LatencyTest, TimelineMatchesTheReferenceWalkerOnGeneratedScenarios) {
  const scenario::ScenarioGenerator generator;
  const scenario::ScenarioRunner runner;
  std::size_t complete = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const scenario::ScenarioRunResult run =
        runner.run(generator.generate(seed).spec);
    const auto chains = chains_of(run.model.dag);
    const trace::EventColumns sorted(run.trace);
    complete += expect_timeline_matches_reference(sorted.view(), chains);
    // Shuffled rows: both walkers sort a copy, equal times included.
    trace::EventVector shuffled = run.trace;
    Rng rng(seed);
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(shuffled[i], shuffled[j]);
    }
    expect_timeline_matches_reference(trace::EventColumns(shuffled).view(),
                                      chains);
  }
  EXPECT_GT(complete, 1000u);
}

TEST(LatencyTest, SynChainLatencyMeasured) {
  ros2::Context ctx;
  ebpf::TracerSuite suite(ctx);
  suite.start_init();
  const auto app = workloads::build_syn_app(ctx);
  auto init_trace = suite.stop_init();
  suite.start_runtime();
  ctx.run_for(Duration::sec(10));
  auto events = trace::merge_sorted({init_trace, suite.stop_runtime()});
  InstanceTimeline timeline(events);
  const auto result = measure_chain_latency(timeline, app.main_chain_topics);
  ASSERT_GT(result.complete, 10u);
  // Chain compute alone: SC1(4)+SV1(3)+CL1(1.5)+SC5(2)+SC2.2(1.2+fusion)
  // ~ 12-14ms plus transport/queueing: expect 10-80ms.
  EXPECT_GT(result.mean(), Duration::ms(10));
  EXPECT_LT(result.mean(), Duration::ms(80));
  EXPECT_GE(result.max(), result.mean());
  // The fusion hop completes only when /f1 arrives last — the dominant
  // case here; incompletes are the AND-junction conditional-flow cases.
  const auto fusion = measure_chain_latency(timeline, app.fusion_chain_topics);
  EXPECT_GT(fusion.complete, 10u);
}

TEST(LatencyTest, AvpChainLatencyMeasured) {
  ros2::Context ctx;
  ebpf::TracerSuite suite(ctx);
  suite.start_init();
  workloads::AvpOptions options;
  options.run_duration = Duration::sec(10);
  const auto app = workloads::build_avp_localization(ctx, options);
  auto init_trace = suite.stop_init();
  suite.start_runtime();
  ctx.run_for(Duration::sec(10));
  auto events = trace::merge_sorted({init_trace, suite.stop_runtime()});
  InstanceTimeline timeline(events);
  const auto result = measure_chain_latency(timeline, app.chain_topics);
  // Fusion only completes when the front sample arrives last, so some
  // traversals are incomplete — but most complete.
  EXPECT_GT(result.complete, 50u);
  // cb2(27) + cb3(3.1) + cb5(8.5) + cb6(25) ≈ 64ms + waiting.
  EXPECT_GT(result.mean(), Duration::ms(40));
  EXPECT_LT(result.mean(), Duration::ms(200));
}

TEST(LatencyTest, WaitingTimesFromWakeups) {
  // The thread is woken at 50 and dispatches its timer at 100.
  constexpr Pid kNode = 1000;
  trace::EventVector events;
  events.push_back(trace::make_node_event(TimePoint{0}, kNode, "waiting"));
  events.push_back(trace::make_sched_wakeup(
      TimePoint{50}, trace::SchedWakeupInfo{kNode, 0}));
  events.push_back(
      trace::make_callback_start(TimePoint{100}, kNode, CallbackKind::Timer));
  events.push_back(trace::make_timer_call(TimePoint{101}, kNode, 0x10));
  events.push_back(
      trace::make_callback_end(TimePoint{200}, kNode, CallbackKind::Timer));
  const auto waits = measure_waiting_times(events);
  ASSERT_EQ(waits.size(), 1u);
  const SampleSet& samples = waits.at(0x10);
  ASSERT_EQ(samples.count(), 1u);
  EXPECT_EQ(samples.min(), 50.0);
}

TEST(LatencyTest, WaitingTimesNonNegative) {
  ros2::Context ctx;
  ebpf::TracerSuite suite(ctx);
  suite.start_init();
  workloads::build_syn_app(ctx);
  auto init_trace = suite.stop_init();
  suite.start_runtime();
  ctx.run_for(Duration::sec(5));
  auto events = trace::merge_sorted({init_trace, suite.stop_runtime()});
  const auto waits = measure_waiting_times(events);
  EXPECT_GT(waits.size(), 5u);
  for (const auto& [cb, samples] : waits) {
    EXPECT_GE(samples.min(), 0.0);
    // Waiting under light load should be well under 50 ms.
    EXPECT_LT(samples.quantile(0.5), Duration::ms(50).count_ns());
  }
}

}  // namespace
}  // namespace tetra::analysis
