// Tests for Algorithm 1 on hand-crafted traces: callback discovery,
// topic annotation, FindCaller/FindClient resolution, the P14 drop rule,
// sync marking, CBlist matching, and label normalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "core/extract.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "support/string_utils.hpp"

namespace tetra::core {
namespace {

using namespace tetra::trace;

constexpr Pid kNodeA = 1000;  // caller node
constexpr Pid kNodeB = 1001;  // server node
constexpr Pid kNodeC = 1002;  // second client node

/// Builds a minimal trace: node A's timer calls service /sv on node B;
/// node C also has a client for /sv and sees (but does not dispatch) the
/// response.
EventVector service_scenario() {
  EventVector ev;
  ev.push_back(make_node_event(TimePoint{0}, kNodeA, "node_a"));
  ev.push_back(make_node_event(TimePoint{0}, kNodeB, "node_b"));
  ev.push_back(make_node_event(TimePoint{0}, kNodeC, "node_c"));

  // Timer CB (id 0x10) on node A: start, timer_call, request write, end.
  ev.push_back(make_callback_start(TimePoint{100}, kNodeA, CallbackKind::Timer));
  ev.push_back(make_timer_call(TimePoint{101}, kNodeA, 0x10));
  ev.push_back(make_dds_write(TimePoint{150}, kNodeA, "/svRequest", TimePoint{150}));
  ev.push_back(make_callback_end(TimePoint{200}, kNodeA, CallbackKind::Timer));

  // Service CB (id 0x20) on node B: start, take request, response write, end.
  ev.push_back(make_callback_start(TimePoint{300}, kNodeB, CallbackKind::Service));
  ev.push_back(make_take(TimePoint{301}, kNodeB, TakeKind::Request, 0x20,
                         "/svRequest", TimePoint{150}));
  ev.push_back(make_dds_write(TimePoint{380}, kNodeB, "/svReply", TimePoint{380}));
  ev.push_back(make_callback_end(TimePoint{400}, kNodeB, CallbackKind::Service));

  // Client CB on node A (id 0x11): dispatched (P14 true).
  ev.push_back(make_callback_start(TimePoint{500}, kNodeA, CallbackKind::Client));
  ev.push_back(make_take(TimePoint{501}, kNodeA, TakeKind::Response, 0x11,
                         "/svReply", TimePoint{380}));
  ev.push_back(make_take_type_erased(TimePoint{502}, kNodeA, true));
  ev.push_back(make_callback_end(TimePoint{550}, kNodeA, CallbackKind::Client));

  // Client CB on node C (id 0x30): not dispatched (P14 false).
  ev.push_back(make_callback_start(TimePoint{510}, kNodeC, CallbackKind::Client));
  ev.push_back(make_take(TimePoint{511}, kNodeC, TakeKind::Response, 0x30,
                         "/svReply", TimePoint{380}));
  ev.push_back(make_take_type_erased(TimePoint{512}, kNodeC, false));
  ev.push_back(make_callback_end(TimePoint{513}, kNodeC, CallbackKind::Client));
  return ev;
}

TEST(TraceIndexTest, DiscoversNodesAndIndexes) {
  const auto events = service_scenario();
  TraceIndex index(events);
  EXPECT_EQ(index.nodes().size(), 3u);
  EXPECT_EQ(index.nodes().at(kNodeA), "node_a");
  EXPECT_NE(index.find_write("/svRequest", TimePoint{150}), TraceIndex::npos);
  EXPECT_EQ(index.find_write("/svRequest", TimePoint{999}), TraceIndex::npos);
  EXPECT_EQ(index.find_take_responses("/svReply", TimePoint{380}).size(), 2u);
  // A topic the trace never names misses without being interned.
  const std::size_t strings = index.view().string_count;
  EXPECT_EQ(index.find_write("/absentRequest", TimePoint{150}),
            TraceIndex::npos);
  EXPECT_TRUE(
      index.find_take_responses("/absentReply", TimePoint{380}).empty());
  EXPECT_EQ(index.view().string_count, strings);
}

TEST(FindCallerTest, ResolvesTimerCaller) {
  const auto events = service_scenario();
  TraceIndex index(events);
  // Locate the take_request event.
  std::size_t take_seq = TraceIndex::npos;
  for (std::size_t seq = 0; seq < index.size(); ++seq) {
    const TraceEvent e = index.event_at(seq);
    if (e.type == EventType::Take &&
        e.as<TakeInfo>().kind == TakeKind::Request) {
      take_seq = seq;
    }
  }
  ASSERT_NE(take_seq, TraceIndex::npos);
  EXPECT_EQ(find_caller(index, take_seq), 0x10u);
}

TEST(FindClientTest, ResolvesDispatchedClientOnly) {
  const auto events = service_scenario();
  TraceIndex index(events);
  // Locate the reply dds_write.
  std::size_t write_seq = 0;
  for (std::size_t seq = 0; seq < index.size(); ++seq) {
    const TraceEvent e = index.event_at(seq);
    if (e.type == EventType::DdsWrite &&
        e.as<DdsWriteInfo>().topic == "/svReply") {
      write_seq = seq;
    }
  }
  // Node C's client saw the response first but returned P14=false; the
  // resolution must pick node A's client (0x11).
  EXPECT_EQ(find_client(index, write_seq), 0x11u);
}

/// Every indexed row in (time, seq) order: the merged trace the index
/// stands for, rebuilt without any of its per-pid or per-key lists.
std::vector<std::size_t> chronological_rows(const TraceIndex& index) {
  const ColumnsView v = index.view();
  std::vector<std::size_t> rows(index.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  std::stable_sort(rows.begin(), rows.end(),
                   [&v](std::size_t a, std::size_t b) {
                     return v.time[a] < v.time[b];
                   });
  return rows;
}

bool is_sched(const ColumnsView& v, std::size_t seq) {
  const auto type = static_cast<EventType>(v.type[seq]);
  return type == EventType::SchedSwitch || type == EventType::SchedWakeup;
}

/// FindCaller as a linear scan for the chronologically first matching
/// dds_write, then a forward walk over the writer's events up to it — the
/// pre-index algorithm, kept as the reference.
CallbackId reference_find_caller(const TraceIndex& index,
                                 const std::vector<std::size_t>& rows,
                                 std::size_t take_seq) {
  const ColumnsView v = index.view();
  const std::string_view topic = v.str(v.arg_c[take_seq]);
  std::size_t write_seq = TraceIndex::npos;
  for (const std::size_t seq : rows) {
    if (static_cast<EventType>(v.type[seq]) == EventType::DdsWrite &&
        v.str(v.arg_c[seq]) == topic && v.arg_b[seq] == v.arg_b[take_seq]) {
      write_seq = seq;
      break;
    }
  }
  if (write_seq == TraceIndex::npos) return kInvalidCallbackId;
  CallbackId caller = kInvalidCallbackId;
  for (const std::size_t seq : rows) {
    if (v.pid[seq] != v.pid[write_seq] || is_sched(v, seq)) continue;
    switch (static_cast<EventType>(v.type[seq])) {
      case EventType::CallbackStart:
        caller = kInvalidCallbackId;
        break;
      case EventType::TimerCall:
      case EventType::Take:
        caller = static_cast<CallbackId>(v.arg_a[seq]);
        break;
      default:
        break;
    }
    if (seq == write_seq) break;
  }
  return caller;
}

/// FindClient by linear scans: the first matching take_response whose
/// pid's next P14 dispatches.
CallbackId reference_find_client(const TraceIndex& index,
                                 const std::vector<std::size_t>& rows,
                                 std::size_t write_seq) {
  const ColumnsView v = index.view();
  const std::string_view topic = v.str(v.arg_c[write_seq]);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t take = rows[i];
    if (static_cast<EventType>(v.type[take]) != EventType::Take ||
        static_cast<TakeKind>(v.aux[take]) != TakeKind::Response ||
        v.str(v.arg_c[take]) != topic || v.arg_b[take] != v.arg_b[write_seq]) {
      continue;
    }
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      const std::size_t p14 = rows[j];
      if (v.pid[p14] != v.pid[take] ||
          static_cast<EventType>(v.type[p14]) != EventType::TakeTypeErased) {
        continue;
      }
      if (v.aux[p14] != 0) return static_cast<CallbackId>(v.arg_a[take]);
      break;
    }
  }
  return kInvalidCallbackId;
}

/// Resolves every request take and reply write of `index` both ways;
/// returns the number of lookups compared.
std::size_t expect_lookups_match_reference(const TraceIndex& index,
                                           const std::string& context) {
  const ColumnsView v = index.view();
  const std::vector<std::size_t> rows = chronological_rows(index);
  std::size_t compared = 0;
  for (std::size_t seq = 0; seq < index.size(); ++seq) {
    const auto type = static_cast<EventType>(v.type[seq]);
    if (type == EventType::Take &&
        static_cast<TakeKind>(v.aux[seq]) == TakeKind::Request) {
      EXPECT_EQ(find_caller(index, seq),
                reference_find_caller(index, rows, seq))
          << context << ", take row " << seq;
      ++compared;
    } else if (type == EventType::DdsWrite &&
               is_service_reply_topic(v.str(v.arg_c[seq]))) {
      EXPECT_EQ(find_client(index, seq),
                reference_find_client(index, rows, seq))
          << context << ", write row " << seq;
      ++compared;
    }
  }
  return compared;
}

/// Node A's timer instances around two request writes, with probes lost:
/// the first instance's CB end and the third instance's timer_call.
EventVector dropped_probe_scenario() {
  EventVector ev;
  ev.push_back(make_node_event(TimePoint{0}, kNodeA, "node_a"));
  ev.push_back(make_node_event(TimePoint{0}, kNodeB, "node_b"));
  ev.push_back(
      make_callback_start(TimePoint{100}, kNodeA, CallbackKind::Timer));
  ev.push_back(make_timer_call(TimePoint{101}, kNodeA, 0x10));
  ev.push_back(make_dds_write(TimePoint{150}, kNodeA, "/svRequest",
                              TimePoint{150}));
  ev.push_back(
      make_callback_start(TimePoint{160}, kNodeA, CallbackKind::Timer));
  ev.push_back(make_timer_call(TimePoint{161}, kNodeA, 0x12));
  ev.push_back(make_callback_end(TimePoint{170}, kNodeA, CallbackKind::Timer));
  ev.push_back(
      make_callback_start(TimePoint{200}, kNodeA, CallbackKind::Timer));
  ev.push_back(make_dds_write(TimePoint{250}, kNodeA, "/svRequest",
                              TimePoint{250}));
  ev.push_back(make_callback_end(TimePoint{260}, kNodeA, CallbackKind::Timer));
  for (const std::int64_t src_ts : {150, 250}) {
    ev.push_back(make_callback_start(TimePoint{src_ts + 100}, kNodeB,
                                     CallbackKind::Service));
    ev.push_back(make_take(TimePoint{src_ts + 101}, kNodeB, TakeKind::Request,
                           0x20, "/svRequest", TimePoint{src_ts}));
    ev.push_back(make_callback_end(TimePoint{src_ts + 120}, kNodeB,
                                   CallbackKind::Service));
  }
  sort_by_time(ev);
  return ev;
}

TEST(FindCallerTest, IndexedLookupsMatchLinearReference) {
  // The first request resolves to its instance's timer although the next
  // instance starts right after the write; the second meets its
  // instance's CB start first and stays unresolved.
  const TraceIndex crafted(dropped_probe_scenario());
  EXPECT_EQ(expect_lookups_match_reference(crafted, "dropped probes"), 2u);
  std::vector<CallbackId> callers;
  for (std::size_t seq = 0; seq < crafted.size(); ++seq) {
    const TraceEvent e = crafted.event_at(seq);
    if (e.type == EventType::Take &&
        e.as<TakeInfo>().kind == TakeKind::Request) {
      callers.push_back(find_caller(crafted, seq));
    }
  }
  EXPECT_EQ(callers, (std::vector<CallbackId>{0x10, kInvalidCallbackId}));

  scenario::GeneratorOptions multithreaded;
  multithreaded.p_multithreaded = 1.0;
  std::size_t compared = 0;
  for (const bool mt : {false, true}) {
    const scenario::ScenarioGenerator generator(
        mt ? multithreaded : scenario::GeneratorOptions{});
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const std::string context =
          std::string(mt ? "mt" : "default") + " seed " + std::to_string(seed);
      const EventVector events = scenario::ScenarioRunner()
                                     .run(generator.generate(seed).spec)
                                     .trace;
      compared += expect_lookups_match_reference(TraceIndex(events), context);
      // Pid-partitioned appends interleave in time, so per-key lists are
      // restored by merge_tail.
      EventVector even, odd;
      for (const TraceEvent& e : events) {
        (static_cast<std::uint32_t>(e.pid) % 2 == 0 ? even : odd).push_back(e);
      }
      TraceIndex partitioned;
      partitioned.append(even);
      partitioned.append(odd);
      compared += expect_lookups_match_reference(partitioned,
                                                 context + " partitioned");
    }
  }
  EXPECT_GT(compared, 1000u);
}

TEST(ExtractTest, TimerCallbackAttributes) {
  const auto events = service_scenario();
  TraceIndex index(events);
  const CallbackList list = extract_callbacks(index, kNodeA);
  ASSERT_EQ(list.records.size(), 2u);  // timer + client
  const CallbackRecord& timer = list.records[0];
  EXPECT_EQ(timer.kind, CallbackKind::Timer);
  EXPECT_EQ(timer.id, 0x10u);
  EXPECT_TRUE(timer.in_topic.empty());
  ASSERT_EQ(timer.out_topics.size(), 1u);
  // Request topic annotated with the caller's own id (Alg.1 lines 17-18).
  EXPECT_EQ(timer.out_topics[0], "/svRequest#" + hex_id(0x10));
  EXPECT_EQ(timer.instances(), 1u);
  EXPECT_EQ(timer.start_times[0], TimePoint{100});
  EXPECT_EQ(timer.exec_times[0], Duration::ns(100));  // no sched events
}

TEST(ExtractTest, ServiceInTopicAnnotatedWithCaller) {
  const auto events = service_scenario();
  TraceIndex index(events);
  const CallbackList list = extract_callbacks(index, kNodeB);
  ASSERT_EQ(list.records.size(), 1u);
  const CallbackRecord& service = list.records[0];
  EXPECT_EQ(service.kind, CallbackKind::Service);
  EXPECT_EQ(service.in_topic, "/svRequest#" + hex_id(0x10));
  ASSERT_EQ(service.out_topics.size(), 1u);
  // Reply topic annotated with the dispatched client (lines 19-20).
  EXPECT_EQ(service.out_topics[0], "/svReply#" + hex_id(0x11));
}

TEST(ExtractTest, ClientInTopicAnnotatedWithOwnId) {
  const auto events = service_scenario();
  TraceIndex index(events);
  const CallbackList list = extract_callbacks(index, kNodeA);
  const CallbackRecord& client = list.records[1];
  EXPECT_EQ(client.kind, CallbackKind::Client);
  EXPECT_EQ(client.in_topic, "/svReply#" + hex_id(0x11));
}

TEST(ExtractTest, NonDispatchedClientInstanceDropped) {
  const auto events = service_scenario();
  TraceIndex index(events);
  const CallbackList list = extract_callbacks(index, kNodeC);
  // Node C's only activity was the non-dispatched response: nothing stored
  // (Alg. 1 lines 24-25).
  EXPECT_TRUE(list.records.empty());
}

TEST(ExtractTest, SubscriberAndSyncMarking) {
  EventVector ev;
  ev.push_back(make_node_event(TimePoint{0}, kNodeA, "fusion"));
  ev.push_back(make_callback_start(TimePoint{100}, kNodeA,
                                   CallbackKind::Subscription));
  ev.push_back(make_take(TimePoint{101}, kNodeA, TakeKind::Data, 0x40, "/f1",
                         TimePoint{90}));
  ev.push_back(make_sync_operator(TimePoint{102}, kNodeA, 0x40));
  ev.push_back(make_callback_end(TimePoint{180}, kNodeA,
                                 CallbackKind::Subscription));
  TraceIndex index(ev);
  const CallbackList list = extract_callbacks(index, kNodeA);
  ASSERT_EQ(list.records.size(), 1u);
  EXPECT_EQ(list.records[0].in_topic, "/f1");  // data topics unannotated
  EXPECT_TRUE(list.records[0].is_sync_subscriber);
}

TEST(ExtractTest, ServiceSplitsPerCallerViaMatching) {
  // The same service id takes requests from two different callers; Alg.1's
  // matching (id + in_topic for services) must create two entries.
  EventVector ev;
  ev.push_back(make_node_event(TimePoint{0}, kNodeA, "caller_a"));
  ev.push_back(make_node_event(TimePoint{0}, kNodeC, "caller_c"));
  ev.push_back(make_node_event(TimePoint{0}, kNodeB, "server"));
  // Caller A (timer 0x10).
  ev.push_back(make_callback_start(TimePoint{100}, kNodeA, CallbackKind::Timer));
  ev.push_back(make_timer_call(TimePoint{101}, kNodeA, 0x10));
  ev.push_back(make_dds_write(TimePoint{120}, kNodeA, "/svRequest", TimePoint{120}));
  ev.push_back(make_callback_end(TimePoint{150}, kNodeA, CallbackKind::Timer));
  // Caller C (timer 0x31).
  ev.push_back(make_callback_start(TimePoint{200}, kNodeC, CallbackKind::Timer));
  ev.push_back(make_timer_call(TimePoint{201}, kNodeC, 0x31));
  ev.push_back(make_dds_write(TimePoint{220}, kNodeC, "/svRequest", TimePoint{220}));
  ev.push_back(make_callback_end(TimePoint{250}, kNodeC, CallbackKind::Timer));
  // Server handles both (service id 0x20).
  for (std::int64_t base : {300, 400}) {
    ev.push_back(make_callback_start(TimePoint{base}, kNodeB,
                                     CallbackKind::Service));
    ev.push_back(make_take(TimePoint{base + 1}, kNodeB, TakeKind::Request, 0x20,
                           "/svRequest", TimePoint{base == 300 ? 120 : 220}));
    ev.push_back(make_callback_end(TimePoint{base + 50}, kNodeB,
                                   CallbackKind::Service));
  }
  TraceIndex index(ev);
  const CallbackList list = extract_callbacks(index, kNodeB);
  ASSERT_EQ(list.records.size(), 2u);  // split per caller
  EXPECT_EQ(list.records[0].id, list.records[1].id);
  EXPECT_NE(list.records[0].in_topic, list.records[1].in_topic);
}

TEST(ExtractTest, RepeatedInstancesAggregate) {
  EventVector ev;
  ev.push_back(make_node_event(TimePoint{0}, kNodeA, "periodic"));
  for (int i = 0; i < 10; ++i) {
    const std::int64_t base = 1000 * (i + 1);
    ev.push_back(make_callback_start(TimePoint{base}, kNodeA,
                                     CallbackKind::Timer));
    ev.push_back(make_timer_call(TimePoint{base + 1}, kNodeA, 0x10));
    ev.push_back(make_callback_end(TimePoint{base + 100 + i}, kNodeA,
                                   CallbackKind::Timer));
  }
  TraceIndex index(ev);
  const CallbackList list = extract_callbacks(index, kNodeA);
  ASSERT_EQ(list.records.size(), 1u);
  const CallbackRecord& timer = list.records[0];
  EXPECT_EQ(timer.instances(), 10u);
  EXPECT_EQ(timer.stats.mbcet(), Duration::ns(100));
  EXPECT_EQ(timer.stats.mwcet(), Duration::ns(109));
  // Period estimation from consecutive starts (1000 ns apart).
  EXPECT_EQ(timer.estimated_period().value(), Duration::ns(1000));
}

TEST(ExtractTest, UnmatchedEndIgnored) {
  EventVector ev;
  ev.push_back(make_node_event(TimePoint{0}, kNodeA, "torn"));
  // End without start (tracer attached mid-callback).
  ev.push_back(make_callback_end(TimePoint{100}, kNodeA, CallbackKind::Timer));
  TraceIndex index(ev);
  EXPECT_TRUE(extract_callbacks(index, kNodeA).records.empty());
}

TEST(NormalizeTest, AssignsOrdinalLabelsAndRewritesAnnotations) {
  const auto events = service_scenario();
  TraceIndex index(events);
  std::vector<CallbackList> lists = extract_all_nodes(index);
  normalize_labels(lists);
  const CallbackRecord* timer = nullptr;
  const CallbackRecord* service = nullptr;
  const CallbackRecord* client = nullptr;
  for (const auto& list : lists) {
    for (const auto& record : list.records) {
      if (record.kind == CallbackKind::Timer) timer = &record;
      if (record.kind == CallbackKind::Service) service = &record;
      if (record.kind == CallbackKind::Client) client = &record;
    }
  }
  ASSERT_NE(timer, nullptr);
  ASSERT_NE(service, nullptr);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(timer->label, "node_a/T1");
  EXPECT_EQ(service->label, "node_b/SV1");
  EXPECT_EQ(client->label, "node_a/CL1");
  // Annotations rewritten from raw ids to labels.
  EXPECT_EQ(service->in_topic, "/svRequest#node_a/T1");
  EXPECT_EQ(service->out_topics[0], "/svReply#node_a/CL1");
  EXPECT_EQ(client->in_topic, "/svReply#node_a/CL1");
  EXPECT_EQ(timer->out_topics[0], "/svRequest#node_a/T1");
}

TEST(NormalizeTest, OrdinalsFollowIdOrder) {
  EventVector ev;
  ev.push_back(make_node_event(TimePoint{0}, kNodeA, "n"));
  // Two timers, discovered in reverse id order.
  for (auto [id, base] : std::vector<std::pair<CallbackId, std::int64_t>>{
           {0x50, 100}, {0x10, 300}}) {
    ev.push_back(make_callback_start(TimePoint{base}, kNodeA,
                                     CallbackKind::Timer));
    ev.push_back(make_timer_call(TimePoint{base + 1}, kNodeA, id));
    ev.push_back(make_callback_end(TimePoint{base + 10}, kNodeA,
                                   CallbackKind::Timer));
  }
  TraceIndex index(ev);
  std::vector<CallbackList> lists = extract_all_nodes(index);
  normalize_labels(lists);
  // Label ordinals follow id order (creation order), not discovery order.
  const auto& records = lists[0].records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 0x50u);
  EXPECT_EQ(records[0].label, "n/T2");
  EXPECT_EQ(records[1].label, "n/T1");
}

TEST(AnnotationTest, SplitAnnotatedTopic) {
  auto [plain, suffix] = split_annotated_topic("/svReply#node_a/CL1");
  EXPECT_EQ(plain, "/svReply");
  EXPECT_EQ(suffix, "node_a/CL1");
  auto [plain2, suffix2] = split_annotated_topic("/plain");
  EXPECT_EQ(plain2, "/plain");
  EXPECT_TRUE(suffix2.empty());
}

TEST(TopicClassificationTest, RequestReplySuffixes) {
  EXPECT_TRUE(is_service_request_topic("/sv3Request"));
  EXPECT_TRUE(is_service_reply_topic("/sv3Reply"));
  EXPECT_FALSE(is_service_request_topic("/lidar/points_raw"));
  EXPECT_FALSE(is_service_reply_topic("/sv3Request"));
}

}  // namespace
}  // namespace tetra::core
