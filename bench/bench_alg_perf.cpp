// google-benchmark microbenchmarks of the synthesis pipeline itself:
// Algorithm 1 extraction, Algorithm 2 execution-time computation (naive vs
// indexed), TraceIndex construction, DAG building and serialization
// throughput. These quantify that model synthesis is an offline pass that
// comfortably handles multi-minute traces.
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "api/session.hpp"
#include "core/model_synthesis.hpp"
#include "ebpf/tracers.hpp"
#include "trace/merge.hpp"
#include "trace/serialize.hpp"
#include "workloads/syn_app.hpp"

namespace {

using namespace tetra;

/// The SYN app traced for `seconds` simulated seconds, cached per length.
const trace::EventVector& syn_trace(int seconds = 30) {
  static std::map<int, trace::EventVector> cache;
  auto it = cache.find(seconds);
  if (it == cache.end()) {
    ros2::Context ctx;
    ebpf::TracerSuite suite(ctx);
    suite.start_init();
    workloads::build_syn_app(ctx);
    auto init_trace = suite.stop_init();
    suite.start_runtime();
    ctx.run_for(Duration::sec(seconds));
    it = cache
             .emplace(seconds,
                      trace::merge_sorted({init_trace, suite.stop_runtime()}))
             .first;
  }
  return it->second;
}

void BM_TraceIndexBuild(benchmark::State& state) {
  const auto& events = syn_trace();
  for (auto _ : state) {
    core::TraceIndex index(events);
    benchmark::DoNotOptimize(index.nodes().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_TraceIndexBuild);

void BM_Algorithm1Extraction(benchmark::State& state) {
  const auto& events = syn_trace();
  core::TraceIndex index(events);
  for (auto _ : state) {
    auto lists = core::extract_all_nodes(index);
    benchmark::DoNotOptimize(lists.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_Algorithm1Extraction);

void BM_FindCaller(benchmark::State& state) {
  // Per-lookup cost over traces of growing length: an indexed FindCaller
  // stays flat, a walk over the writer's history grows with the trace.
  const auto& events = syn_trace(static_cast<int>(state.range(0)));
  const core::TraceIndex index(events);
  const trace::ColumnsView v = index.view();
  std::vector<std::size_t> request_takes;
  for (std::size_t seq = 0; seq < index.size(); ++seq) {
    if (static_cast<trace::EventType>(v.type[seq]) == trace::EventType::Take &&
        static_cast<trace::TakeKind>(v.aux[seq]) ==
            trace::TakeKind::Request) {
      request_takes.push_back(seq);
    }
  }
  for (auto _ : state) {
    for (const std::size_t seq : request_takes) {
      benchmark::DoNotOptimize(core::find_caller(index, seq));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(request_takes.size()));
}
BENCHMARK(BM_FindCaller)->Arg(10)->Arg(30)->Arg(60);

void BM_Algorithm2Indexed(benchmark::State& state) {
  const auto& events = syn_trace();
  const core::TraceIndex index(events);
  // Representative windows: every callback instance of the busiest PID.
  std::vector<std::pair<TimePoint, TimePoint>> windows;
  Pid pid = kInvalidPid;
  TimePoint start;
  for (const auto& e : events) {
    if (e.type == trace::EventType::CallbackStart) {
      pid = e.pid;
      start = e.time;
    } else if (e.type == trace::EventType::CallbackEnd && e.pid == pid) {
      windows.push_back({start, e.time});
    }
  }
  const std::vector<core::CpuSwitch>& switches = index.switches_of(pid);
  for (auto _ : state) {
    Duration total = Duration::zero();
    for (const auto& [from, to] : windows) {
      total += core::exec_time(switches, from, to);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_Algorithm2Indexed);

void BM_Algorithm2NaivePaper(benchmark::State& state) {
  const auto& events = syn_trace();
  trace::EventVector sched;
  for (const auto& e : events) {
    if (e.type == trace::EventType::SchedSwitch) sched.push_back(e);
  }
  // One window in the middle of the trace.
  const TimePoint mid{events[events.size() / 2].time};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::exec_time_naive(
        mid, mid + Duration::ms(5), events[events.size() / 2].pid, sched));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sched.size()));
}
BENCHMARK(BM_Algorithm2NaivePaper);

void BM_SessionSynthesis(benchmark::State& state) {
  // The streaming path: a session borrows the sorted trace (no index
  // copy).
  const auto& events = syn_trace();
  for (auto _ : state) {
    api::SynthesisSession session;
    session.ingest(events);
    benchmark::DoNotOptimize(session.model().value().dag.vertex_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_SessionSynthesis);

void BM_DagMerge(benchmark::State& state) {
  const auto& events = syn_trace();
  api::SynthesisSession session;
  session.ingest(events);
  const core::Dag dag = session.model().value().dag;
  for (auto _ : state) {
    core::Dag merged;
    for (int i = 0; i < 50; ++i) merged.merge(dag);
    benchmark::DoNotOptimize(merged.vertex_count());
  }
}
BENCHMARK(BM_DagMerge);

void BM_TraceSerializeJsonl(benchmark::State& state) {
  const auto& events = syn_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::to_jsonl(events).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_TraceSerializeJsonl);

void BM_TraceParseJsonl(benchmark::State& state) {
  const std::string text = trace::to_jsonl(syn_trace());
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::events_from_jsonl(text).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(syn_trace().size()));
}
BENCHMARK(BM_TraceParseJsonl);

}  // namespace

BENCHMARK_MAIN();
