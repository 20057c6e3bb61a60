// Reproduces the §V deployment study: traces collected in segments can be
// (i) merged first and synthesized once, or (ii) synthesized per segment
// with the DAGs merged afterwards (the paper's choice). Both must agree
// structurally; this bench verifies that (the exit status) and reports
// synthesis costs.
//
// Knobs: TETRA_SEGMENTS (default 10), TETRA_DURATION (per-segment s, default 5).
#include <chrono>
#include <cstdio>

#include "api/session.hpp"
#include "bench_util.hpp"
#include "ebpf/tracers.hpp"
#include "support/string_utils.hpp"
#include "trace/merge.hpp"
#include "workloads/syn_app.hpp"

int main() {
  using namespace tetra;
  bench::banner("§V deployment - merge traces vs merge DAGs");

  const int segments = bench::env_int("TETRA_SEGMENTS", 10);
  const Duration duration =
      bench::env_seconds("TETRA_DURATION", Duration::sec(5));
  bench::note(format("%d tracing segments of %.0fs over one SYN run",
                     segments, duration.to_sec()));

  ros2::Context ctx;
  ebpf::TracerSuite suite(ctx);
  suite.start_init();
  workloads::build_syn_app(ctx);
  const auto init_trace = suite.stop_init();
  std::vector<trace::EventVector> traces;
  std::size_t total_events = 0;
  for (int segment = 0; segment < segments; ++segment) {
    suite.start_runtime();
    ctx.run_for(duration);
    traces.push_back(trace::merge_sorted({init_trace, suite.stop_runtime()}));
    total_events += traces.back().size();
  }
  bench::note(format("collected %zu events across segments", total_events));

  const auto clock = [] { return std::chrono::steady_clock::now(); };

  // Option (i): every segment under one trace id, merged into one stream,
  // one synthesis.
  api::SynthesisSession merge_traces_session;
  for (const auto& segment : traces) {
    merge_traces_session.ingest(segment, {.trace_id = "run", .mode = ""});
  }
  auto t0 = clock();
  const core::Dag from_traces = merge_traces_session.model().value().dag;
  auto t1 = clock();

  // Option (ii): one trace id, so one DAG, per segment, merged afterwards.
  api::SynthesisSession merge_dags_session;
  for (const auto& segment : traces) merge_dags_session.ingest(segment);
  auto t2 = clock();
  const core::Dag from_dags = merge_dags_session.model().value().dag;
  auto t3 = clock();

  std::printf("\n%-40s %12s %12s\n", "", "option (i)", "option (ii)");
  std::printf("%-40s %12zu %12zu\n", "vertices", from_traces.vertex_count(),
              from_dags.vertex_count());
  std::printf("%-40s %12zu %12zu\n", "edges", from_traces.edge_count(),
              from_dags.edge_count());
  std::printf("%-40s %12.1f %12.1f\n", "synthesis wall time (ms)",
              std::chrono::duration<double, std::milli>(t1 - t0).count(),
              std::chrono::duration<double, std::milli>(t3 - t2).count());

  bool structurally_equal = from_traces.vertex_count() == from_dags.vertex_count() &&
                            from_traces.edge_count() == from_dags.edge_count();
  std::size_t instance_diff = 0;
  for (const auto& vertex : from_dags.vertices()) {
    const auto* other = from_traces.find_vertex(vertex.key);
    if (other == nullptr) {
      structurally_equal = false;
      continue;
    }
    instance_diff += vertex.instance_count > other->instance_count
                         ? vertex.instance_count - other->instance_count
                         : other->instance_count - vertex.instance_count;
  }
  std::printf("%-40s %25s\n", "structurally identical",
              structurally_equal ? "yes" : "NO");
  std::printf("%-40s %25zu\n", "summed instance-count delta", instance_diff);

  bench::note(
      "\nThe paper uses option (ii) for its experiments; option (i) applies "
      "to segments sharing PIDs/ids (one run). Across separate runs only "
      "option (ii) is meaningful because ids and timestamps collide.");
  return structurally_equal ? 0 : 1;
}
