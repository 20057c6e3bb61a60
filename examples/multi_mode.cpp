// Multi-mode model synthesis (paper §V option iv): traces collected per
// operating scenario — here "parking" (AVP active) versus "idle" (SYN
// only) — are merged per mode, yielding a multi-mode DAG that records
// which callbacks exist in which mode. Each run streams into one
// api::SynthesisSession under its own trace id and mode tag: the session
// is the trace database of Fig. 2.
//
//   $ ./multi_mode
#include <cstdio>

#include "api/session.hpp"
#include "ebpf/tracers.hpp"
#include "trace/merge.hpp"
#include "workloads/avp_localization.hpp"
#include "workloads/syn_app.hpp"

namespace {

tetra::trace::EventVector trace_one_run(bool with_avp, std::uint64_t seed) {
  using namespace tetra;
  ros2::Context::Config config;
  config.seed = seed;
  ros2::Context ctx(config);
  ebpf::TracerSuite suite(ctx);
  suite.start_init();
  workloads::AvpApp avp;
  if (with_avp) {
    workloads::AvpOptions options;
    options.run_duration = Duration::sec(8);
    avp = workloads::build_avp_localization(ctx, options);
  }
  workloads::build_syn_app(ctx);
  auto init_trace = suite.stop_init();
  suite.start_runtime();
  ctx.run_for(Duration::sec(8));
  return trace::merge_sorted({init_trace, suite.stop_runtime()});
}

}  // namespace

int main() {
  using namespace tetra;

  // Two runs per mode, as the deployment workflow of Fig. 2 suggests:
  // runs become logical traces, mode tags carry over, and per-run
  // synthesis shares two workers.
  struct Run {
    const char* id;
    const char* mode;
    bool with_avp;
    std::uint64_t seed;
  };
  const Run runs[] = {{"idle-1", "idle", false, 201},
                      {"idle-2", "idle", false, 202},
                      {"parking-1", "parking", true, 101},
                      {"parking-2", "parking", true, 102}};
  api::SynthesisSession session(api::SynthesisConfig().threads(2));
  for (const Run& run : runs) {
    const auto ingested =
        session.ingest(trace_one_run(run.with_avp, run.seed),
                       {.trace_id = run.id, .mode = run.mode});
    if (!ingested.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   ingested.error().to_string().c_str());
      return 1;
    }
  }
  std::printf("session: %zu traces, %zu events\n", session.trace_count(),
              session.event_count());

  const api::Result<core::MultiModeDag> result = session.multi_mode_model();
  if (!result.ok()) {
    std::fprintf(stderr, "synthesis failed: %s\n",
                 result.error().to_string().c_str());
    return 1;
  }
  const core::MultiModeDag& multi = *result;

  for (const auto& mode : multi.modes()) {
    const auto* dag = multi.mode_dag(mode);
    std::printf("\nmode '%s': %zu vertices, %zu edges\n", mode.c_str(),
                dag->vertex_count(), dag->edge_count());
  }
  const auto combined = multi.combined();
  std::printf("\ncombined multi-mode model: %zu vertices\n",
              combined.vertex_count());
  std::printf("\nvertices by mode membership:\n");
  for (const auto& vertex : combined.vertices()) {
    const auto modes = multi.modes_of_vertex(vertex.key);
    std::string mode_list;
    for (const auto& mode : modes) {
      if (!mode_list.empty()) mode_list += ",";
      mode_list += mode;
    }
    std::printf("  %-44s [%s]\n", vertex.key.c_str(), mode_list.c_str());
  }
  return 0;
}
