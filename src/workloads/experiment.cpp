#include "workloads/experiment.hpp"

#include <stdexcept>

#include "api/session.hpp"
#include "sched/interference.hpp"

namespace tetra::workloads {

CaseStudyResult run_case_study(
    const CaseStudyConfig& config,
    const std::function<void(const RunResult&)>& per_run) {
  CaseStudyResult result;
  // One streaming session spans the whole case study: each run's trace is
  // ingested as its own logical trace, and the final §V option (ii) merge
  // reuses every cached per-run DAG. A per_run observer needs each model
  // the moment its run completes, which forces eager inline synthesis
  // (and lets traces be released immediately, keeping memory bounded);
  // without an observer, synthesis is deferred so all runs hit the
  // config.threads worker pool in one batch.
  const bool eager = static_cast<bool>(per_run);
  api::SynthesisSession session(
      api::SynthesisConfig()
          .core_options(config.synthesis)
          .threads(config.threads));
  Rng run_rng(config.seed);

  for (int run = 0; run < config.runs; ++run) {
    // Fresh context per run: new PIDs, new pseudo-addresses, new phases —
    // as with real process restarts.
    ros2::Context::Config ctx_config;
    ctx_config.num_cpus = config.num_cpus;
    ctx_config.seed = config.seed * 1000003ULL + static_cast<std::uint64_t>(run);
    ros2::Context ctx(ctx_config);

    ebpf::TracerSuite suite(ctx);
    suite.start_init();

    const double load_factor =
        run_rng.uniform(config.syn_load_min, config.syn_load_max);

    RunResult run_result;
    run_result.run_index = run;
    run_result.syn_load_factor = load_factor;

    AvpApp avp;
    SynApp syn;
    if (config.with_avp) {
      AvpOptions avp_options;
      avp_options.run_duration = config.run_duration;
      // Cache/memory contention responds convexly to co-runner load: only
      // near-peak SYN loads push AVP execution times appreciably. This is
      // what makes the cumulative mWCET keep creeping up until a run with
      // near-maximal interference has occurred (paper Fig. 4: ~run 23).
      const double span = config.syn_load_max - config.syn_load_min;
      const double normalized =
          span > 0.0 ? (load_factor - config.syn_load_min) / span : 0.0;
      avp_options.contention = config.contention_coefficient * normalized *
                               normalized * normalized;
      avp = build_avp_localization(ctx, avp_options);
    }
    if (config.with_syn) {
      syn = build_syn_app(ctx, SynOptions{load_factor});
    }
    if (config.interference_threads > 0) {
      Rng interference_rng = ctx.rng().fork();
      sched::spawn_interference(ctx.machine(), interference_rng,
                                config.interference_threads,
                                sched::InterferenceConfig{});
    }

    trace::EventVector init_trace = suite.stop_init();
    suite.start_runtime();
    ctx.run_for(config.run_duration);
    trace::EventVector runtime_trace = suite.stop_runtime();

    const std::string trace_id = "run-" + std::to_string(run);
    const api::IngestOptions segment{.trace_id = trace_id, .mode = ""};
    session.ingest(std::move(init_trace), segment);
    session.ingest(std::move(runtime_trace), segment);

    run_result.overhead = suite.overhead_report();
    run_result.app_busy_time = ctx.machine().total_busy_time();
    if (eager) {
      api::Result<core::TimingModel> model = session.trace_model(trace_id);
      if (!model.ok()) {
        throw std::runtime_error("case-study synthesis failed: " +
                                 model.error().to_string());
      }
      run_result.model = std::move(model).take();
      if (config.keep_traces) {
        run_result.trace = session.merged_events(trace_id).value();
      }
      // Keep the session's memory bounded across long sweeps: the cached
      // per-run DAG is all the final merge needs.
      session.release_events(trace_id);
      per_run(run_result);
    }
    result.runs.push_back(std::move(run_result));

    if (config.with_avp && result.avp_labels.empty()) {
      result.avp_labels = avp.label_of;
      result.avp_chain_topics = avp.chain_topics;
    }
    if (config.with_syn && result.syn_labels.empty()) {
      result.syn_labels = syn.label_of;
    }
  }
  // Final §V option (ii) merge. Eager mode arrives with every trace
  // clean (pure DAG union); deferred mode synthesizes all runs here on
  // the worker pool, then back-fills the per-run results.
  api::Result<core::TimingModel> merged = session.model();
  if (!merged.ok()) {
    throw std::runtime_error("case-study merge failed: " +
                             merged.error().to_string());
  }
  result.merged_dag = std::move(merged).take().dag;
  if (!eager) {
    for (RunResult& run_result : result.runs) {
      const std::string trace_id =
          "run-" + std::to_string(run_result.run_index);
      run_result.model = session.trace_model(trace_id).value();  // cached
      if (config.keep_traces) {
        run_result.trace = session.merged_events(trace_id).value();
      }
      session.release_events(trace_id);
    }
  }
  result.observed_span = config.run_duration * config.runs;
  return result;
}

}  // namespace tetra::workloads
