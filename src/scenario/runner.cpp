#include "scenario/runner.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "api/session.hpp"
#include "overhead/estimator.hpp"
#include "trace/merge.hpp"

namespace tetra::scenario {

ScenarioInstance ScenarioRunner::instantiate(ros2::Context& ctx,
                                             const ScenarioSpec& spec,
                                             double demand_scale) {
  if (const auto issues = validate_spec(spec); !issues.empty()) {
    std::string message = "invalid scenario spec '" + spec.name + "':";
    for (const auto& issue : issues) message += "\n  " + issue;
    throw std::invalid_argument(message);
  }

  ScenarioInstance instance;
  for (const auto& node_spec : spec.nodes) {
    ros2::NodeOptions options;
    options.name = node_spec.name;
    options.priority = node_spec.priority;
    options.policy = node_spec.policy;
    options.affinity_mask = node_spec.affinity_mask;
    options.executor_threads = node_spec.executor_threads;
    ros2::Node& node = ctx.create_node(std::move(options));
    instance.node_of[node_spec.name] = &node;

    // Callback groups: index 0 is the node's default mutually-exclusive
    // group, the spec's callback_groups define the extras.
    std::vector<ros2::CallbackGroup*> groups;
    groups.push_back(&node.default_callback_group());
    for (const auto& group_spec : node_spec.callback_groups) {
      groups.push_back(&node.create_callback_group(
          group_spec.policy == GroupPolicy::Reentrant
              ? ros2::CallbackGroupKind::Reentrant
              : ros2::CallbackGroupKind::MutuallyExclusive));
    }

    // One Publisher per distinct topic the node writes; handle addresses
    // are stable (unique_ptr storage), so plans can capture references.
    std::map<std::string, ros2::Publisher*> publishers;
    auto publisher_for = [&](const std::string& topic) -> ros2::Publisher& {
      auto it = publishers.find(topic);
      if (it == publishers.end()) {
        it = publishers.emplace(topic, &node.create_publisher(topic)).first;
      }
      return *it->second;
    };

    std::vector<ros2::Client*> clients;
    auto build_plan = [&](const DurationDistribution& demand,
                          const std::vector<EffectSpec>& effects) {
      ros2::Plan plan;
      plan.compute(demand.scaled(demand_scale));
      for (const auto& effect : effects) {
        if (effect.kind == EffectSpec::Kind::Publish) {
          ros2::Publisher& pub = publisher_for(effect.topic);
          plan.then([&pub, bytes = effect.bytes](ros2::ActionContext& action) {
            action.publish(pub, bytes);
          });
        } else {
          ros2::Client* client = clients.at(effect.client);
          plan.then([client, bytes = effect.bytes](ros2::ActionContext& action) {
            action.call(*client, bytes);
          });
        }
      }
      return plan;
    };

    // Clients first: the plan of any other callback — and of later clients
    // — may reference them by index.
    for (const auto& client_spec : node_spec.clients) {
      clients.push_back(&node.create_client(
          client_spec.service,
          build_plan(client_spec.demand, client_spec.effects),
          groups.at(client_spec.group)));
    }
    for (const auto& timer_spec : node_spec.timers) {
      node.create_timer(timer_spec.period,
                        build_plan(timer_spec.demand, timer_spec.effects),
                        timer_spec.phase, groups.at(timer_spec.group));
    }
    std::vector<ros2::Subscription*> subscriptions;
    for (const auto& sub_spec : node_spec.subscriptions) {
      subscriptions.push_back(&node.create_subscription(
          sub_spec.topic, build_plan(sub_spec.demand, sub_spec.effects),
          groups.at(sub_spec.group)));
    }
    for (const auto& service_spec : node_spec.services) {
      node.create_service(
          service_spec.service,
          build_plan(service_spec.demand, service_spec.effects),
          groups.at(service_spec.group));
    }
    for (const auto& group_spec : node_spec.sync_groups) {
      std::vector<ros2::Subscription*> members;
      for (std::size_t member : group_spec.members) {
        members.push_back(subscriptions.at(member));
      }
      node.create_sync_group(members,
                             group_spec.fusion_demand.scaled(demand_scale),
                             publisher_for(group_spec.output_topic),
                             group_spec.output_bytes);
    }
  }

  const TimePoint until = ctx.simulator().now() + spec.run_duration;
  for (const auto& input : spec.external_inputs) {
    auto writer = std::make_unique<dds::PeriodicWriter>(
        ctx.domain(), input.topic, input.pid, input.period, input.phase,
        input.bytes);
    if (input.jitter > Duration::zero()) {
      writer->set_jitter(
          DurationDistribution::uniform(-input.jitter, input.jitter),
          ctx.rng().fork());
    }
    writer->start(until);
    instance.external_writers.push_back(std::move(writer));
  }
  return instance;
}

ScenarioRunner::TracedRun ScenarioRunner::trace_run(
    const ScenarioSpec& spec, double demand_scale,
    std::uint64_t run_index) const {
  ros2::Context::Config config;
  config.num_cpus = spec.num_cpus;
  config.seed = spec.seed * 1000003ULL + run_index + 0x7e74ULL;
  ros2::Context ctx(config);

  ebpf::TracerSuite::Options suite_options;
  suite_options.probe_profile = options_.probe_profile;
  // Mix the run seed into the jitter/sampling seed: re-running the same
  // (spec, profile, run_index) reproduces the trace byte for byte, while
  // distinct runs draw independent jitter.
  suite_options.probe_profile.seed ^= config.seed;
  ebpf::TracerSuite suite(ctx, suite_options);
  suite.start_init();
  ScenarioInstance instance = instantiate(ctx, spec, demand_scale);
  if (options_.interference_threads > 0) {
    Rng interference_rng = ctx.rng().fork();
    sched::spawn_interference(ctx.machine(), interference_rng,
                              options_.interference_threads,
                              options_.interference);
  }

  TracedRun traced;
  traced.init_trace = suite.stop_init();
  suite.start_runtime();
  ctx.run_for(spec.run_duration);
  traced.runtime_trace = suite.stop_runtime();
  traced.overhead = suite.overhead_report();
  return traced;
}

api::SynthesisConfig ScenarioRunner::session_config() const {
  return api::SynthesisConfig()
      .core_options(options_.synthesis)
      .threads(options_.threads)
      .compensate_overhead(options_.compensate_overhead);
}

ScenarioRunResult ScenarioRunner::run(const ScenarioSpec& spec,
                                      double demand_scale,
                                      std::uint64_t run_index) const {
  TracedRun traced = trace_run(spec, demand_scale, run_index);

  // Merge the init and runtime tracer outputs once; ingested as a single
  // sorted segment, merged_events() is a plain copy (its sort finds the
  // events already in order).
  api::SynthesisSession session(session_config());
  session.ingest(trace::merge_sorted({std::move(traced.init_trace),
                                      std::move(traced.runtime_trace)}),
                 {.trace_id = "run", .mode = ""});

  ScenarioRunResult result;
  result.trace = session.merged_events("run").value();
  api::Result<core::TimingModel> model = session.model();
  if (!model.ok()) {
    throw std::runtime_error("scenario synthesis failed: " +
                             model.error().to_string());
  }
  result.model = std::move(model).take();
  result.overhead = traced.overhead;
  return result;
}

core::MultiModeDag ScenarioRunner::run_modes(const ScenarioSpec& spec) const {
  std::vector<ModeSpec> modes = spec.modes;
  if (modes.empty()) modes.push_back(ModeSpec{"nominal", 1.0});

  // One session accumulates all per-mode traces; the per-mode DAG merge
  // (§V option iv) happens in multi_mode_model, with per-trace synthesis
  // parallelized across options_.threads workers.
  api::SynthesisSession session(session_config());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    TracedRun traced = trace_run(spec, modes[i].demand_scale, i + 1);
    const api::IngestOptions segment{
        .trace_id = "mode-" + std::to_string(i), .mode = modes[i].name};
    session.ingest(std::move(traced.init_trace), segment);
    session.ingest(std::move(traced.runtime_trace), segment);
  }
  api::Result<core::MultiModeDag> result = session.multi_mode_model();
  if (!result.ok()) {
    throw std::runtime_error("multi-mode synthesis failed: " +
                             result.error().to_string());
  }
  return std::move(result).take();
}

namespace {

core::TimingModel synthesize_events(const trace::EventVector& events,
                                    api::SynthesisConfig config) {
  api::SynthesisSession session(std::move(config));
  session.ingest(events, {.trace_id = "round-trip", .mode = ""});
  api::Result<core::TimingModel> model = session.model();
  if (!model.ok()) {
    throw std::runtime_error("round-trip synthesis failed: " +
                             model.error().to_string());
  }
  return std::move(model).take();
}

OverheadRoundTrip compare_to_truth(const core::Dag& truth,
                                   const core::Dag& probed) {
  OverheadRoundTrip result;
  double abs_sum = 0.0;
  for (const auto& vertex : truth.vertices()) {
    const core::DagVertex* other = probed.find_vertex(vertex.key);
    if (other == nullptr) {
      ++result.unmatched;
      continue;
    }
    OverheadRoundTrip::Entry entry;
    entry.label = vertex.key;
    entry.truth_ns = vertex.macet().count_ns();
    entry.measured_ns = other->macet().count_ns();
    const double err =
        std::abs(static_cast<double>(entry.measured_ns - entry.truth_ns));
    abs_sum += err;
    if (err > result.max_abs_error_ns) result.max_abs_error_ns = err;
    result.entries.push_back(std::move(entry));
    ++result.matched;
  }
  for (const auto& vertex : probed.vertices()) {
    if (truth.find_vertex(vertex.key) == nullptr) ++result.unmatched;
  }
  if (result.matched > 0) {
    result.mean_abs_error_ns = abs_sum / static_cast<double>(result.matched);
  }
  return result;
}

}  // namespace

OverheadRoundTripResult run_overhead_round_trip(
    const ScenarioSpec& spec, const overhead::ProbeCostProfile& profile,
    const RunnerOptions& base) {
  // Ground truth: the same run under a cost-free tracer.
  RunnerOptions free_options = base;
  free_options.probe_profile = overhead::ProbeCostProfile{};
  free_options.compensate_overhead = false;
  const ScenarioRunResult truth = ScenarioRunner(free_options).run(spec);

  // One probed run; its merged trace is synthesized both ways below, so
  // the comparison isolates compensation (not run-to-run variation).
  RunnerOptions probed_options = base;
  probed_options.probe_profile = profile;
  probed_options.compensate_overhead = false;
  ScenarioRunner probed_runner(probed_options);
  const ScenarioRunResult probed = probed_runner.run(spec);

  OverheadRoundTripResult result;
  result.overhead = probed.overhead;
  result.estimated_per_hit =
      overhead::estimate_probe_cost(probed.trace).per_hit;
  result.uncompensated =
      compare_to_truth(truth.model.dag, probed.model.dag);
  const core::TimingModel compensated = synthesize_events(
      probed.trace,
      probed_runner.session_config().compensate_overhead(true));
  result.compensated = compare_to_truth(truth.model.dag, compensated.dag);
  return result;
}

}  // namespace tetra::scenario
