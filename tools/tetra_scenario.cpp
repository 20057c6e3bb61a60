// tetra_scenario — randomized scenario sweeps with round-trip validation.
//
// Generates seeded random ROS2 application scenarios, runs each on the
// simulated substrate under the three tracers, synthesizes the timing
// model and diffs it against the scenario's ground truth.
//
//   tetra_scenario --seed N [--count K] [--validate]
//                  [--cpus C] [--duration-ms D] [--interference T]
//                  [--threads W] [--modes] [--mt | --st]
//                  [--mutate KIND] [--run-index N]
//                  [--probe-cost SPEC] [--sample-every K]
//                  [--compensate-overhead]
//                  [--json FILE] [--dot FILE]
//                  [--trace-out FILE] [--ttb-out FILE] [--quiet]
//                  [--shards N] [--stats] [--stats-out FILE]
//
// --probe-cost SPEC injects simulated tracer overhead into every probe
// hit (presets uprobe | usdt | lttng | free, or "COST[~JITTER]" like
// "5us~500ns"); --sample-every K traces only one in K callback instances;
// --compensate-overhead estimates the injected cost from the trace and
// subtracts it during synthesis (docs/OVERHEAD.md).
//
// --mt forces every generated node onto a multi-threaded executor with
// callback groups; --st forces single-threaded executors everywhere
// (the default rolls the executor dimension per node).
//
// --mutate KIND (drop-edge | add-edge | retime-timer | scale-exec-time |
// reprioritize) perturbs each generated spec along that one axis before
// running it (mutation seed = scenario seed); validation then runs
// against the *mutant's* ground truth. --run-index N re-runs the same
// spec with a different sampling stream (N > 0 gives a resampled run of
// the identical application). Together they produce the sentinel's
// labeled drift / no-drift window fixtures.
//
// With --validate (the main mode), exits 0 only when every scenario's
// synthesized DAG matches its ground truth; mismatch reports go to
// stderr. --json/--dot/--trace-out dump the first scenario's spec,
// synthesized DAG and merged trace (the latter feeds the golden-trace
// regression test); --ttb-out writes the same merged trace in the
// compact binary format (docs/TRACE_FORMAT.md).
//
// --shards N re-ingests the first scenario's merged trace in chunks
// through a ShardedIngestService with N decode workers and requires its
// model JSON to equal the session-synthesized one byte for byte (exit 1
// on mismatch); --stats / --stats-out dump the telemetry snapshot
// (docs/TELEMETRY.md).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "api/ingest_service.hpp"
#include "cli.hpp"
#include "core/export.hpp"
#include "overhead/profile.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "scenario/validator.hpp"
#include "tool_stats.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << content;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tetra;

  std::uint64_t seed = 1;
  bool seed_given = false;
  int count = 1;
  bool validate = false;
  bool run_modes = false;
  bool quiet = false;
  std::optional<scenario::MutationKind> mutation;
  std::uint64_t run_index = 0;
  int shards = 0;
  tools::StatsOptions stats;
  std::string json_path, dot_path, trace_path, ttb_path;
  scenario::GeneratorOptions generator_options;
  scenario::RunnerOptions runner_options;

  int duration_ms = 0;
  bool duration_given = false;

  tools::FlagRegistry cli("tetra_scenario");
  cli.flag("--seed", "N", "base scenario seed (required)",
           [&seed, &seed_given](const std::string& value, std::string* error) {
             char* end = nullptr;
             const unsigned long long parsed =
                 std::strtoull(value.c_str(), &end, 10);
             if (end == value.c_str() || *end != '\0') {
               *error = "--seed expects a non-negative integer, got '" +
                        value + "'";
               return false;
             }
             seed = parsed;
             seed_given = true;
             return true;
           })
      .flag("--count", "K", "scenarios to run, seeds N..N+K-1", &count, 1)
      .flag("--validate", "diff each synthesized DAG against ground truth",
            &validate)
      .flag("--cpus", "C", "simulated CPU count", &generator_options.num_cpus,
            1)
      .flag("--duration-ms", "D", "simulated run duration",
            [&duration_ms, &duration_given](const std::string& value,
                                            std::string* error) {
              char* end = nullptr;
              const long parsed = std::strtol(value.c_str(), &end, 10);
              if (end == value.c_str() || *end != '\0' || parsed < 1) {
                *error = "--duration-ms expects a positive integer, got '" +
                         value + "'";
                return false;
              }
              duration_ms = static_cast<int>(parsed);
              duration_given = true;
              return true;
            })
      .flag("--interference", "T", "busy-loop interference threads",
            &runner_options.interference_threads, 0)
      .flag("--threads", "W", "synthesis session worker threads",
            &runner_options.threads, 1)
      .flag("--modes", "run per-mode traces (multi-mode synthesis)",
            &run_modes)
      .flag("--mutate", "KIND",
            "perturb each spec: drop-edge | add-edge | retime-timer | "
            "scale-exec-time | reprioritize",
            [&mutation](const std::string& value, std::string* error) {
              const auto parsed = scenario::mutation_kind_from_string(value);
              if (!parsed.has_value()) {
                *error = "--mutate expects drop-edge | add-edge | "
                         "retime-timer | scale-exec-time | reprioritize, "
                         "got '" + value + "'";
                return false;
              }
              mutation = parsed;
              return true;
            })
      .flag("--run-index", "N", "resampled run of the identical application",
            &run_index)
      .flag("--probe-cost", "SPEC",
            "simulated tracer overhead: uprobe | usdt | lttng | free or "
            "COST[~JITTER] (e.g. 5us~500ns)",
            [&runner_options](const std::string& value, std::string* error) {
              const auto profile = overhead::ProbeCostProfile::parse(value);
              if (!profile.has_value()) {
                *error = "--probe-cost expects uprobe | usdt | lttng | free "
                         "or COST[~JITTER] (e.g. 5us~500ns), got '" + value +
                         "'";
                return false;
              }
              const unsigned keep_sampling =
                  runner_options.probe_profile.sample_every;
              runner_options.probe_profile = *profile;
              runner_options.probe_profile.sample_every = keep_sampling;
              return true;
            })
      .flag("--sample-every", "K", "trace one in K callback instances",
            [&runner_options](const std::string& value, std::string* error) {
              char* end = nullptr;
              const long k = std::strtol(value.c_str(), &end, 10);
              if (end == value.c_str() || *end != '\0' || k < 1) {
                *error = "--sample-every expects a positive integer, got '" +
                         value + "'";
                return false;
              }
              runner_options.probe_profile.sample_every =
                  static_cast<unsigned>(k);
              return true;
            })
      .flag("--compensate-overhead",
            "estimate and subtract the injected probe cost",
            &runner_options.compensate_overhead)
      .flag("--mt", "force multi-threaded executors everywhere",
            [&generator_options] { generator_options.p_multithreaded = 1.0; })
      .flag("--st", "force single-threaded executors everywhere",
            [&generator_options] { generator_options.p_multithreaded = 0.0; })
      .flag("--json", "FILE", "dump the first scenario's spec JSON",
            &json_path)
      .flag("--dot", "FILE", "dump the first scenario's synthesized DAG",
            &dot_path)
      .flag("--trace-out", "FILE", "dump the first scenario's merged trace",
            &trace_path)
      .flag("--ttb-out", "FILE", "same trace in the binary .ttb format",
            &ttb_path)
      .flag("--quiet", "suppress per-scenario stdout output", &quiet)
      .flag("--shards", "N",
            "cross-check through an ingest service with N decode workers",
            &shards, 1)
      .flag("--stats", "print the telemetry summary table", &stats.summary)
      .flag("--stats-out", "FILE", "write the telemetry JSON snapshot",
            &stats.out_path);

  switch (cli.parse(argc, argv)) {
    case tools::FlagRegistry::Parse::Help: return 0;
    case tools::FlagRegistry::Parse::Error: return 2;
    case tools::FlagRegistry::Parse::Ok: break;
  }
  if (duration_given) {
    generator_options.run_duration = Duration::ms(duration_ms);
  }
  if (!seed_given) {
    return cli.usage_error(argv[0], "--seed N is required");
  }

  const scenario::ScenarioGenerator generator(generator_options);
  const scenario::ScenarioRunner runner(runner_options);
  const scenario::RoundTripValidator validator;

  int mismatches = 0;
  try {
    for (int k = 0; k < count; ++k) {
      const std::uint64_t scenario_seed = seed + static_cast<std::uint64_t>(k);
      const scenario::Scenario scen = generator.generate(scenario_seed);
      scenario::ScenarioSpec spec = scen.spec;
      scenario::GroundTruth truth = scen.ground_truth;
      if (mutation.has_value()) {
        const scenario::MutationResult mutant =
            generator.mutate(scen.spec, scenario_seed, *mutation);
        if (!mutant.applied) {
          std::fprintf(stderr, "seed %llu: mutation not applicable: %s\n",
                       static_cast<unsigned long long>(scenario_seed),
                       mutant.description.c_str());
          return 1;
        }
        if (!quiet) {
          std::fprintf(stderr, "seed %llu: %s\n",
                       static_cast<unsigned long long>(scenario_seed),
                       mutant.description.c_str());
        }
        spec = mutant.spec;
        truth = scenario::build_ground_truth(spec);
      }

      if (k == 0 && !json_path.empty()) {
        write_file(json_path, scenario::spec_to_json(spec));
      }

      const bool validating = validate || run_modes;
      const bool needs_run = validating || !trace_path.empty() ||
                             !ttb_path.empty() || !dot_path.empty() ||
                             shards > 0;
      if (!needs_run) {
        if (!quiet) {
          std::printf("seed %llu: %zu nodes, %zu callbacks, %zu vertices, "
                      "%zu edges, %zu chains\n",
                      static_cast<unsigned long long>(scenario_seed),
                      spec.nodes.size(), spec.callback_count(),
                      truth.dag.vertex_count(), truth.dag.edge_count(),
                      truth.chain_count);
        }
        continue;
      }

      scenario::ValidationReport report;
      if (run_modes) {
        const core::MultiModeDag modes = runner.run_modes(spec);
        report = validator.validate_dag(modes.combined(), truth);
        if (k == 0 && !dot_path.empty()) {
          write_file(dot_path, core::to_dot(modes.combined()));
        }
        if (k == 0 && (!trace_path.empty() || !ttb_path.empty())) {
          std::fprintf(stderr,
                       "--trace-out/--ttb-out are ignored with --modes "
                       "(per-mode runs produce no single merged trace)\n");
        }
        if (k == 0 && shards > 0) {
          std::fprintf(stderr,
                       "--shards is ignored with --modes (per-mode runs "
                       "produce no single merged trace)\n");
        }
      } else {
        const scenario::ScenarioRunResult result =
            runner.run(spec, 1.0, run_index);
        if (validating) {
          report = validator.validate(result.model, truth);
        }
        if (k == 0 && !trace_path.empty()) {
          trace::write_jsonl_file(trace_path, result.trace);
          std::fprintf(stderr, "wrote %zu events to %s\n", result.trace.size(),
                       trace_path.c_str());
        }
        if (k == 0 && !ttb_path.empty()) {
          trace::write_ttb_file(ttb_path, result.trace);
          std::fprintf(stderr, "wrote %zu events to %s\n", result.trace.size(),
                       ttb_path.c_str());
        }
        if (k == 0 && !dot_path.empty()) {
          write_file(dot_path, core::to_dot(result.model.dag));
        }
        if (k == 0 && shards > 0) {
          // Fleet-path cross-check: re-ingest the merged trace through the
          // ingest service in chunks under one trace id and require the
          // model the in-process session produced, byte for byte. This
          // also populates the ingest.* metric family for
          // --stats/--stats-out.
          api::IngestServiceConfig service_config;
          service_config.shards = static_cast<std::size_t>(shards);
          service_config.session = runner.session_config();
          api::ShardedIngestService service(service_config);
          const std::size_t chunk =
              std::max<std::size_t>(1, result.trace.size() / 8);
          for (std::size_t begin = 0; begin < result.trace.size();
               begin += chunk) {
            const std::size_t end =
                std::min(result.trace.size(), begin + chunk);
            service.submit("run",
                           trace::EventVector(result.trace.begin() + begin,
                                              result.trace.begin() + end));
          }
          api::Result<core::TimingModel> sharded = service.model();
          if (!sharded.ok()) {
            ++mismatches;
            std::fprintf(stderr, "seed %llu: sharded ingest failed: %s\n",
                         static_cast<unsigned long long>(scenario_seed),
                         sharded.error().to_string().c_str());
          } else if (core::to_json(sharded->dag) !=
                     core::to_json(result.model.dag)) {
            ++mismatches;
            std::fprintf(
                stderr,
                "seed %llu: sharded model (%zu vertices, %zu edges) differs "
                "from session model (%zu vertices, %zu edges)\n",
                static_cast<unsigned long long>(scenario_seed),
                sharded->dag.vertex_count(), sharded->dag.edge_count(),
                result.model.dag.vertex_count(),
                result.model.dag.edge_count());
          } else if (!quiet) {
            std::fprintf(
                stderr, "seed %llu: sharded cross-check OK (%d shard%s)\n",
                static_cast<unsigned long long>(scenario_seed), shards,
                shards == 1 ? "" : "s");
          }
        }
      }

      // Exit status reflects validation only in the validating modes;
      // plain dump invocations succeed once their artifacts are written.
      if (!validating) continue;
      if (!report.ok()) {
        ++mismatches;
        std::fprintf(stderr, "seed %llu: %s\n",
                     static_cast<unsigned long long>(scenario_seed),
                     report.to_string().c_str());
      } else if (!quiet) {
        std::printf("seed %llu: OK (%zu vertices, %zu edges, %zu chains)\n",
                    static_cast<unsigned long long>(scenario_seed),
                    truth.dag.vertex_count(), truth.dag.edge_count(),
                    truth.chain_count);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // The exit status carries the verdict regardless of --quiet: mismatch
  // reports already went to stderr, the summary is informational.
  if ((validate || run_modes) && !quiet) {
    std::printf("%d/%d scenarios matched ground truth\n", count - mismatches,
                count);
  }
  const int stats_rc = tools::emit_stats(stats);
  return mismatches == 0 ? stats_rc : 1;
}
