// tetra_predict — model-driven latency prediction and what-if exploration.
//
// Reads JSONL traces into an api::SynthesisSession, synthesizes the
// timing model, then *replays the model* (predict::ModelSimulator) to
// predict per-chain end-to-end latency distributions — and, with sweep
// flags, ranks candidate deployment configurations (WhatIfExplorer)
// without ever re-running the application.
//
//   tetra_predict --trace run1.jsonl [--trace run2.jsonl ...]
//                 [--merge-dags | --merge-traces] [--threads N]
//                 [--horizon SEC] [--seed N] [--hop-us LO:HI]
//                 [--input-period TOPIC=MS] [--timer-period KEY=MS]
//                 [--scale-exec KEY=F] [--scale-exec-all F] [--prune KEY]
//                 [--cpus N] [--workers NODE=N]
//                 [--sweep-timer KEY=MS1,MS2,...] [--sweep-exec F1,F2,...]
//                 [--sweep-cpus N1,N2,...] [--sweep-workers NODE=N1,N2,...]
//                 [--objective worst-mean|worst-p99|worst-max|mean-mean]
//                 [--json FILE] [--report] [--quiet]
//                 [--stats] [--stats-out FILE]
//
// --cpus switches the replay to the contention-aware machine mode (one
// executor per node on N simulated CPUs); without it the replay is
// contention-free. --workers overrides the learned executor worker count
// of a node; --sweep-workers asks "would 2 -> 4 executor threads cut
// chain latency?" across the listed counts. Sweep flags build one
// candidate per listed value and print the ranking best-first.
//
// Exit status: 0 only when the replay measured at least one complete
// chain traversal (in sweep mode: for the best-ranked candidate) — a
// prediction that measured nothing is a failed round trip, --quiet or
// not. 1 on errors/empty predictions, 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "cli.hpp"
#include "predict/report.hpp"
#include "predict/what_if.hpp"
#include "tool_stats.hpp"

namespace {

using namespace tetra;

/// Splits "KEY=VALUE" at the first '='; false when KEY is empty or '='
/// is missing.
bool split_kv(const std::string& arg, std::string* key, std::string* value) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = arg.substr(0, eq);
  *value = arg.substr(eq + 1);
  return true;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Parses a comma list with `parse_item`; false on the first bad item.
template <typename T, typename Parse>
bool parse_list(const std::string& csv, std::vector<T>* out, Parse parse_item) {
  for (const std::string& item : split_list(csv)) {
    T value{};
    if (!parse_item(item, &value)) return false;
    out->push_back(value);
  }
  return true;
}

/// A worker or CPU count: an integer >= 1.
bool parse_count(const std::string& text, int* out) {
  return tools::parse_int(text, 1, out);
}

/// A period in ms: finite and > 0.
bool parse_period_ms(const std::string& text, Duration* out) {
  double ms = 0.0;
  if (!tools::parse_finite(text, &ms) || ms <= 0.0) return false;
  *out = Duration::ms_f(ms);
  return true;
}

/// An execution-time scale: finite and >= 0.
bool parse_scale(const std::string& text, double* out) {
  return tools::parse_finite(text, out) && *out >= 0.0;
}

/// Flag handler for KEY=VALUE arguments: `apply` parses VALUE and stores
/// it under KEY, returning false to reject it as `expects`.
std::function<bool(const std::string&, std::string*)> kv_flag(
    const std::string& flag, const std::string& expects,
    std::function<bool(const std::string& key, const std::string& value)>
        apply) {
  return [flag, expects, apply](const std::string& arg, std::string* error) {
    std::string key, value;
    if (split_kv(arg, &key, &value) && apply(key, value)) return true;
    *error = flag + " expects " + expects + ", got '" + arg + "'";
    return false;
  };
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << content;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> trace_paths;
  std::string json_path;
  bool report = false;
  bool merge_dags = false;
  bool merge_traces = false;
  int threads = 1;
  double horizon_s = 0.0;
  int cpus = 0;
  predict::PredictionConfig prediction;

  // Sweep requests are collected as flags and applied onto the explorer.
  std::vector<std::pair<std::string, std::vector<Duration>>> timer_sweeps;
  std::vector<double> exec_sweep;
  std::vector<int> cpu_sweep;
  std::vector<std::pair<std::string, std::vector<int>>> worker_sweeps;
  predict::Objective objective = predict::Objective::WorstChainP99;
  bool quiet = false;
  tools::StatsOptions stats;

  tools::FlagRegistry cli("tetra_predict");
  cli.flag("--trace", "FILE", "input trace, JSONL or .ttb (repeatable)",
           &trace_paths)
      .flag("--merge-dags",
            "synthesize per trace, then merge the DAGs (default)",
            &merge_dags)
      .flag("--merge-traces",
            "merge the event streams first (segments of one run)",
            &merge_traces)
      .flag("--threads", "N", "worker threads for per-trace synthesis",
            &threads, 1)
      .flag("--horizon", "SEC", "simulated horizon in seconds", &horizon_s)
      .flag("--seed", "N", "seed of every sampling stream", &prediction.seed)
      .flag("--hop-us", "LO:HI", "per-hop delivery latency range in us",
            [&prediction](const std::string& value, std::string* error) {
              const std::size_t colon = value.find(':');
              double lo = 0.0;
              double hi = 0.0;
              if (colon == std::string::npos ||
                  !tools::parse_finite(value.substr(0, colon), &lo) ||
                  !tools::parse_finite(value.substr(colon + 1), &hi) ||
                  lo < 0.0 || lo > hi) {
                *error = "--hop-us expects LO:HI with 0 <= LO <= HI, got '" +
                         value + "'";
                return false;
              }
              prediction.hop_latency.lo = Duration::ms_f(lo / 1e3);
              prediction.hop_latency.hi = Duration::ms_f(hi / 1e3);
              return true;
            })
      .flag("--input-period", "TOPIC=MS", "period of an external input topic",
            kv_flag("--input-period", "TOPIC=MS with MS > 0",
                    [&prediction](const std::string& topic,
                                  const std::string& ms) {
                      return parse_period_ms(ms,
                                             &prediction.input_period[topic]);
                    }))
      .flag("--timer-period", "KEY=MS", "override a timer's period",
            kv_flag("--timer-period", "KEY=MS with MS > 0",
                    [&prediction](const std::string& key,
                                  const std::string& ms) {
                      return parse_period_ms(ms,
                                             &prediction.timer_period[key]);
                    }))
      .flag("--scale-exec", "KEY=F", "scale one callback's execution time",
            kv_flag("--scale-exec", "KEY=F with F >= 0",
                    [&prediction](const std::string& key,
                                  const std::string& factor) {
                      return parse_scale(factor, &prediction.exec_scale[key]);
                    }))
      .flag("--scale-exec-all", "F", "scale every execution time",
            [&prediction](const std::string& value, std::string* error) {
              if (parse_scale(value, &prediction.global_exec_scale)) {
                return true;
              }
              *error = "--scale-exec-all expects a number >= 0, got '" +
                       value + "'";
              return false;
            })
      .flag("--prune", "KEY", "drop a vertex from the replay (repeatable)",
            [&prediction](const std::string& key, std::string*) {
              prediction.pruned.insert(key);
              return true;
            })
      .flag("--cpus", "N", "replay on N simulated CPUs (contention-aware)",
            &cpus, 1)
      .flag("--workers", "NODE=N", "override a node's executor workers",
            kv_flag("--workers", "NODE=N with an integer N >= 1",
                    [&prediction](const std::string& node,
                                  const std::string& count) {
                      return parse_count(count, &prediction.workers[node]);
                    }))
      .flag("--sweep-timer", "KEY=MS1,MS2,...", "sweep a timer's period",
            kv_flag("--sweep-timer", "KEY=MS1,MS2,... with every MS > 0",
                    [&timer_sweeps](const std::string& key,
                                    const std::string& csv) {
                      std::vector<Duration> periods;
                      if (!parse_list(csv, &periods, parse_period_ms)) {
                        return false;
                      }
                      timer_sweeps.push_back({key, std::move(periods)});
                      return true;
                    }))
      .flag("--sweep-exec", "F1,F2,...", "sweep the global exec-time scale",
            [&exec_sweep](const std::string& csv, std::string* error) {
              if (parse_list(csv, &exec_sweep, parse_scale)) {
                return true;
              }
              *error = "--sweep-exec expects numbers >= 0, got '" + csv + "'";
              return false;
            })
      .flag("--sweep-cpus", "N1,N2,...", "sweep the simulated CPU count",
            [&cpu_sweep](const std::string& csv, std::string* error) {
              if (parse_list(csv, &cpu_sweep, parse_count)) return true;
              *error = "--sweep-cpus expects integers >= 1, got '" + csv + "'";
              return false;
            })
      .flag("--sweep-workers", "NODE=N1,N2,...",
            "sweep a node's executor worker count",
            kv_flag("--sweep-workers", "NODE=N1,N2,... with integers >= 1",
                    [&worker_sweeps](const std::string& node,
                                     const std::string& csv) {
                      std::vector<int> counts;
                      if (!parse_list(csv, &counts, parse_count)) {
                        return false;
                      }
                      worker_sweeps.push_back({node, std::move(counts)});
                      return true;
                    }))
      .flag("--objective", "NAME",
            "sweep ranking: worst-mean, worst-p99, worst-max or mean-mean",
            [&objective](const std::string& value, std::string* error) {
              if (value == "worst-mean") {
                objective = predict::Objective::WorstChainMean;
              } else if (value == "worst-p99") {
                objective = predict::Objective::WorstChainP99;
              } else if (value == "worst-max") {
                objective = predict::Objective::WorstChainMax;
              } else if (value == "mean-mean") {
                objective = predict::Objective::MeanOfMeans;
              } else {
                *error = "unknown objective '" + value + "'";
                return false;
              }
              return true;
            })
      .flag("--json", "FILE", "write the prediction JSON", &json_path)
      .flag("--report",
            "also print the best candidate's chain table (sweep mode)",
            &report)
      .flag("--quiet", "suppress the tables", &quiet)
      .flag("--stats", "print the telemetry summary table", &stats.summary)
      .flag("--stats-out", "FILE", "write the telemetry JSON snapshot",
            &stats.out_path);

  switch (cli.parse(argc, argv)) {
    case tools::FlagRegistry::Parse::Help: return 0;
    case tools::FlagRegistry::Parse::Error: return 2;
    case tools::FlagRegistry::Parse::Ok: break;
  }
  if (trace_paths.empty()) {
    return cli.usage_error(argv[0], "at least one --trace FILE is required");
  }
  if (merge_dags && merge_traces) {
    return cli.usage_error(argv[0],
                           "--merge-dags and --merge-traces are exclusive");
  }
  api::SynthesisConfig synth_config;
  synth_config.threads(threads);
  if (horizon_s > 0.0) prediction.horizon = Duration::ms_f(horizon_s * 1e3);
  if (cpus > 0) {
    predict::ExecutorMapping mapping;
    mapping.num_cpus = cpus;
    prediction.executors = mapping;
  }

  try {
    api::SynthesisSession session(synth_config);
    // --merge-traces ingests every file under one trace id (§V option i);
    // by default each file is its own trace, keyed by its path.
    const api::IngestOptions options{
        .trace_id = merge_traces ? "merged stream" : "", .mode = ""};
    for (const auto& path : trace_paths) {
      api::Result<api::SegmentInfo> segment =
          session.ingest_file(path, options);
      if (!segment.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     segment.error().to_string().c_str());
        return 1;
      }
      std::fprintf(stderr, "loaded %zu events from %s\n",
                   segment->event_count, path.c_str());
    }
    api::Result<core::TimingModel> model = session.model();
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.error().to_string().c_str());
      return 1;
    }
    const core::Dag& dag = model->dag;
    std::fprintf(stderr, "model: %zu vertices, %zu edges\n",
                 dag.vertex_count(), dag.edge_count());

    const auto complete_traversals =
        [](const predict::PredictionResult& result) {
          std::size_t complete = 0;
          for (const auto& chain : result.chains) {
            complete += chain.latency.complete;
          }
          return complete;
        };

    const bool sweeping = !timer_sweeps.empty() || !exec_sweep.empty() ||
                          !cpu_sweep.empty() || !worker_sweeps.empty();
    std::string json;
    bool truncated = false;
    std::size_t measured = 0;
    if (sweeping) {
      predict::WhatIfExplorer what_if(dag, prediction);
      what_if.add_baseline();
      for (const auto& [key, periods] : timer_sweeps) {
        what_if.sweep_timer_period(key, periods);
      }
      if (!exec_sweep.empty()) what_if.sweep_exec_scale(exec_sweep);
      if (!cpu_sweep.empty()) what_if.sweep_num_cpus(cpu_sweep);
      for (const auto& [node, counts] : worker_sweeps) {
        what_if.sweep_workers(node, counts);
      }
      const std::vector<predict::WhatIfOutcome> outcomes =
          what_if.explore(objective);
      for (const auto& outcome : outcomes) {
        truncated |= outcome.prediction.chains_truncated;
      }
      if (!outcomes.empty()) {
        measured = complete_traversals(outcomes.front().prediction);
      }
      if (!quiet) {
        std::printf("%s", predict::to_text_table(outcomes, objective).c_str());
        if (report && !outcomes.empty()) {
          std::printf(
              "\nbest candidate '%s':\n%s",
              outcomes.front().candidate.name.c_str(),
              predict::to_text_table(outcomes.front().prediction).c_str());
        }
      }
      json = predict::to_json(outcomes, objective);
    } else {
      const predict::PredictionResult result =
          predict::ModelSimulator(dag, prediction).predict();
      truncated = result.chains_truncated;
      measured = complete_traversals(result);
      // The per-chain table IS the report in single-prediction mode.
      if (!quiet) std::printf("%s", predict::to_text_table(result).c_str());
      json = predict::to_json(result);
    }
    if (truncated) {
      std::fprintf(stderr,
                   "warning: chain enumeration truncated at %zu chains; "
                   "predictions cover an incomplete chain set\n",
                   prediction.max_chains);
    }
    if (!json_path.empty()) {
      write_file(json_path, json + "\n");
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    if (measured == 0) {
      // A replay that completed no chain traversal predicted nothing; the
      // exit status must say so even when --quiet suppressed the tables.
      std::fprintf(stderr,
                   "error: no complete chain traversal in the prediction\n");
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return tools::emit_stats(stats);
}
