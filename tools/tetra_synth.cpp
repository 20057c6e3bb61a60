// tetra_synth — command-line timing-model synthesizer.
//
// Reads JSONL traces (the format the tracers and the trace database
// emit) into an api::SynthesisSession, synthesizes the model and writes
// it as Graphviz DOT and/or JSON, plus an optional text report.
//
//   tetra_synth --trace run1.jsonl [--trace run2.jsonl ...]
//               [--merge-dags | --merge-traces] [--threads N]
//               [--incremental]
//               [--dot out.dot] [--json out.json] [--report]
//               [--no-service-split] [--no-and-junction]
//               [--waiting-times]
//               [--compensate-overhead] [--probe-cost DUR]
//   tetra_synth --trace run1.jsonl --to-ttb run1.ttb
//   tetra_synth --trace run1.ttb --to-jsonl run1.jsonl
//
// With several --trace inputs, --merge-dags (default; §V option ii)
// synthesizes per trace — on N worker threads with --threads — and
// merges the DAGs; --merge-traces (option i, for segments of one run)
// k-way merges the event streams first. --incremental keeps appendable
// per-trace indexes so repeat queries only re-extract touched nodes.
//
// --compensate-overhead subtracts the per-probe tracer cost — estimated
// from the trace, or given via --probe-cost (e.g. "5us", implies
// compensation) — from every execution-time statistic (docs/OVERHEAD.md).
//
// --to-ttb / --to-jsonl are pure format conversions (docs/TRACE_FORMAT.md):
// exactly one --trace input, event order preserved byte-for-byte, no
// synthesis. Either format is accepted as input (.ttb detected by magic),
// so jsonl -> ttb -> jsonl is an identity.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/chains.hpp"
#include "api/session.hpp"
#include "core/export.hpp"
#include "overhead/profile.hpp"
#include "support/string_utils.hpp"
#include "tool_stats.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --trace FILE [--trace FILE ...]\n"
               "          [--merge-dags | --merge-traces] [--threads N]\n"
               "          [--incremental]\n"
               "          [--dot FILE] [--json FILE] [--report]\n"
               "          [--no-service-split] [--no-and-junction]\n"
               "          [--waiting-times]\n"
               "          [--compensate-overhead] [--probe-cost DUR]\n"
               "          [--lenient] [--stats] [--stats-out FILE]\n"
               "       %s --trace FILE --to-ttb FILE | --to-jsonl FILE\n",
               argv0, argv0);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << content;
}

int reject_argument(const char* argv0, const std::string& arg) {
  if (arg.rfind("--", 0) == 0) {
    std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
  } else {
    std::fprintf(stderr,
                 "error: unexpected positional argument '%s' (trace files "
                 "must be passed via --trace FILE)\n",
                 arg.c_str());
  }
  usage(argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tetra;
  std::vector<std::string> trace_paths;
  std::string dot_path;
  std::string json_path;
  std::string to_ttb_path;
  std::string to_jsonl_path;
  bool report = false;
  bool lenient = false;
  tools::StatsOptions stats;
  api::SynthesisConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      trace_paths.push_back(next());
    } else if (arg == "--dot") {
      dot_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--to-ttb") {
      to_ttb_path = next();
    } else if (arg == "--to-jsonl") {
      to_jsonl_path = next();
    } else if (arg == "--incremental") {
      config.incremental(true);
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--merge-traces") {
      config.merge_strategy(api::MergeStrategy::MergeTraces);
    } else if (arg == "--merge-dags") {
      config.merge_strategy(api::MergeStrategy::MergeDags);
    } else if (arg == "--threads") {
      const std::string value = next();
      const int threads = std::atoi(value.c_str());
      if (threads < 1) {
        std::fprintf(stderr, "error: --threads expects a positive integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
      config.threads(threads);
    } else if (arg == "--no-service-split") {
      config.split_service_per_caller(false);
    } else if (arg == "--no-and-junction") {
      config.model_sync_with_and_junction(false);
    } else if (arg == "--waiting-times") {
      config.compute_waiting_times(true);
    } else if (arg == "--compensate-overhead") {
      config.compensate_overhead(true);
    } else if (arg == "--probe-cost") {
      const std::string value = next();
      const auto cost = overhead::parse_duration(value);
      if (!cost.has_value() || *cost < Duration::zero()) {
        std::fprintf(stderr,
                     "error: --probe-cost expects a duration like 5us or "
                     "200ns, got '%s'\n",
                     value.c_str());
        return 2;
      }
      config.compensate_overhead(true).probe_cost_hint(*cost);
    } else if (arg == "--lenient") {
      lenient = true;
    } else if (arg == "--stats") {
      stats.summary = true;
    } else if (arg == "--stats-out") {
      stats.out_path = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      return reject_argument(argv[0], arg);
    }
  }
  if (trace_paths.empty()) {
    std::fprintf(stderr, "error: at least one --trace FILE is required\n");
    usage(argv[0]);
    return 2;
  }

  // Conversion mode: no synthesis, no session — the raw event sequence is
  // read in file order and re-emitted as-is, so converting back and forth
  // reproduces the original file byte-for-byte.
  if (!to_ttb_path.empty() || !to_jsonl_path.empty()) {
    if (trace_paths.size() != 1) {
      std::fprintf(stderr,
                   "error: --to-ttb/--to-jsonl convert exactly one --trace "
                   "input (got %zu)\n",
                   trace_paths.size());
      return 2;
    }
    try {
      const std::string& in = trace_paths[0];
      const trace::EventVector events = trace::read_trace_file(in);
      if (!to_ttb_path.empty()) {
        trace::write_ttb_file(to_ttb_path, events);
        std::fprintf(stderr, "wrote %zu events to %s\n", events.size(),
                     to_ttb_path.c_str());
      }
      if (!to_jsonl_path.empty()) {
        trace::write_jsonl_file(to_jsonl_path, events);
        std::fprintf(stderr, "wrote %zu events to %s\n", events.size(),
                     to_jsonl_path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return tools::emit_stats(stats);
  }

  try {
    api::SynthesisSession session(config);
    for (const auto& path : trace_paths) {
      std::size_t malformed_skipped = 0;
      const api::Result<api::SegmentInfo> segment =
          [&]() -> api::Result<api::SegmentInfo> {
        if (lenient) {
          // Fleet posture: one corrupt line must not sink the upload. Skips
          // are counted here and in trace.jsonl_malformed_skipped.
          trace::JsonlParseStats parse_stats;
          trace::EventVector events =
              trace::read_trace_file(path, &parse_stats);
          malformed_skipped = parse_stats.malformed_skipped;
          api::IngestOptions options;
          options.trace_id = path;
          return session.ingest(std::move(events), options);
        }
        return session.ingest_file(path);
      }();
      if (!segment.ok()) {
        std::fprintf(stderr, "error: %s\n", segment.error().to_string().c_str());
        return 1;
      }
      std::fprintf(stderr, "loaded %zu events from %s%s\n",
                   segment->event_count, path.c_str(),
                   segment->arrived_sorted ? "" : " (re-sorted)");
      if (malformed_skipped > 0) {
        std::fprintf(stderr, "warning: skipped %zu malformed line%s in %s\n",
                     malformed_skipped, malformed_skipped == 1 ? "" : "s",
                     path.c_str());
      }
    }

    api::Result<core::TimingModel> model = session.model();
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.error().to_string().c_str());
      return 1;
    }
    const core::Dag& dag = model->dag;

    std::fprintf(stderr, "model: %zu vertices, %zu edges, acyclic=%s\n",
                 dag.vertex_count(), dag.edge_count(),
                 dag.is_acyclic() ? "yes" : "NO");

    if (!dot_path.empty()) {
      write_file(dot_path, core::to_dot(dag));
      std::fprintf(stderr, "wrote %s\n", dot_path.c_str());
    }
    if (!json_path.empty()) {
      write_file(json_path, core::to_json(dag));
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    if (report || (dot_path.empty() && json_path.empty())) {
      std::printf("%s\n", core::to_exec_time_table(dag).c_str());
      std::printf("chains:\n");
      const analysis::ChainEnumeration chains = analysis::enumerate_chains(dag);
      for (const auto& chain : chains.chains) {
        std::printf("  %s  (sum mWCET %.2f ms)\n",
                    analysis::to_string(chain).c_str(),
                    analysis::chain_wcet(dag, chain).to_ms());
      }
      if (chains.truncated) {
        std::fprintf(stderr,
                     "warning: chain enumeration truncated at %zu chains; "
                     "the list above is incomplete\n",
                     chains.chains.size());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return tools::emit_stats(stats);
}
