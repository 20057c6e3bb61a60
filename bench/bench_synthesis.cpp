// Synthesis-throughput benchmark seeding the perf trajectory: multi-trace
// synthesis through (a) a streaming SynthesisSession with one trace id per
// run, merging the DAGs, on one worker, (b) the same session on a worker
// pool, and (c) every run under one trace id, merged into one index and
// synthesized once (the merge-traces pass). Reports events/sec each and
// the pool speedup, and emits machine-readable results as
// BENCH_synthesis.json.
//
// The pool speedup is the median of alternating 1-thread/pool pairs, each
// run right after a spin probe of the parallelism the host gives the pool
// (gate: >= 2x when the probe reads the pool's thread count, rounded to
// whole cores). Every timed pass synthesizes the traces over enough fresh
// sessions to last at least 100 ms on one thread.
//
// Also measures incremental re-synthesis: ingesting one extra trace into
// an already-synthesized session must cost ~one trace, not a full rerun.
//
// Knobs:
//   TETRA_RUNS       traces to synthesize (default 8)
//   TETRA_DURATION   per-trace simulated seconds (default 10)
//   TETRA_THREADS    pool size for the threaded pass (default 4)
//   TETRA_BENCH_JSON output path (default BENCH_synthesis.json)
//   TETRA_REQUIRE_SPEEDUP  1 = fail unless pool speedup >= 2 (default: on
//                          when the host has >= 4 hardware threads)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "bench_util.hpp"
#include "ebpf/tracers.hpp"
#include "support/json_writer.hpp"
#include "support/string_utils.hpp"
#include "trace/merge.hpp"
#include "workloads/syn_app.hpp"

namespace {

using namespace tetra;

/// A timed pass lasts at least this long on one thread, so the host's
/// jitter averages out within it.
constexpr double kMinPassSeconds = 0.1;

/// Alternating 1-thread/pool pairs the speedup gate takes the median of.
constexpr int kPairs = 9;

/// One timed pass of `rounds` fresh sessions: each ingests trace i as
/// "run-i", or every trace under `shared_id` when it is non-empty, and
/// times the model query. Returns the summed query seconds.
double session_pass(const std::vector<trace::EventVector>& traces,
                    const api::SynthesisConfig& config, int rounds,
                    std::size_t* vertices, const std::string& shared_id = "") {
  double elapsed = 0.0;
  for (int round = 0; round < rounds; ++round) {
    api::SynthesisSession session(config);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      session.ingest(traces[i],
                     {.trace_id = shared_id.empty() ? "run-" + std::to_string(i)
                                                    : shared_id,
                      .mode = ""});
    }
    const auto t0 = std::chrono::steady_clock::now();
    const core::TimingModel model = session.model().value();
    elapsed += bench::seconds_since(t0);
    if (vertices != nullptr) *vertices = model.dag.vertex_count();
  }
  return elapsed;
}

}  // namespace

int main() {
  bench::banner("synthesis throughput - batch vs streaming vs worker pool");

  const int runs = bench::env_int("TETRA_RUNS", 8);
  const Duration duration =
      bench::env_seconds("TETRA_DURATION", Duration::sec(10));
  const int threads = bench::env_int("TETRA_THREADS", 4);
  const unsigned hardware = std::thread::hardware_concurrency();
  bench::note(format("%d traces x %.0fs, pool of %d threads (%u hardware)",
                     runs, duration.to_sec(), threads, hardware));

  std::vector<trace::EventVector> traces;
  std::size_t total_events = 0;
  for (int run = 0; run < runs; ++run) {
    traces.push_back(bench::trace_one_run(0xbe7c + static_cast<std::uint64_t>(run),
                                   duration));
    total_events += traces.back().size();
  }
  bench::note(format("collected %zu events", total_events));

  // Warm-up: touch every code path once so allocator effects don't skew
  // the first measured pass.
  (void)session_pass({traces[0]}, api::SynthesisConfig(), 1, nullptr);

  const api::SynthesisConfig one_thread = api::SynthesisConfig().threads(1);
  const api::SynthesisConfig pool = api::SynthesisConfig().threads(threads);
  // Rounds per pass, from the fastest of three single 1-thread rounds.
  double round_s = session_pass(traces, one_thread, 1, nullptr);
  for (int i = 0; i < 2; ++i) {
    round_s = std::min(round_s, session_pass(traces, one_thread, 1, nullptr));
  }
  const int rounds = std::max(
      1, static_cast<int>(std::ceil(kMinPassSeconds / std::max(round_s, 1e-9))));

  // One pair of passes swings widely with the host's load, so the gate
  // reads the median of alternating pairs, each run right after a spin
  // probe of the parallelism the host gives the pool.
  std::size_t vertices = 0;
  std::size_t pool_vertices = 0;
  std::vector<double> passes_1_s, passes_pool_s, speedups, probes;
  for (int pair = 0; pair < kPairs; ++pair) {
    probes.push_back(
        bench::effective_parallelism(static_cast<std::size_t>(threads)));
    const bool one_first = pair % 2 == 0;
    double t1 = 0.0;
    if (one_first) t1 = session_pass(traces, one_thread, rounds, &vertices);
    const double tn = session_pass(traces, pool, rounds, &pool_vertices);
    if (!one_first) t1 = session_pass(traces, one_thread, rounds, &vertices);
    passes_1_s.push_back(t1);
    passes_pool_s.push_back(tn);
    speedups.push_back(tn > 0.0 ? t1 / tn : 0.0);
  }
  const double stream1_s = bench::median(passes_1_s);
  const double pool_s = bench::median(passes_pool_s);
  const double pool_speedup = bench::median(speedups);
  const double parallelism = bench::median(probes);
  const double merge_traces_s =
      session_pass(traces, api::SynthesisConfig(), rounds, nullptr, "merged");

  // Incremental re-synthesis: one extra trace into a warm session.
  api::SynthesisSession warm(one_thread);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    warm.ingest(traces[i], {.trace_id = "run-" + std::to_string(i), .mode = ""});
  }
  warm.model().value();
  warm.ingest(traces[0], {.trace_id = "run-extra", .mode = ""});
  const auto t1 = std::chrono::steady_clock::now();
  warm.model().value();
  const double incremental_s = bench::seconds_since(t1);

  const auto rate = [total_events, rounds](double s) {
    return s > 0.0 ? static_cast<double>(total_events) * rounds / s : 0.0;
  };

  std::printf("\n%-40s %12s %14s\n",
              format("pass (%d rounds each)", rounds).c_str(), "wall (ms)",
              "events/sec");
  const auto row = [&](const std::string& name, double s) {
    std::printf("%-40s %12.1f %14.0f\n", name.c_str(), s * 1e3, rate(s));
  };
  row("session merge-dags, 1 thread", stream1_s);
  row(format("session merge-dags, %d threads", threads), pool_s);
  row("session merge-traces (one trace id)", merge_traces_s);
  std::printf("%-40s %12.1f ms (~1/%d of a full pass)\n",
              "incremental +1 trace re-synthesis", incremental_s * 1e3, runs);
  std::printf("%-40s %12.2fx (median of %d pairs)\n", "worker-pool speedup",
              pool_speedup, kPairs);
  std::printf("%-40s %12.2f (median of %d probes)\n",
              format("effective parallelism, %d threads", threads).c_str(),
              parallelism, kPairs);

  JsonWriter json;
  json.begin_object()
      .kv("bench", "synthesis")
      .kv("traces", runs)
      .kv("duration_s", duration.to_sec())
      .kv("threads", threads)
      .kv("hardware_threads", static_cast<std::uint64_t>(hardware))
      .kv("total_events", static_cast<std::uint64_t>(total_events))
      .kv("dag_vertices", static_cast<std::uint64_t>(vertices))
      .key("events_per_sec")
      .begin_object()
      .kv("session_1_thread", rate(stream1_s))
      .kv("session_pool", rate(pool_s))
      .kv("session_merge_traces", rate(merge_traces_s))
      .end_object()
      .kv("incremental_resynthesis_ms", incremental_s * 1e3)
      .kv("pool_speedup", pool_speedup)
      .end_object();
  const char* out_env = std::getenv("TETRA_BENCH_JSON");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_synthesis.json";
  std::ofstream out(out_path, std::ios::trunc);
  out << bench::with_telemetry(json.str()) << "\n";
  bench::note(format("\nwrote %s", out_path.c_str()));

  if (pool_vertices != vertices) {
    std::fprintf(stderr,
                 "FAIL: session/pool DAGs disagree (%zu vs %zu)\n",
                 vertices, pool_vertices);
    return 1;
  }
  // The >= 2x pool-speedup bar only makes sense with enough cores; on
  // smaller hosts the bench degrades to a report. It also needs the pool's
  // cores under the workers, as the spin probe measured them beside the
  // pairs, rounded to whole cores.
  const bool default_strict = hardware >= 4 && threads >= 4;
  const bool strict =
      bench::env_int("TETRA_REQUIRE_SPEEDUP", default_strict ? 1 : 0) != 0;
  if (strict && std::lround(parallelism) < threads) {
    std::printf("pool gate skipped: the spin probe read %.2f effective "
                "cores for %d threads\n",
                parallelism, threads);
  } else if (strict && pool_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: worker-pool speedup %.2fx < 2.0x required\n",
                 pool_speedup);
    return 1;
  }
  return 0;
}
