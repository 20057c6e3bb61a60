// Telemetry overhead benchmark: the self-profiling must be close to free.
// Emits machine-readable results as BENCH_telemetry.json.
//
// Two measurements:
//   1. hot-path micro costs: counter increments and span open/close per
//      second (sanity numbers for the "relaxed atomic fast path" claim)
//   2. end-to-end synthesis throughput with telemetry recording enabled
//      vs runtime-disabled (set_enabled(false)) — interleaved A/B pairs,
//      best-of-N to shed scheduler noise
//      (gate: enabled within TETRA_TELEMETRY_TOLERANCE percent, default 3)
//
// The runtime switch measures the recording cost on the exact same
// binary; there is no compile-time switch, so this A/B is the baseline.
//
// Knobs:
//   TETRA_RUNS                 A/B pairs (default 5)
//   TETRA_DURATION             simulated seconds of the workload (default 6)
//   TETRA_TELEMETRY_TOLERANCE  allowed overhead percent (default 3)
//   TETRA_BENCH_JSON           output path (default BENCH_telemetry.json)
//   TETRA_REQUIRE_SPEEDUP      0 = report only, never fail the gate
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "bench_util.hpp"
#include "support/json_writer.hpp"
#include "support/string_utils.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"

namespace {

using namespace tetra;

/// One full ingest + synthesis pass; returns wall seconds.
double synthesis_pass(const trace::EventVector& events) {
  const auto t0 = std::chrono::steady_clock::now();
  api::SynthesisSession session(api::SynthesisConfig{});
  session.ingest(events, {.trace_id = "run", .mode = ""});
  const api::Result<core::TimingModel> model = session.model();
  if (!model.ok()) {
    std::fprintf(stderr, "FAIL: synthesis failed: %s\n",
                 model.error().to_string().c_str());
    std::exit(1);
  }
  return bench::seconds_since(t0);
}

}  // namespace

int main() {
  bench::banner("telemetry overhead - instrumented vs disabled");

  const int runs = bench::env_int("TETRA_RUNS", 5);
  const Duration duration =
      bench::env_seconds("TETRA_DURATION", Duration::sec(6));
  const double tolerance_pct =
      static_cast<double>(bench::env_int("TETRA_TELEMETRY_TOLERANCE", 3));

  // ---- 1. hot-path micro costs --------------------------------------------
  constexpr std::uint64_t kOps = 20'000'000;
  telemetry::Counter& counter =
      telemetry::MetricsRegistry::global().counter("bench.micro");
  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) counter.inc();
  const double counter_s = bench::seconds_since(t0);

  constexpr std::uint64_t kSpans = 1'000'000;
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    telemetry::ScopedSpan span("bench.micro_span");
  }
  const double span_s = bench::seconds_since(t0);
  telemetry::SpanRecorder::global().reset();

  const double counter_mops =
      counter_s > 0.0 ? static_cast<double>(kOps) / counter_s / 1e6 : 0.0;
  const double span_mops =
      span_s > 0.0 ? static_cast<double>(kSpans) / span_s / 1e6 : 0.0;
  bench::note(format("counter.inc: %.1f Mops/s, span open+close: %.1f Mops/s",
                     counter_mops, span_mops));

  // ---- 2. end-to-end A/B --------------------------------------------------
  const trace::EventVector events = bench::trace_one_run(0x7e1e, duration);
  bench::note(format("workload: %zu events, %d A/B pairs", events.size(),
                     runs));
  (void)synthesis_pass(events);  // warm-up

  std::vector<double> enabled_s, disabled_s;
  for (int r = 0; r < runs; ++r) {
    telemetry::set_enabled(true);
    enabled_s.push_back(synthesis_pass(events));
    telemetry::set_enabled(false);
    disabled_s.push_back(synthesis_pass(events));
  }
  telemetry::set_enabled(true);

  const double best_enabled =
      *std::min_element(enabled_s.begin(), enabled_s.end());
  const double best_disabled =
      *std::min_element(disabled_s.begin(), disabled_s.end());
  const double overhead_pct =
      best_disabled > 0.0
          ? (best_enabled / best_disabled - 1.0) * 100.0
          : 0.0;

  std::printf("\n%-40s %12s\n", "pass", "best (ms)");
  std::printf("%-40s %12.2f\n", "synthesis, telemetry enabled",
              best_enabled * 1e3);
  std::printf("%-40s %12.2f\n", "synthesis, telemetry disabled",
              best_disabled * 1e3);
  std::printf("%-40s %11.2f%% (tolerance %.0f%%)\n", "recording overhead",
              overhead_pct, tolerance_pct);

  JsonWriter json;
  json.begin_object()
      .kv("bench", "telemetry")
      .kv("runs", runs)
      .kv("duration_s", duration.to_sec())
      .kv("events", static_cast<std::uint64_t>(events.size()))
      .kv("counter_mops", counter_mops)
      .kv("span_mops", span_mops)
      .kv("enabled_best_ms", best_enabled * 1e3)
      .kv("disabled_best_ms", best_disabled * 1e3)
      .kv("overhead_pct", overhead_pct)
      .kv("tolerance_pct", tolerance_pct)
      .end_object();
  const char* out_env = std::getenv("TETRA_BENCH_JSON");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_telemetry.json";
  std::ofstream out(out_path, std::ios::trunc);
  out << bench::with_telemetry(json.str()) << "\n";
  bench::note(format("\nwrote %s", out_path.c_str()));

  const bool strict = bench::env_int("TETRA_REQUIRE_SPEEDUP", 1) != 0;
  if (strict && overhead_pct > tolerance_pct) {
    std::fprintf(stderr, "FAIL: telemetry overhead %.2f%% > %.0f%% allowed\n",
                 overhead_pct, tolerance_pct);
    return 1;
  }
  return 0;
}
