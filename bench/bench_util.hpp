// Shared helpers for the reproduction benches: environment-variable knobs
// for run counts/durations (so CI can run fast while the full paper
// configuration remains the default), banner/printing utilities, wall-clock
// timing, the common SYN-app trace producer, mean/std/CI summaries, and the
// spin probe and median that the scaling gates read.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "ebpf/tracers.hpp"
#include "ros2/context.hpp"
#include "support/time.hpp"
#include "telemetry/snapshot.hpp"
#include "trace/merge.hpp"
#include "workloads/syn_app.hpp"

namespace tetra::bench {

/// Integer knob from the environment ("TETRA_RUNS=5"), else `fallback`.
inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Seconds knob from the environment, else `fallback`.
inline Duration env_seconds(const char* name, Duration fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? Duration::sec(std::atoi(value)) : fallback;
}

inline void banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// Wall-clock seconds elapsed since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One traced SYN-app run (init + runtime segments merged) — the standard
/// trace producer of the self-timed benches.
inline trace::EventVector trace_one_run(std::uint64_t seed,
                                        Duration duration) {
  ros2::Context::Config config;
  config.seed = seed;
  ros2::Context ctx(config);
  ebpf::TracerSuite suite(ctx);
  suite.start_init();
  workloads::build_syn_app(ctx);
  auto init_trace = suite.stop_init();
  suite.start_runtime();
  ctx.run_for(duration);
  return trace::merge_sorted({init_trace, suite.stop_runtime()});
}

/// Grafts the process telemetry snapshot into a completed JSON document
/// (`doc` must be a single object) as a final "telemetry" member, so every
/// BENCH_*.json carries the pipeline's own stage/metric breakdown that
/// .github/bench_trajectory.py prints.
inline std::string with_telemetry(std::string doc) {
  doc.insert(doc.size() - 1,
             ",\"telemetry\":" + telemetry::snapshot_to_json());
  return doc;
}

/// Sample statistics of repeated measurements: mean, sample standard
/// deviation and the 95% normal-approximation confidence half-width.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  ///< 1.96 * stddev / sqrt(n); 0 for n < 2
};

inline Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  double sum = 0.0;
  for (double x : samples) sum += x;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n < 2) return s;
  double sq = 0.0;
  for (double x : samples) sq += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(s.n - 1));
  s.ci95 = 1.96 * s.stddev / std::sqrt(static_cast<double>(s.n));
  return s;
}

/// Effective parallelism the host gives `threads` threads right now:
/// `threads` times the wall time of one thread's fixed integer work over
/// the wall time of `threads` threads doing that work each at once. It
/// reads about `threads` on an idle host with that many cores, and less
/// when other load or fewer cores share them.
inline double effective_parallelism(std::size_t threads) {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto timed_spin = [&](std::size_t count) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < count; ++t) {
      pool.emplace_back([&sink, seed = count + t] {
        std::uint64_t x = 0x2545F4914F6CDD1DULL ^ seed;
        for (std::uint64_t i = 0; i < kIterations; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sink.fetch_xor(x);
      });
    }
    for (auto& thread : pool) thread.join();
    return seconds_since(t0);
  };
  const double one = timed_spin(1);
  const double all = timed_spin(threads);
  return all > 0.0 ? static_cast<double>(threads) * one / all : 0.0;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace tetra::bench
