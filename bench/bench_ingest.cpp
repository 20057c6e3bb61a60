// Fleet ingest benchmark: the binary trace path vs the JSONL path, the
// ingest service's decode-worker scaling, and re-synthesis after a late
// delta.
// Emits machine-readable results as BENCH_ingest.json.
//
// Three measurements:
//   1. single-thread file -> TraceIndex: memory-mapped .ttb vs JSONL parse
//      (gate: >= 2x events/sec, the format exists to beat per-line JSON;
//      the JSONL side is read_trace_file's single-pass field scanner
//      writing columns the index adopts, as SynthesisSession does)
//   2. submit_jsonl + flush throughput, 1 decode worker ("shard") vs
//      TETRA_SHARDS, each pass kRounds rounds of the fleet's uploads, as
//      the median of alternating pairs (gate: >= 0.7 median scaling
//      efficiency when a spin probe beside the pairs measures
//      TETRA_SHARDS cores, rounded to whole cores)
//   3. re-synthesis of an index that received a small per-pid delta last
//      vs a one-pass index, with a hard byte-identity check on the
//      resulting DAG JSON
//
// Knobs:
//   TETRA_ROBOTS     fleet size (default 8)
//   TETRA_DURATION   per-robot simulated seconds (default 6)
//   TETRA_SHARDS     decode workers for the scaling pass (default 4)
//   TETRA_BENCH_JSON output path (default BENCH_ingest.json)
//   TETRA_REQUIRE_SPEEDUP  0 = report only, never fail the gates
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/ingest_service.hpp"
#include "bench_util.hpp"
#include "core/export.hpp"
#include "core/model_synthesis.hpp"
#include "ebpf/tracers.hpp"
#include "support/json_writer.hpp"
#include "support/string_utils.hpp"
#include "trace/merge.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"
#include "workloads/syn_app.hpp"

namespace {

using namespace tetra;

/// Splits JSONL text into `parts` chunks of whole lines (fleet segments of
/// one robot's stream).
std::vector<std::string> split_lines(const std::string& text,
                                     std::size_t parts) {
  std::vector<std::size_t> line_starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n' && i + 1 < text.size()) line_starts.push_back(i + 1);
  }
  std::vector<std::string> chunks;
  const std::size_t lines = line_starts.size();
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t begin = line_starts[p * lines / parts];
    const std::size_t end = p + 1 == parts
                                ? text.size()
                                : line_starts[(p + 1) * lines / parts];
    if (end > begin) chunks.push_back(text.substr(begin, end - begin));
  }
  return chunks;
}

struct FleetItem {
  std::string id;
  std::string jsonl;
};

/// Rounds of the fleet's uploads in one timed scaling pass. At CI's
/// settings (8 robots x 5 s) one round through one decode worker takes
/// 16-18 ms on a 4-vCPU x86-64 host, too short to time against the host's
/// jitter; seven rounds make a 1-worker pass last over 100 ms.
constexpr int kRounds = 7;

/// One full ingest pass through the service with `shards` decode workers:
/// every upload submitted kRounds times, then one flush; returns wall
/// seconds. The pass copies the uploads before the clock starts and hands
/// each text over, as an uploader that owns its buffer does, so the time
/// is the service's and not the copy's.
double sharded_pass(std::size_t shards, const std::vector<FleetItem>& fleet) {
  std::vector<FleetItem> uploads;
  uploads.reserve(fleet.size() * kRounds);
  for (int round = 0; round < kRounds; ++round) {
    uploads.insert(uploads.end(), fleet.begin(), fleet.end());
  }
  api::IngestServiceConfig config;
  config.shards = shards;
  api::ShardedIngestService service(config);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& item : uploads) {
    service.submit_jsonl(item.id, std::move(item.jsonl));
  }
  service.flush();
  const double elapsed = bench::seconds_since(t0);
  if (service.first_error().code != api::ErrorCode::None) {
    std::fprintf(stderr, "FAIL: shard error: %s\n",
                 service.first_error().to_string().c_str());
    std::exit(1);
  }
  return elapsed;
}

}  // namespace

int main() {
  bench::banner("fleet ingest - binary traces, shards, late deltas");

  const int robots = bench::env_int("TETRA_ROBOTS", 8);
  const Duration duration =
      bench::env_seconds("TETRA_DURATION", Duration::sec(6));
  const auto shards =
      static_cast<std::size_t>(bench::env_int("TETRA_SHARDS", 4));
  const unsigned hardware = std::thread::hardware_concurrency();
  bench::note(format("%d robots x %.0fs, %zu shards (%u hardware threads)",
                     robots, duration.to_sec(), shards, hardware));

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tetra_bench_ingest";
  std::filesystem::create_directories(dir);

  std::vector<std::string> jsonl_paths, ttb_paths;
  std::size_t total_events = 0;
  for (int robot = 0; robot < robots; ++robot) {
    const trace::EventVector events = bench::trace_one_run(
        0xf1ee7 + static_cast<std::uint64_t>(robot), duration);
    total_events += events.size();
    const std::string stem = "robot-" + std::to_string(robot);
    jsonl_paths.push_back((dir / (stem + ".jsonl")).string());
    ttb_paths.push_back((dir / (stem + ".ttb")).string());
    trace::write_jsonl_file(jsonl_paths.back(), events);
    trace::write_ttb_file(ttb_paths.back(), events);
  }
  bench::note(format("collected %zu events", total_events));

  // ---- 1. single-thread file -> TraceIndex --------------------------------
  // The session's path: decode straight into columns, which an empty
  // index adopts whole.
  const auto jsonl_ingest = [&](const std::string& path) {
    core::TraceIndex index;
    index.append(trace::read_trace_file(path));
    return index.size();
  };
  const auto ttb_ingest = [&](const std::string& path) {
    const trace::TtbReader reader(path);
    core::TraceIndex index;
    index.append(reader.view());
    return index.size();
  };
  // Warm-up both paths (page cache, allocator).
  (void)jsonl_ingest(jsonl_paths[0]);
  (void)ttb_ingest(ttb_paths[0]);

  auto t0 = std::chrono::steady_clock::now();
  std::size_t jsonl_rows = 0;
  for (const auto& path : jsonl_paths) jsonl_rows += jsonl_ingest(path);
  const double jsonl_s = bench::seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  std::size_t ttb_rows = 0;
  for (const auto& path : ttb_paths) ttb_rows += ttb_ingest(path);
  const double ttb_s = bench::seconds_since(t0);
  if (jsonl_rows != total_events || ttb_rows != total_events) {
    std::fprintf(stderr, "FAIL: ingest row counts diverge (%zu / %zu / %zu)\n",
                 jsonl_rows, ttb_rows, total_events);
    std::filesystem::remove_all(dir);
    return 1;
  }
  const double ttb_speedup = ttb_s > 0.0 ? jsonl_s / ttb_s : 0.0;

  // ---- 2. decode-worker scaling -------------------------------------------
  // Each robot's stream is cut into four segments; the workers share one
  // decode queue, so any robot ids keep them evenly loaded.
  std::vector<FleetItem> items;
  for (int robot = 0; robot < robots; ++robot) {
    std::ifstream f(jsonl_paths[robot], std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    for (auto& chunk : split_lines(text, 4)) {
      items.push_back({"robot-" + std::to_string(robot), std::move(chunk)});
    }
  }
  // Nothing below reads the fleet files, so every later exit (the shard
  // error's included) leaves no files behind.
  std::filesystem::remove_all(dir);
  (void)sharded_pass(shards, items);  // warm-up
  // One pair of passes swings widely with the host's load, so the gate
  // reads the median of alternating 1-worker/N-worker pairs, each run
  // right after a spin probe of the parallelism the host gives N threads.
  constexpr int kPairs = 9;
  std::vector<double> passes_1_s, passes_n_s, efficiencies, probes;
  for (int pair = 0; pair < kPairs; ++pair) {
    probes.push_back(bench::effective_parallelism(shards));
    const bool one_first = pair % 2 == 0;
    const double first = sharded_pass(one_first ? 1 : shards, items);
    const double second = sharded_pass(one_first ? shards : 1, items);
    const double t1 = one_first ? first : second;
    const double tn = one_first ? second : first;
    passes_1_s.push_back(t1);
    passes_n_s.push_back(tn);
    efficiencies.push_back(tn > 0.0 ? t1 / (tn * static_cast<double>(shards))
                                    : 0.0);
  }
  const double sharded_1_s = bench::median(passes_1_s);
  const double sharded_n_s = bench::median(passes_n_s);
  const double scaling_efficiency = bench::median(efficiencies);
  const double parallelism = bench::median(probes);

  // ---- 3. re-synthesis after a late delta ---------------------------------
  // Hold back the second half of one pid's ROS events and append them
  // last: the index must synthesize exactly as the one-pass index.
  const trace::EventVector events = bench::trace_one_run(0xf1ee7, duration);
  const auto is_sched = [](const trace::TraceEvent& e) {
    return e.type == trace::EventType::SchedSwitch ||
           e.type == trace::EventType::SchedWakeup;
  };
  Pid target_pid = kInvalidPid;
  std::size_t best = 0;
  std::map<Pid, std::size_t> ros_counts;
  for (const auto& e : events) {
    if (is_sched(e)) continue;
    if (++ros_counts[e.pid] > best) {
      best = ros_counts[e.pid];
      target_pid = e.pid;
    }
  }
  trace::EventVector base, delta;
  std::size_t seen = 0;
  for (const auto& e : events) {
    const bool held = !is_sched(e) && e.pid == target_pid && 2 * ++seen > best;
    (held ? delta : base).push_back(e);
  }

  const core::TraceIndex full(events);
  t0 = std::chrono::steady_clock::now();
  const std::string full_json = core::to_json(core::synthesize(full).dag);
  const double full_s = bench::seconds_since(t0);

  core::TraceIndex late;
  late.append(base);
  late.append(delta);
  t0 = std::chrono::steady_clock::now();
  const std::string late_json = core::to_json(core::synthesize(late).dag);
  const double late_s = bench::seconds_since(t0);
  const bool identical = late_json == full_json;

  // ---- report -------------------------------------------------------------
  // A scaling pass ingests the fleet kRounds times.
  const auto rate = [total_events](double s, int rounds = 1) {
    return s > 0.0 ? static_cast<double>(total_events) * rounds / s : 0.0;
  };
  std::printf("\n%-40s %12s %14s\n", "pass", "wall (ms)", "events/sec");
  const auto row = [&](const std::string& name, double s, int rounds = 1) {
    std::printf("%-40s %12.1f %14.0f\n", name.c_str(), s * 1e3,
                rate(s, rounds));
  };
  row("jsonl file -> index, 1 thread", jsonl_s);
  row("ttb mmap -> index, 1 thread", ttb_s);
  row(format("sharded jsonl ingest, 1 shard, %d rounds", kRounds),
      sharded_1_s, kRounds);
  row(format("sharded jsonl ingest, %zu shards, %d rounds", shards, kRounds),
      sharded_n_s, kRounds);
  std::printf("%-40s %12.2fx\n", "ttb speedup", ttb_speedup);
  std::printf("%-40s %12.2f (median of %d pairs)\n", "scaling efficiency",
              scaling_efficiency, kPairs);
  std::printf("%-40s %12.2f (median of %d probes)\n",
              format("effective parallelism, %zu threads", shards).c_str(),
              parallelism, kPairs);
  std::printf("%-40s %12.1f vs %.1f ms one pass (%s)\n",
              "re-synthesis after a late delta", late_s * 1e3, full_s * 1e3,
              identical ? "identical" : "DIVERGED");

  JsonWriter json;
  json.begin_object()
      .kv("bench", "ingest")
      .kv("robots", robots)
      .kv("duration_s", duration.to_sec())
      .kv("shards", static_cast<std::uint64_t>(shards))
      .kv("hardware_threads", static_cast<std::uint64_t>(hardware))
      .kv("total_events", static_cast<std::uint64_t>(total_events))
      .key("events_per_sec")
      .begin_object()
      .kv("jsonl_single_thread", rate(jsonl_s))
      .kv("ttb_single_thread", rate(ttb_s))
      .kv("sharded_1", rate(sharded_1_s, kRounds))
      .kv("sharded_n", rate(sharded_n_s, kRounds))
      .end_object()
      .kv("ttb_speedup", ttb_speedup)
      .kv("scaling_efficiency", scaling_efficiency)
      .key("incremental")
      .begin_object()
      .kv("full_resynthesis_ms", full_s * 1e3)
      .kv("incremental_resynthesis_ms", late_s * 1e3)
      .kv("identical", identical)
      .end_object()
      .end_object();
  const char* out_env = std::getenv("TETRA_BENCH_JSON");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_ingest.json";
  std::ofstream out(out_path, std::ios::trunc);
  out << bench::with_telemetry(json.str()) << "\n";
  bench::note(format("\nwrote %s", out_path.c_str()));

  // Identity is correctness, not performance: always gating.
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: re-synthesis after a late delta diverged from the "
                 "one-pass index\n");
    return 1;
  }
  const bool strict = bench::env_int("TETRA_REQUIRE_SPEEDUP", 1) != 0;
  if (strict && ttb_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: ttb speedup %.2fx < 2.0x required\n",
                 ttb_speedup);
    return 1;
  }
  // The scaling bar needs `shards` cores under the workers, as the spin
  // probe measured them beside the pairs. The probe is rounded to whole
  // cores: outside busy spells it reads near but rarely at its thread
  // count (3.7-4.1 for 4 threads on a 4-vCPU x86-64 host).
  if (strict && std::lround(parallelism) < static_cast<long>(shards)) {
    std::printf("scaling gate skipped: the spin probe read %.2f effective "
                "cores for %zu shards\n",
                parallelism, shards);
  } else if (strict && scaling_efficiency < 0.7) {
    std::fprintf(stderr, "FAIL: scaling efficiency %.2f < 0.7 required\n",
                 scaling_efficiency);
    return 1;
  }
  return 0;
}
