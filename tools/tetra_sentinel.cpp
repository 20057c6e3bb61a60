// tetra_sentinel — model drift detection, one-shot and streaming.
//
// Holds a baseline synthesized from one or more trace files (JSONL or
// .ttb) and reports structured drift verdicts (added/removed DAG
// structure, execution-time distribution shifts, timer period shifts,
// chain-latency envelope and deadline violations) in two modes:
//
// Batch (CI-style gating): each --window FILE is checked independently,
// in order; --json writes the verdict JSON (the verdict object for one
// window, an array for several).
//
// Streaming (--follow FILE-or-DIR): the trace is fed through
// sentinel::StreamSentinel as a continuous stream — a directory is
// consumed as its segment files in name order, each rebased onto the end
// of the previous one — and one verdict JSON line is emitted per sliding
// window advance (--out FILE, stdout otherwise). Per-axis evidence
// accumulates sequentially across windows (docs/SENTINEL.md); the exit
// status reports whether any window *alarmed*, not whether a single
// window looked odd.
//
// --deadline attaches a latency deadline to the chain whose plain topic
// path (joined with " -> ") equals TOPICS, e.g. --deadline '/tp0 ->
// /tp2=12.5'.
//
// Exit status: 0 = no drift/alarm, 1 = drift detected (batch: any window
// drifted; streaming: any window alarmed), 2 = usage error, 3 = runtime
// error (unreadable file, synthesis failure).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "sentinel/engine.hpp"
#include "sentinel/stream.hpp"
#include "tool_stats.hpp"

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << content;
}

/// The segment files of a --follow argument: the file itself, or the
/// .jsonl/.ttb files of a directory in name order (the deterministic
/// stream order the CI determinism job byte-diffs).
std::vector<std::string> follow_segments(const std::string& path,
                                         std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(path, ec)) return {path};
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".jsonl" || ext == ".ttb") {
      segments.push_back(entry.path().string());
    }
  }
  if (ec) {
    *error = "cannot list " + path + ": " + ec.message();
    return {};
  }
  if (segments.empty()) {
    *error = "no .jsonl or .ttb segments in " + path;
    return {};
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tetra;

  std::vector<std::string> baseline_files;
  std::vector<std::string> window_files;
  std::string follow_path;
  std::string json_path;
  std::string out_path;
  double span_ms = 0.0;
  double advance_ms = 0.0;
  std::uint64_t refresh_after = 0;
  bool quiet = false;
  tools::StatsOptions stats;
  sentinel::SentinelConfig config;
  std::uint64_t min_samples = config.min_samples;

  tools::FlagRegistry cli("tetra_sentinel");
  cli.flag("--baseline", "FILE", "baseline trace, JSONL or .ttb (repeatable)",
           &baseline_files)
      .flag("--window", "FILE", "trace window to check (repeatable)",
            &window_files)
      .flag("--follow", "PATH",
            "stream a trace file or a directory of segment files",
            &follow_path)
      .flag("--span", "MS", "sliding window span in ms (streaming)", &span_ms)
      .flag("--advance", "MS", "window advance in ms (streaming)",
            &advance_ms)
      .flag("--evidence-alpha", "A",
            "sequential alarm budget per accumulator (streaming)",
            &config.evidence_alpha)
      .flag("--refresh-after", "K",
            "baseline auto-refresh after K clean-but-shifted windows "
            "(streaming; 0 disables)",
            &refresh_after)
      .flag("--alpha", "A", "KS significance level per window", &config.alpha)
      .flag("--min-samples", "N",
            "minimum samples per side for a per-window KS finding",
            &min_samples)
      .flag("--period-tol", "F", "relative timer-period tolerance",
            &config.period_tolerance)
      .flag("--latency-tol", "F", "relative mean chain-latency tolerance",
            &config.latency_tolerance)
      .flag("--deadline", "TOPICS=MS",
            "per-chain latency deadline, e.g. '/tp0 -> /tp2=12.5'",
            [&config](const std::string& value, std::string* error) {
              const auto eq = value.rfind('=');
              if (eq == std::string::npos || eq == 0 ||
                  eq + 1 >= value.size()) {
                *error = "--deadline expects 'TOPICS=MS', got '" + value + "'";
                return false;
              }
              const std::string ms_text = value.substr(eq + 1);
              double ms = 0.0;
              if (!tools::parse_finite(ms_text, &ms) || ms <= 0.0) {
                *error = "--deadline expects a positive number of ms, got '" +
                         ms_text + "'";
                return false;
              }
              config.chain_deadlines[value.substr(0, eq)] = Duration::ms_f(ms);
              return true;
            })
      .flag("--json", "FILE", "write the batch verdict JSON", &json_path)
      .flag("--out", "FILE", "write streaming verdict JSON lines", &out_path)
      .flag("--quiet", "suppress per-window stdout output", &quiet)
      .flag("--stats", "print the telemetry summary table", &stats.summary)
      .flag("--stats-out", "FILE", "write the telemetry JSON snapshot",
            &stats.out_path);

  switch (cli.parse(argc, argv)) {
    case tools::FlagRegistry::Parse::Help: return 0;
    case tools::FlagRegistry::Parse::Error: return 2;
    case tools::FlagRegistry::Parse::Ok: break;
  }
  const bool streaming = !follow_path.empty();
  if (baseline_files.empty()) {
    return cli.usage_error(argv[0], "at least one --baseline is required");
  }
  if (streaming && !window_files.empty()) {
    return cli.usage_error(argv[0],
                           "--follow and --window are mutually exclusive");
  }
  if (!streaming && window_files.empty()) {
    return cli.usage_error(
        argv[0], "at least one --window (or --follow) is required");
  }
  if (!streaming && (span_ms > 0.0 || advance_ms > 0.0 || !out_path.empty())) {
    return cli.usage_error(argv[0],
                           "--span/--advance/--out only apply to --follow");
  }
  if (span_ms > 0.0) config.window_span = Duration::ms_f(span_ms);
  if (advance_ms > 0.0) config.window_advance = Duration::ms_f(advance_ms);
  if (config.window_advance > config.window_span) {
    return cli.usage_error(argv[0],
                           "--advance must not exceed --span (windows would "
                           "skip events)");
  }
  config.refresh_after = static_cast<std::size_t>(refresh_after);
  config.min_samples = static_cast<std::size_t>(min_samples);
  config.rebase_segments = true;  // directory segments each restart near t=0

  if (streaming) {
    sentinel::StreamSentinel stream(config);
    for (const auto& path : baseline_files) {
      const auto segment = stream.ingest_baseline_file(path);
      if (!segment.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     segment.error().to_string().c_str());
        return 3;
      }
    }
    std::string list_error;
    const std::vector<std::string> segments =
        follow_segments(follow_path, &list_error);
    if (segments.empty()) {
      std::fprintf(stderr, "error: %s\n", list_error.c_str());
      return 3;
    }

    bool any_alarm = false;
    std::string out_lines;
    for (const auto& segment_path : segments) {
      const auto verdicts = stream.feed_file(segment_path);
      if (!verdicts.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     verdicts.error().to_string().c_str());
        return verdicts.error().code == api::ErrorCode::InvalidArgument ? 2
                                                                        : 3;
      }
      for (const auto& window : verdicts.value()) {
        any_alarm = any_alarm || window.alarmed;
        const std::string line = sentinel::window_verdict_to_json(window);
        if (out_path.empty()) {
          std::printf("%s\n", line.c_str());
        } else {
          out_lines += line;
          out_lines += '\n';
          if (!quiet) {
            std::printf("window %zu: %s (%zu alarms, %zu transient, %zu "
                        "checks)\n",
                        window.index,
                        window.alarmed ? "ALARM"
                        : window.window_drifted ? "shifted"
                                                : "clean",
                        window.alarms.size(), window.transient.size(),
                        window.checks);
          }
        }
        if (window.refreshed) {
          // Operator-visible by contract: the refresh note survives
          // --quiet and redirected stdout.
          std::fprintf(stderr, "baseline refreshed at window %zu\n",
                       window.index);
        }
      }
    }
    if (!out_path.empty()) {
      try {
        write_file(out_path, out_lines);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
      }
    }
    const int stats_rc = tools::emit_stats(stats);
    return any_alarm ? 1 : stats_rc;
  }

  sentinel::DriftEngine engine(config);
  for (const auto& path : baseline_files) {
    const auto segment = engine.ingest_baseline_file(path);
    if (!segment.ok()) {
      std::fprintf(stderr, "error: %s\n", segment.error().to_string().c_str());
      return 3;
    }
  }

  bool any_drift = false;
  std::vector<std::string> verdict_jsons;
  for (const auto& path : window_files) {
    const auto analysis = engine.analyze_file(path);
    if (!analysis.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   analysis.error().to_string().c_str());
      return analysis.error().code == api::ErrorCode::InvalidArgument ? 2 : 3;
    }
    const sentinel::DriftVerdict& verdict = analysis.value().verdict;
    any_drift = any_drift || verdict.drifted;
    verdict_jsons.push_back(sentinel::verdict_to_json(verdict));
    if (!quiet) {
      std::printf("%s: %s (%zu findings, %zu checks)\n", path.c_str(),
                  verdict.drifted ? "DRIFT" : "clean",
                  verdict.findings.size(), verdict.checks);
      for (const auto& finding : verdict.findings) {
        std::printf("  [%s] %s: %s\n",
                    std::string(to_string(finding.kind)).c_str(),
                    finding.subject.c_str(), finding.detail.c_str());
      }
    }
  }

  if (!json_path.empty()) {
    try {
      if (verdict_jsons.size() == 1) {
        write_file(json_path, verdict_jsons.front() + "\n");
      } else {
        std::string out = "[";
        for (std::size_t i = 0; i < verdict_jsons.size(); ++i) {
          if (i > 0) out += ",";
          out += verdict_jsons[i];
        }
        out += "]\n";
        write_file(json_path, out);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 3;
    }
  }

  // The exit status carries the verdict regardless of --quiet; a failed
  // snapshot write only surfaces when the windows were clean.
  const int stats_rc = tools::emit_stats(stats);
  return any_drift ? 1 : stats_rc;
}
