// Process-level regression tests for the CLI exit-code contract:
// tetra_scenario --validate and tetra_predict must report round-trip /
// prediction failures through their exit status even when --quiet
// suppresses every table, and tetra_sentinel must carry its drift
// verdict in the status (0 clean / 1 drift / 2 usage / 3 runtime) — CI
// gates rely on the status alone.
//
// The tests exec the real binaries from the build tree
// (TETRA_BINARY_DIR); they skip when the tools were not built.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "trace/serialize.hpp"

namespace tetra {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< stdout only (stderr carries diagnostics)
};

std::string binary(const std::string& name) {
  return std::string(TETRA_BINARY_DIR) + "/" + name;
}

bool binary_exists(const std::string& name) {
  std::ifstream f(binary(name));
  return f.good();
}

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

#define REQUIRE_TOOL(name)                                         \
  if (!binary_exists(name)) GTEST_SKIP() << name << " not built "  \
                                         << "(TETRA_BUILD_TOOLS=OFF?)"

TEST(ScenarioCliTest, QuietValidateSucceedsSilently) {
  REQUIRE_TOOL("tetra_scenario");
  const CommandResult result = run_command(
      binary("tetra_scenario") + " --seed 7 --count 2 --validate --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(ScenarioCliTest, UsageErrorsExitTwo) {
  REQUIRE_TOOL("tetra_scenario");
  EXPECT_EQ(run_command(binary("tetra_scenario") + " --seed 1 --bogus")
                .exit_code,
            2);
  EXPECT_EQ(run_command(binary("tetra_scenario")).exit_code, 2);
}

TEST(PredictCliTest, QuietPredictionSucceedsSilently) {
  REQUIRE_TOOL("tetra_predict");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const CommandResult result = run_command(
      binary("tetra_predict") + " --trace " + fixture + " --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(PredictCliTest, ChainlessPredictionExitsNonZeroEvenQuiet) {
  REQUIRE_TOOL("tetra_predict");
  // A timers-only application has no topic edge, so no chain produces a
  // measurable traversal: the prediction round trip fails and the exit
  // status must say so, --quiet or not (this regressed silently before
  // the status was wired through).
  scenario::ScenarioSpec spec;
  spec.name = "chainless";
  scenario::ScenarioNodeSpec node;
  node.name = "lonely";
  scenario::TimerSpec timer;
  timer.period = Duration::ms(50);
  timer.demand = DurationDistribution::constant(Duration::ms_f(0.2));
  node.timers.push_back(timer);
  spec.nodes.push_back(std::move(node));
  const scenario::ScenarioRunResult run = scenario::ScenarioRunner().run(spec);

  const std::string trace_path = ::testing::TempDir() + "chainless.jsonl";
  trace::write_jsonl_file(trace_path, run.trace);

  const CommandResult loud = run_command(
      binary("tetra_predict") + " --trace " + trace_path);
  EXPECT_EQ(loud.exit_code, 1);
  const CommandResult quiet = run_command(
      binary("tetra_predict") + " --trace " + trace_path + " --quiet");
  EXPECT_EQ(quiet.exit_code, 1);
  EXPECT_TRUE(quiet.output.empty()) << quiet.output;
  std::remove(trace_path.c_str());
}

TEST(PredictCliTest, UsageErrorsExitTwo) {
  REQUIRE_TOOL("tetra_predict");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  EXPECT_EQ(run_command(binary("tetra_predict")).exit_code, 2);
  EXPECT_EQ(run_command(binary("tetra_predict") + " --bogus").exit_code, 2);
  // Every number is parsed whole and checked against its domain: no
  // trailing characters, no fractions where counts are expected, no
  // negative or non-finite scales.
  for (const char* flags :
       {"--cpus 4x", "--threads 4x", "--scale-exec-all -2",
        "--scale-exec-all nan", "--scale-exec-all inf",
        "--scale-exec node0/T1=-1", "--workers node0=2.7",
        "--workers node0", "--sweep-cpus 2,x", "--sweep-exec 1,nan",
        "--sweep-workers node0=1,2.5", "--horizon 0", "--horizon nan",
        "--hop-us 5:1", "--input-period /tp0=-3", "--seed -1",
        "--objective fastest", "--merge-dags --merge-traces"}) {
    EXPECT_EQ(run_command(binary("tetra_predict") + " --trace " + fixture +
                          " --quiet " + flags)
                  .exit_code,
              2)
        << flags;
  }
}

TEST(PredictCliTest, MissingTraceExitsNonZero) {
  REQUIRE_TOOL("tetra_predict");
  EXPECT_EQ(run_command(binary("tetra_predict") +
                        " --trace /nonexistent/trace.jsonl --quiet")
                .exit_code,
            1);
}

TEST(SentinelCliTest, CleanWindowExitsZero) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const CommandResult result = run_command(
      binary("tetra_sentinel") + " --baseline " + data +
      "/scenario_seed7_trace.jsonl --window " + data +
      "/sentinel_seed7_clean.jsonl --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(SentinelCliTest, DriftWindowExitsOneEvenQuiet) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string base = binary("tetra_sentinel") + " --baseline " + data +
                           "/scenario_seed7_trace.jsonl --window " + data +
                           "/sentinel_seed7_drift.jsonl";
  const CommandResult loud = run_command(base);
  EXPECT_EQ(loud.exit_code, 1);
  EXPECT_NE(loud.output.find("DRIFT"), std::string::npos) << loud.output;
  const CommandResult quiet = run_command(base + " --quiet");
  EXPECT_EQ(quiet.exit_code, 1);
  EXPECT_TRUE(quiet.output.empty()) << quiet.output;
}

TEST(SentinelCliTest, JsonVerdictMatchesGolden) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string json_path = ::testing::TempDir() + "verdict.json";
  const CommandResult result = run_command(
      binary("tetra_sentinel") + " --baseline " + data +
      "/scenario_seed7_trace.jsonl --window " + data +
      "/sentinel_seed7_drift.jsonl --json " + json_path + " --quiet");
  EXPECT_EQ(result.exit_code, 1);
  std::ifstream produced(json_path, std::ios::binary);
  std::ifstream golden(data + "/sentinel_seed7_verdict.json",
                       std::ios::binary);
  ASSERT_TRUE(produced.good());
  ASSERT_TRUE(golden.good());
  std::stringstream produced_text, golden_text;
  produced_text << produced.rdbuf();
  golden_text << golden.rdbuf();
  EXPECT_EQ(produced_text.str(), golden_text.str());
  std::remove(json_path.c_str());
}

TEST(SentinelCliTest, UsageErrorsExitTwo) {
  REQUIRE_TOOL("tetra_sentinel");
  EXPECT_EQ(run_command(binary("tetra_sentinel")).exit_code, 2);
  EXPECT_EQ(run_command(binary("tetra_sentinel") + " --bogus").exit_code, 2);
  EXPECT_EQ(
      run_command(binary("tetra_sentinel") + " --baseline a.jsonl").exit_code,
      2);
  EXPECT_EQ(run_command(binary("tetra_sentinel") +
                        " --baseline a.jsonl --window b.jsonl --alpha nope")
                .exit_code,
            2);
  // The KS level is a probability in (0, 1), in both modes; non-finite
  // numbers (alphas, deadlines) do not even parse.
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string clean_check =
      binary("tetra_sentinel") + " --baseline " + data +
      "/scenario_seed7_trace.jsonl --window " + data +
      "/sentinel_seed7_clean.jsonl --quiet";
  const std::string clean_follow =
      binary("tetra_sentinel") + " --baseline " + data +
      "/scenario_seed7_trace.jsonl --follow " + data +
      "/sentinel_seed7_clean.jsonl --quiet";
  for (const char* alpha : {"nan", "inf", "2", "1"}) {
    EXPECT_EQ(run_command(clean_check + " --alpha " + alpha).exit_code, 2)
        << alpha;
  }
  EXPECT_EQ(run_command(clean_check + " --deadline '/tp0=inf'").exit_code, 2);
  EXPECT_EQ(run_command(clean_follow + " --alpha 2").exit_code, 2);
  // Parses, but the stream rejects it: the e-process budget ln(1/alpha)
  // needs alpha in (0, 1).
  EXPECT_EQ(run_command(clean_follow + " --evidence-alpha 2").exit_code, 2);
  // A sample count is unsigned: no sign wrapping to 2^64 - 1, no overflow.
  for (const char* n : {"-1", "99999999999999999999999"}) {
    EXPECT_EQ(run_command(clean_check + " --min-samples " + n).exit_code, 2)
        << n;
  }
}

TEST(SentinelCliTest, CyclicBaselineModelDoesNotCrash) {
  // Two overlapping runs of one application merged into one trace give a
  // cyclic model; chain enumeration over it must terminate. Exit 0 or 1
  // is a verdict; anything else (a signal) is a crash.
  REQUIRE_TOOL("tetra_sentinel");
  REQUIRE_TOOL("tetra_synth");
  REQUIRE_TOOL("tetra_predict");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string traces = " --trace " + data +
                             "/scenario_seed7_trace.jsonl --trace " + data +
                             "/sentinel_seed7_clean.jsonl";
  const std::string commands[] = {
      binary("tetra_sentinel") + " --baseline " + data +
          "/scenario_seed7_trace.jsonl --baseline " + data +
          "/sentinel_seed7_clean.jsonl --window " + data +
          "/sentinel_seed7_drift.jsonl --quiet",
      binary("tetra_synth") + traces + " --merge-traces --report",
      binary("tetra_predict") + traces + " --merge-traces --horizon 1"};
  for (const std::string& command : commands) {
    const int code = run_command(command).exit_code;
    EXPECT_TRUE(code == 0 || code == 1) << command << " exited " << code;
  }
}

TEST(RecordDemoCliTest, UsageErrorsExitTwo) {
  REQUIRE_TOOL("tetra_record_demo");
  const std::string out = ::testing::TempDir() + "record_demo_usage";
  const std::string demo =
      binary("tetra_record_demo") + " --out " + out + " ";
  for (const char* args :
       {"--runs 2x --duration 1", "--runs 0 --duration 1", "--duration -5",
        "--duration abc", "--duration 1 --workload bogus",
        "--duration 1 --seed -3", "--duration 1 --bogus"}) {
    EXPECT_EQ(run_command(demo + args).exit_code, 2) << args;
  }
  EXPECT_FALSE(std::filesystem::exists(out + "-0.jsonl"));
  EXPECT_EQ(run_command(demo + "--help").exit_code, 0);
}

TEST(SentinelCliTest, UnreadableFilesExitThree) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  EXPECT_EQ(run_command(binary("tetra_sentinel") +
                        " --baseline /nonexistent/base.jsonl --window " +
                        data + "/sentinel_seed7_clean.jsonl --quiet")
                .exit_code,
            3);
  EXPECT_EQ(run_command(binary("tetra_sentinel") + " --baseline " + data +
                        "/scenario_seed7_trace.jsonl --window "
                        "/nonexistent/window.jsonl --quiet")
                .exit_code,
            3);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(SynthCliTest, TtbConversionRoundTripsByteIdentical) {
  REQUIRE_TOOL("tetra_synth");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string ttb = ::testing::TempDir() + "cli_seed7.ttb";
  const std::string back = ::testing::TempDir() + "cli_seed7_back.jsonl";
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --to-ttb " + ttb)
                .exit_code,
            0);
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + ttb +
                        " --to-jsonl " + back)
                .exit_code,
            0);
  EXPECT_EQ(slurp(back), slurp(fixture));
  std::remove(ttb.c_str());
  std::remove(back.c_str());
}

// tests/data/model_seed7.json pins the synthesized model across changes.
// Regenerate it (only after an intentional model change) with:
//   tetra_synth --trace tests/data/scenario_seed7_trace.jsonl
//       --json tests/data/model_seed7.json
TEST(SynthCliTest, EverySynthesisModeReproducesModelGolden) {
  REQUIRE_TOOL("tetra_synth");
  // Every way of synthesizing the golden trace must write the same model,
  // byte for byte: both --merge modes, the trace cut into two segment
  // files, the .ttb twin, and overhead compensation (a no-op on this
  // probe-free trace).
  namespace fs = std::filesystem;
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string golden =
      slurp(std::string(TETRA_TEST_DATA_DIR) + "/model_seed7.json");
  ASSERT_FALSE(golden.empty());
  const std::string dir = ::testing::TempDir() + "model_golden/";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ttb = dir + "seed7.ttb";
  ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --to-ttb " + ttb)
                .exit_code,
            0);
  {
    // Lines are events in time order, so each half is a sorted segment.
    std::istringstream in(slurp(fixture));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::ofstream first(dir + "part0.jsonl", std::ios::binary);
    std::ofstream second(dir + "part1.jsonl", std::ios::binary);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      (2 * i < lines.size() ? first : second) << lines[i] << '\n';
    }
  }
  const std::string segments =
      "--trace " + dir + "part0.jsonl --trace " + dir + "part1.jsonl";
  const std::vector<std::string> modes = {
      "--trace " + fixture,
      "--trace " + fixture + " --merge-traces",
      segments + " --merge-traces",
      "--trace " + ttb,
      "--trace " + fixture + " --compensate-overhead",
  };
  const std::string out = dir + "model.json";
  for (const std::string& mode : modes) {
    std::remove(out.c_str());
    EXPECT_EQ(run_command(binary("tetra_synth") + " " + mode + " --json " +
                          out)
                  .exit_code,
              0)
        << mode;
    EXPECT_EQ(slurp(out), golden) << mode;
  }
  fs::remove_all(dir);
}

TEST(SynthCliTest, PipedTraceSynthesizesLikeByPath) {
  REQUIRE_TOOL("tetra_synth");
  // The format sniff must not consume an unseekable input: the golden
  // trace piped through /dev/stdin yields the by-path model, in both
  // formats.
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string ttb = ::testing::TempDir() + "cli_pipe.ttb";
  const std::string by_path = ::testing::TempDir() + "model_by_path.json";
  const std::string piped = ::testing::TempDir() + "model_piped.json";
  ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --to-ttb " + ttb)
                .exit_code,
            0);
  ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --json " + by_path)
                .exit_code,
            0);
  for (const std::string& input : {fixture, ttb}) {
    std::remove(piped.c_str());
    EXPECT_EQ(run_command("cat " + input + " | " + binary("tetra_synth") +
                          " --trace /dev/stdin --json " + piped)
                  .exit_code,
              0)
        << input;
    EXPECT_EQ(slurp(piped), slurp(by_path)) << input;
  }
  std::remove(ttb.c_str());
  std::remove(by_path.c_str());
  std::remove(piped.c_str());
}

TEST(SynthCliTest, ConversionUsageErrorsExitTwo) {
  REQUIRE_TOOL("tetra_synth");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  // Conversion needs exactly one input trace.
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --trace " + fixture + " --to-ttb /tmp/x.ttb")
                .exit_code,
            2);
  EXPECT_EQ(run_command(binary("tetra_synth") + " --to-ttb /tmp/x.ttb")
                .exit_code,
            2);
  // Malformed numbers, conflicting modes and removed flags are usage
  // errors too.
  for (const char* flags :
       {"--threads 4x", "--threads 99999999999", "--threads 0",
        "--probe-cost -5us", "--merge-dags --merge-traces",
        "--incremental", "--waiting-times"}) {
    EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                          " " + flags)
                  .exit_code,
              2)
        << flags;
  }
}

TEST(ScenarioCliTest, TtbOutMatchesTraceOut) {
  REQUIRE_TOOL("tetra_scenario");
  REQUIRE_TOOL("tetra_synth");
  const std::string jsonl = ::testing::TempDir() + "scen.jsonl";
  const std::string ttb = ::testing::TempDir() + "scen.ttb";
  ASSERT_EQ(run_command(binary("tetra_scenario") +
                        " --seed 7 --trace-out " + jsonl + " --ttb-out " +
                        ttb + " --quiet")
                .exit_code,
            0);
  const std::string back = ::testing::TempDir() + "scen_back.jsonl";
  ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + ttb +
                        " --to-jsonl " + back)
                .exit_code,
            0);
  EXPECT_EQ(slurp(back), slurp(jsonl));
  std::remove(jsonl.c_str());
  std::remove(ttb.c_str());
  std::remove(back.c_str());
}

TEST(ScenarioCliTest, StatsSnapshotIsDeterministicUnderSimClock) {
  REQUIRE_TOOL("tetra_scenario");
  // Two identical seeded runs under TETRA_STATS_CLOCK=sim must write
  // byte-identical telemetry snapshots — the CI determinism property.
  const std::string first = ::testing::TempDir() + "stats1.json";
  const std::string second = ::testing::TempDir() + "stats2.json";
  const std::string base = "TETRA_STATS_CLOCK=sim " + binary("tetra_scenario") +
                           " --seed 7 --validate --shards 2 --quiet";
  ASSERT_EQ(run_command(base + " --stats-out " + first).exit_code, 0);
  ASSERT_EQ(run_command(base + " --stats-out " + second).exit_code, 0);
  const std::string snapshot = slurp(first);
  EXPECT_EQ(snapshot, slurp(second));
  EXPECT_FALSE(snapshot.empty());
  // The instrumented run must actually report: ingested segments, the
  // decode queue gauge and the synthesis span tree.
  EXPECT_NE(snapshot.find("\"session.segments_ingested\":"),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"ingest.queue_depth\":"), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"session.model\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"synth.extract\""), std::string::npos);
  // The trace is synthesized once by the runner's session and once by the
  // ingest service's session.
  std::size_t synth_traces = 0;
  for (std::size_t at = snapshot.find("\"name\":\"synth.trace\"");
       at != std::string::npos;
       at = snapshot.find("\"name\":\"synth.trace\"", at + 1)) {
    ++synth_traces;
  }
  EXPECT_EQ(synth_traces, 2u);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(SynthCliTest, StatsSnapshotIsDeterministicUnderSimClock) {
  REQUIRE_TOOL("tetra_synth");
  // tetra_synth opens its trace.decode span before anything else touches
  // telemetry; the span must still start on the simulated clock, or its
  // start is a steady-clock reading and its wall time negative.
  const std::string first = ::testing::TempDir() + "synth_stats1.json";
  const std::string second = ::testing::TempDir() + "synth_stats2.json";
  const std::string base = "TETRA_STATS_CLOCK=sim " + binary("tetra_synth") +
                           " --trace " + std::string(TETRA_TEST_DATA_DIR) +
                           "/scenario_seed7_trace.jsonl";
  ASSERT_EQ(run_command(base + " --stats-out " + first).exit_code, 0);
  ASSERT_EQ(run_command(base + " --stats-out " + second).exit_code, 0);
  const std::string snapshot = slurp(first);
  EXPECT_EQ(snapshot, slurp(second));
  EXPECT_NE(snapshot.find("\"name\":\"trace.decode\""), std::string::npos);
  EXPECT_EQ(snapshot.find("\"wall_ns\":-"), std::string::npos);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(SynthCliTest, LenientSkipsMalformedLines) {
  REQUIRE_TOOL("tetra_synth");
  // Corrupt lines fail the strict parser but are skipped (and counted in
  // trace.jsonl_malformed_skipped) under --lenient, for synthesis and
  // conversion alike. The second bad line names a topic no good line
  // uses and fails only after it, so a .ttb converted from the damaged
  // file equals the clean file's only if a rejected line interns nothing.
  namespace fs = std::filesystem;
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string dir = ::testing::TempDir() + "lenient/";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string clean = dir + "clean.jsonl";
  const std::string corrupt = dir + "corrupt.jsonl";
  {
    std::istringstream in(slurp(fixture));
    std::ofstream good(clean, std::ios::binary);
    std::ofstream bad(corrupt, std::ios::binary);
    std::string line;
    for (int i = 0; i < 70 && std::getline(in, line); ++i) {
      if (i == 35) {
        bad << "{\"t\": 5, \"pid\": oops}\n"
            << R"({"t":5,"pid":1,"probe":"P10","type":"take","take_kind":1,)"
            << R"("cb":1,"topic":"/only_in_a_bad_line","src_ts":"late"})"
            << '\n';
      }
      good << line << '\n';
      bad << line << '\n';
    }
  }
  const std::string synth = binary("tetra_synth") + " --trace ";
  EXPECT_EQ(run_command(synth + corrupt).exit_code, 1);
  EXPECT_EQ(run_command(synth + corrupt + " --lenient").exit_code, 0);
  const CommandResult warned = run_command(
      "(" + synth + corrupt + " --lenient --json " + dir + "m.json 2>&1)");
  EXPECT_EQ(warned.exit_code, 0);
  EXPECT_NE(warned.output.find("skipped 2 malformed lines"), std::string::npos)
      << warned.output;

  EXPECT_EQ(run_command(synth + corrupt + " --to-ttb " + dir + "bad.ttb")
                .exit_code,
            1);
  const CommandResult converted =
      run_command("(" + synth + corrupt + " --lenient --to-ttb " + dir +
                  "lenient.ttb 2>&1)");
  EXPECT_EQ(converted.exit_code, 0);
  EXPECT_NE(converted.output.find("skipped 2 malformed lines"),
            std::string::npos)
      << converted.output;
  ASSERT_EQ(run_command(synth + clean + " --to-ttb " + dir + "clean.ttb")
                .exit_code,
            0);
  EXPECT_EQ(slurp(dir + "lenient.ttb"), slurp(dir + "clean.ttb"));
  ASSERT_EQ(run_command(synth + dir + "lenient.ttb --to-jsonl " + dir +
                        "back.jsonl")
                .exit_code,
            0);
  EXPECT_EQ(slurp(dir + "back.jsonl"), slurp(clean));
  ASSERT_EQ(run_command(synth + corrupt + " --lenient --to-jsonl " + dir +
                        "direct.jsonl")
                .exit_code,
            0);
  EXPECT_EQ(slurp(dir + "direct.jsonl"), slurp(clean));
  fs::remove_all(dir);
}

TEST(SynthCliTest, StatsEnvDumpsSummaryAtExit) {
  REQUIRE_TOOL("tetra_synth");
  // TETRA_STATS=1 arms an at-exit summary dump on stderr with no flag;
  // regression for the static-destruction-order crash in the handler.
  // The subshell routes stderr (the summary) into the captured stream.
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const CommandResult result =
      run_command("(TETRA_STATS=1 " + binary("tetra_synth") + " --trace " +
                  fixture + " 2>&1 >/dev/null)");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("== tetra telemetry =="), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("session.segments_ingested"), std::string::npos)
      << result.output;
}

TEST(PredictCliTest, StatsOutWritesSnapshot) {
  REQUIRE_TOOL("tetra_predict");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string stats = ::testing::TempDir() + "predict_stats.json";
  ASSERT_EQ(run_command(binary("tetra_predict") + " --trace " + fixture +
                        " --quiet --stats-out " + stats)
                .exit_code,
            0);
  const std::string snapshot = slurp(stats);
  EXPECT_NE(snapshot.find("\"predict.activations\":"), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"predict.replay\""), std::string::npos);
  // The library's own decode span, one per trace file read.
  EXPECT_NE(snapshot.find("\"name\":\"trace.decode\""), std::string::npos);
  std::remove(stats.c_str());
}

TEST(SentinelCliTest, StatsOutWritesSnapshot) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string stats = ::testing::TempDir() + "sentinel_stats.json";
  ASSERT_EQ(run_command(binary("tetra_sentinel") + " --baseline " + data +
                        "/scenario_seed7_trace.jsonl --window " + data +
                        "/sentinel_seed7_clean.jsonl --quiet --stats-out " +
                        stats)
                .exit_code,
            0);
  const std::string snapshot = slurp(stats);
  EXPECT_NE(snapshot.find("\"sentinel.windows_checked\":1"),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"sentinel.check\""), std::string::npos);

  // A streamed run adds the stream span and the window slices under it.
  ASSERT_EQ(run_command(binary("tetra_sentinel") + " --baseline " + data +
                        "/scenario_seed7_trace.jsonl --follow " + data +
                        "/sentinel_seed7_clean.jsonl --out /dev/null --quiet" +
                        " --span 400 --advance 200 --stats-out " + stats)
                .exit_code,
            0);
  const std::string streamed = slurp(stats);
  EXPECT_NE(streamed.find("\"name\":\"sentinel.stream\""), std::string::npos);
  EXPECT_NE(streamed.find("\"name\":\"sentinel.slice\""), std::string::npos);
  std::remove(stats.c_str());
}

// tests/data/sentinel_seed1_follow.jsonl pins streamed verdicts, exec-time
// findings included, across changes. Regenerate it (only after an
// intentional verdict change) with the commands below, run from a scratch
// directory holding an empty live/:
//   tetra_scenario --seed 1 --duration-ms 10000 --quiet --run-index 0
//       --trace-out base.jsonl
//   tetra_scenario --seed 1 --duration-ms 10000 --quiet --run-index 1
//       --trace-out live/000.jsonl
//   tetra_scenario --seed 1 --duration-ms 10000 --quiet --run-index 3
//       --mutate scale-exec-time --trace-out live/001.jsonl
//   tetra_sentinel --baseline base.jsonl --follow live
//       --out sentinel_seed1_follow.jsonl --quiet     (exits 1)
TEST(SentinelCliTest, FollowVerdictsMatchGolden) {
  REQUIRE_TOOL("tetra_scenario");
  REQUIRE_TOOL("tetra_sentinel");
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "follow_seed1/";
  fs::remove_all(dir);
  fs::create_directories(dir + "live");
  const std::string scenario =
      binary("tetra_scenario") + " --seed 1 --duration-ms 10000 --quiet";
  ASSERT_EQ(run_command(scenario + " --run-index 0 --trace-out " + dir +
                        "base.jsonl")
                .exit_code,
            0);
  fs::create_directories(dir + "live_ttb");
  ASSERT_EQ(run_command(scenario + " --run-index 1 --trace-out " + dir +
                        "live/000.jsonl --ttb-out " + dir + "live_ttb/000.ttb")
                .exit_code,
            0);
  ASSERT_EQ(run_command(scenario + " --run-index 3 --mutate scale-exec-time" +
                        " --trace-out " + dir + "live/001.jsonl --ttb-out " +
                        dir + "live_ttb/001.ttb")
                .exit_code,
            0);
  const std::string golden =
      slurp(std::string(TETRA_TEST_DATA_DIR) + "/sentinel_seed1_follow.jsonl");
  ASSERT_FALSE(golden.empty());
  // The JSONL segments and their .ttb twins stream to the same verdicts.
  for (const char* live : {"live", "live_ttb"}) {
    fs::remove(dir + "follow.jsonl");
    EXPECT_EQ(run_command(binary("tetra_sentinel") + " --baseline " + dir +
                          "base.jsonl --follow " + dir + live + " --out " +
                          dir + "follow.jsonl --quiet")
                  .exit_code,
              1)
        << live;
    EXPECT_EQ(slurp(dir + "follow.jsonl"), golden) << live;
  }
  fs::remove_all(dir);
}

TEST(PredictCliTest, WorkerSweepRuns) {
  REQUIRE_TOOL("tetra_predict");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const CommandResult result = run_command(
      binary("tetra_predict") + " --trace " + fixture +
      " --sweep-workers node0=1,2,4 --objective worst-mean");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("node0@1w"), std::string::npos);
  EXPECT_NE(result.output.find("node0@4w"), std::string::npos);
}

}  // namespace
}  // namespace tetra
