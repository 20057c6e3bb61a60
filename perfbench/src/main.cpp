// perfbench: the repository benchmark.
//
//   perfbench --workload <fleet_jsonl|fleet_ttb|sentinel_live> --seed N
//             --seconds S --trace 0|1 --work-dir DIR --spans-out FILE
//
// Prints a host record line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md in
// this directory for what each workload and metric is for.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --spans-out FILE\n",
               message);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (options.work_dir.empty() || options.spans_out.empty()) {
    usage("--work-dir and --spans-out are required");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  try {
    std::filesystem::remove_all(options.work_dir);
    std::filesystem::create_directories(options.work_dir);
    perfbench::Outcome outcome;
    if (options.workload == "fleet_jsonl") {
      outcome = perfbench::run_fleet(options, false);
    } else if (options.workload == "fleet_ttb") {
      outcome = perfbench::run_fleet(options, true);
    } else if (options.workload == "sentinel_live") {
      outcome = perfbench::run_sentinel_live(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    std::filesystem::remove_all(options.work_dir);
    for (const std::string& problem : outcome.problems) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
    }
    std::printf("host %s\n", perfbench::host_record_json().c_str());
    std::printf("%s\n", outcome.result_line().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(options.work_dir);
    return 1;
  }
}
