// The benchmark's workloads. Each generates its inputs from the seed,
// runs its measured phase for the requested time and returns what it
// measured; a traced run (Options::trace) reports per-layer metrics
// instead of end-to-end ones.
#pragma once

#include "common.hpp"

namespace perfbench {

/// fleet_jsonl (`ttb` false) and fleet_ttb (`ttb` true).
Outcome run_fleet(const Options& options, bool ttb);

/// sentinel_live.
Outcome run_sentinel_live(const Options& options);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

}  // namespace perfbench
