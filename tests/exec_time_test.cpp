// Tests for Algorithm 2: execution-time measurement from sched_switch
// events over the switch lists TraceIndex keeps per thread, including
// differential testing against the paper-faithful naive transcription.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/exec_time.hpp"
#include "core/extract.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace tetra::core {
namespace {

using trace::make_sched_switch;
using trace::make_sched_wakeup;
using trace::SchedSwitchInfo;
using trace::SchedWakeupInfo;
using trace::ThreadRunState;

constexpr Pid kPid = 1000;
constexpr Pid kOther = 2000;

SchedSwitchInfo switch_out(Pid pid, ThreadRunState state = ThreadRunState::Runnable) {
  return SchedSwitchInfo{0, pid, 0, state, kOther, 0};
}
SchedSwitchInfo switch_in(Pid pid) {
  return SchedSwitchInfo{0, kOther, 0, ThreadRunState::Sleeping, pid, 0};
}

TEST(ExecTimeTest, NoPreemptionFullWindow) {
  trace::EventVector sched;  // no events at all
  const TraceIndex index(sched);
  EXPECT_EQ(exec_time(index.switches_of(kPid), TimePoint{100}, TimePoint{600}),
            Duration::ns(500));
  EXPECT_EQ(exec_time_naive(TimePoint{100}, TimePoint{600}, kPid, sched),
            Duration::ns(500));
}

TEST(ExecTimeTest, SinglePreemptionSubtracted) {
  trace::EventVector sched;
  sched.push_back(make_sched_switch(TimePoint{200}, switch_out(kPid)));
  sched.push_back(make_sched_switch(TimePoint{350}, switch_in(kPid)));
  const TraceIndex index(sched);
  // Window [100, 600]: on-CPU during [100,200] and [350,600] = 350.
  EXPECT_EQ(exec_time(index.switches_of(kPid), TimePoint{100}, TimePoint{600}),
            Duration::ns(350));
  EXPECT_EQ(exec_time_naive(TimePoint{100}, TimePoint{600}, kPid, sched),
            Duration::ns(350));
}

TEST(ExecTimeTest, MultiplePreemptions) {
  trace::EventVector sched;
  for (int i = 0; i < 5; ++i) {
    sched.push_back(
        make_sched_switch(TimePoint{200 + i * 100}, switch_out(kPid)));
    sched.push_back(
        make_sched_switch(TimePoint{250 + i * 100}, switch_in(kPid)));
  }
  const TraceIndex index(sched);
  // Five 50ns holes in [100, 800]: 700 - 5*50 = 450... holes at
  // [200,250],[300,350],[400,450],[500,550],[600,650] => 700-250=450.
  EXPECT_EQ(exec_time(index.switches_of(kPid), TimePoint{100}, TimePoint{800}),
            Duration::ns(450));
}

TEST(ExecTimeTest, BlockingMidCallbackCounted) {
  // Thread blocks (Sleeping) waiting for I/O inside the callback — that
  // wait must not count as execution time.
  trace::EventVector sched;
  sched.push_back(make_sched_switch(
      TimePoint{300}, switch_out(kPid, ThreadRunState::Sleeping)));
  sched.push_back(make_sched_switch(TimePoint{500}, switch_in(kPid)));
  const TraceIndex index(sched);
  // On-CPU during [100,300] and [500,600] = 300 ns of execution.
  EXPECT_EQ(exec_time(index.switches_of(kPid), TimePoint{100}, TimePoint{600}),
            Duration::ns(300));
}

TEST(ExecTimeTest, EventsOutsideWindowIgnored) {
  trace::EventVector sched;
  sched.push_back(make_sched_switch(TimePoint{50}, switch_out(kPid)));
  sched.push_back(make_sched_switch(TimePoint{80}, switch_in(kPid)));
  sched.push_back(make_sched_switch(TimePoint{700}, switch_out(kPid)));
  const TraceIndex index(sched);
  EXPECT_EQ(exec_time(index.switches_of(kPid), TimePoint{100}, TimePoint{600}),
            Duration::ns(500));
}

TEST(ExecTimeTest, OtherPidsIgnored) {
  trace::EventVector sched;
  sched.push_back(make_sched_switch(
      TimePoint{200}, SchedSwitchInfo{1, 7777, 0, ThreadRunState::Runnable,
                                      8888, 0}));
  const TraceIndex index(sched);
  EXPECT_EQ(exec_time(index.switches_of(kPid), TimePoint{100}, TimePoint{600}),
            Duration::ns(500));
}

TEST(ExecTimeTest, LastWakeupBefore) {
  trace::EventVector events;
  events.push_back(make_sched_wakeup(TimePoint{100}, SchedWakeupInfo{kPid, 0}));
  events.push_back(make_sched_wakeup(TimePoint{300}, SchedWakeupInfo{kPid, 0}));
  const TraceIndex index(events);
  const std::vector<TimePoint>& wakeups = index.wakeups_of(kPid);
  EXPECT_EQ(last_wakeup_before(wakeups, TimePoint{250}).value(), TimePoint{100});
  EXPECT_EQ(last_wakeup_before(wakeups, TimePoint{300}).value(), TimePoint{300});
  EXPECT_FALSE(last_wakeup_before(wakeups, TimePoint{50}).has_value());
  EXPECT_FALSE(
      last_wakeup_before(index.wakeups_of(kOther), TimePoint{500}).has_value());
}

/// Property: the indexed Alg. 2 agrees with the paper-faithful naive
/// implementation on randomized, well-formed switch sequences.
class ExecTimeDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecTimeDifferentialTest, IndexedMatchesNaive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  trace::EventVector sched;
  // Build a well-formed alternating on/off sequence for kPid with noise
  // events from other PIDs.
  bool on_cpu = true;  // at window start the thread runs
  const std::int64_t window_start = 1000;
  std::int64_t cursor = window_start;
  std::vector<std::pair<std::int64_t, bool>> transitions;
  for (int i = 0; i < 40; ++i) {
    cursor += rng.uniform_int(10, 500);
    transitions.push_back({cursor, !on_cpu});
    on_cpu = !on_cpu;
  }
  // Window end while the thread is on CPU (callback end => running).
  std::int64_t window_end = cursor + rng.uniform_int(10, 400);
  if (!on_cpu) {
    cursor += rng.uniform_int(5, 100);
    transitions.push_back({cursor, true});
    window_end = cursor + rng.uniform_int(10, 400);
  }
  for (auto [time, in] : transitions) {
    sched.push_back(make_sched_switch(
        TimePoint{time}, in ? switch_in(kPid) : switch_out(kPid)));
    // Interleave noise.
    if (time % 3 == 0) {
      sched.push_back(make_sched_switch(
          TimePoint{time + 1}, SchedSwitchInfo{2, 7777, 0,
                                               ThreadRunState::Runnable, 8888,
                                               0}));
    }
  }
  trace::sort_by_time(sched);
  const TraceIndex index(sched);
  const auto indexed =
      exec_time(index.switches_of(kPid), TimePoint{window_start},
                TimePoint{window_end});
  const auto naive = exec_time_naive(TimePoint{window_start},
                                     TimePoint{window_end}, kPid, sched);
  EXPECT_EQ(indexed, naive);
  EXPECT_GT(indexed, Duration::zero());
  EXPECT_LE(indexed, Duration::ns(window_end - window_start));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ExecTimeDifferentialTest,
                         ::testing::Range(1, 26));

// ---- degenerate windows and statistics -----------------------------------

TEST(ExecTimeTest, InvertedWindowIsZero) {
  trace::EventVector sched;
  sched.push_back(make_sched_switch(TimePoint{200}, switch_out(kPid)));
  sched.push_back(make_sched_switch(TimePoint{350}, switch_in(kPid)));
  const TraceIndex index(sched);
  EXPECT_EQ(exec_time(index.switches_of(kPid), TimePoint{600}, TimePoint{100}),
            Duration::zero());
  EXPECT_EQ(exec_time_naive(TimePoint{600}, TimePoint{100}, kPid, sched),
            Duration::zero());
}

TEST(ExecStatsTest, EmptyStatsReportZeroEverywhere) {
  const ExecStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.mbcet(), Duration::zero());
  EXPECT_EQ(stats.macet(), Duration::zero());
  EXPECT_EQ(stats.mwcet(), Duration::zero());
  EXPECT_EQ(stats.stddev(), Duration::zero());
}

TEST(ExecStatsTest, SingleSampleCollapsesAllMetrics) {
  ExecStats stats;
  stats.add(Duration::us(42));
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.mbcet(), Duration::us(42));
  EXPECT_EQ(stats.macet(), Duration::us(42));
  EXPECT_EQ(stats.mwcet(), Duration::us(42));
  EXPECT_EQ(stats.stddev(), Duration::zero());
}

TEST(ExecStatsTest, NonFiniteSummariesStayFinite) {
  const double nan = std::nan("");
  ExecStats stats;
  stats.stats = RunningStats::from_summary(3, nan, nan, nan, nan);
  EXPECT_EQ(stats.mbcet(), Duration::zero());
  EXPECT_EQ(stats.macet(), Duration::zero());
  EXPECT_EQ(stats.mwcet(), Duration::zero());
  EXPECT_EQ(stats.stddev(), Duration::zero());
}

TEST(ExecStatsTest, CheckedNsSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(checked_ns(0.0), 0);
  EXPECT_EQ(checked_ns(1234.5), 1234);
  EXPECT_EQ(checked_ns(std::nan("")), 0);
  EXPECT_EQ(checked_ns(1e300), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(checked_ns(-1e300), std::numeric_limits<std::int64_t>::min());
  // Non-finite values (NaN and both infinities) all collapse to zero.
  EXPECT_EQ(checked_ns(std::numeric_limits<double>::infinity()), 0);
}

}  // namespace
}  // namespace tetra::core
