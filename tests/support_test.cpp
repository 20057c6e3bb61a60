// Unit tests for the support module: time types, statistics, RNG
// distributions, JSON round-trips, string utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/json_parser.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"
#include "support/time.hpp"

namespace tetra {
namespace {

TEST(TimeTest, DurationConstructionAndConversion) {
  EXPECT_EQ(Duration::ms(3).count_ns(), 3'000'000);
  EXPECT_EQ(Duration::us(5).count_ns(), 5'000);
  EXPECT_EQ(Duration::sec(2).count_ns(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::ms(3).to_ms(), 3.0);
  EXPECT_DOUBLE_EQ(Duration::sec(2).to_sec(), 2.0);
}

TEST(TimeTest, DurationFloatingMilliseconds) {
  EXPECT_EQ(Duration::ms_f(1.5).count_ns(), 1'500'000);
  EXPECT_EQ(Duration::ms_f(0.0001).count_ns(), 100);
  EXPECT_EQ(Duration::ms_f(-2.5).count_ns(), -2'500'000);
}

TEST(TimeTest, DurationArithmetic) {
  const Duration a = Duration::ms(5);
  const Duration b = Duration::ms(3);
  EXPECT_EQ((a + b).count_ns(), 8'000'000);
  EXPECT_EQ((a - b).count_ns(), 2'000'000);
  EXPECT_EQ((a * 3).count_ns(), 15'000'000);
  EXPECT_EQ((a / 5).count_ns(), 1'000'000);
  EXPECT_EQ(a / b, 1);
  EXPECT_LT(b, a);
}

TEST(TimeTest, TimePointArithmetic) {
  const TimePoint t0{1'000};
  const TimePoint t1 = t0 + Duration::ns(500);
  EXPECT_EQ(t1.count_ns(), 1'500);
  EXPECT_EQ((t1 - t0).count_ns(), 500);
  EXPECT_EQ((t1 - Duration::ns(500)), t0);
}

TEST(TimeTest, ToStringPicksUnit) {
  EXPECT_EQ(to_string(Duration::ns(12)), "12ns");
  EXPECT_EQ(to_string(Duration::us(3)), "3.000us");
  EXPECT_EQ(to_string(Duration::ms(14)), "14.000ms");
  EXPECT_EQ(to_string(Duration::sec(2)), "2.000s");
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10 + i;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(RunningStatsTest, FromSummaryRoundTrip) {
  RunningStats s;
  for (double x : {1.0, 2.0, 6.0, 9.0}) s.add(x);
  RunningStats restored = RunningStats::from_summary(
      s.count(), s.min(), s.max(), s.mean(), s.variance());
  EXPECT_EQ(restored.count(), s.count());
  EXPECT_NEAR(restored.variance(), s.variance(), 1e-9);
  restored.add(5.0);
  EXPECT_EQ(restored.count(), 5u);
}

TEST(ExecStatsTest, ReportsPaperMetrics) {
  ExecStats stats;
  stats.add(Duration::ms(10));
  stats.add(Duration::ms(20));
  stats.add(Duration::ms(30));
  EXPECT_EQ(stats.mbcet(), Duration::ms(10));
  EXPECT_EQ(stats.macet(), Duration::ms(20));
  EXPECT_EQ(stats.mwcet(), Duration::ms(30));
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.99), 99.01, 1e-9);
  EXPECT_THROW(s.quantile(1.5), std::invalid_argument);
}

TEST(SampleSetTest, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.mean(), std::logic_error);
}

TEST(KsTest, IdenticalSamplesHaveZeroDistance) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(a, a), 0.0);
  const KsTestResult r = two_sample_ks_test(a, a);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
  EXPECT_FALSE(r.significant(0.05));
}

TEST(KsTest, DisjointSamplesHaveDistanceOne) {
  std::vector<double> a, b;
  for (int i = 1; i <= 20; ++i) {
    a.push_back(static_cast<double>(i));
    b.push_back(static_cast<double>(i + 100));
  }
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(a, b), 1.0);
  const KsTestResult r = two_sample_ks_test(a, b);
  EXPECT_DOUBLE_EQ(r.statistic, 1.0);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_TRUE(r.significant(1e-4));
}

TEST(KsTest, UniformVsShiftedUniformClosedForm) {
  // Evenly spaced grids stand in for Uniform(0,10) and Uniform(5,15):
  // the ECDF gap peaks where the supports stop overlapping, at exactly
  // the shift fraction 5/10 = 0.5.
  std::vector<double> a, b;
  for (int i = 1; i <= 10; ++i) {
    a.push_back(static_cast<double>(i));
    b.push_back(static_cast<double>(i) + 5.0);
  }
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(a, b), 0.5);
  // A 2.5 shift off the integer grid: a has exactly {1, 2, 3} strictly
  // below c's first point 3.5, so the peak ECDF gap is 3/10.
  std::vector<double> c;
  for (int i = 1; i <= 10; ++i) c.push_back(static_cast<double>(i) + 2.5);
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(a, c), 0.3);
  // The statistic is symmetric in its arguments.
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(b, a), 0.5);
}

TEST(KsTest, TiedValuesStepBothSides) {
  // All mass tied at one point: identical distributions, distance 0.
  const std::vector<double> a = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(a, a), 0.0);
  // Half of b ties with a's single atom, half sits above: the ECDF gap
  // after the tie is |1 - 0.5| = 0.5.
  const std::vector<double> b = {3.0, 3.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(a, b), 0.5);
}

TEST(KsTest, KolmogorovQKnownValues) {
  // Critical values of the Kolmogorov distribution: Q(1.358) ~ 0.05 and
  // Q(1.628) ~ 0.01 (standard tables), Q monotonically decreasing.
  EXPECT_NEAR(kolmogorov_q(1.358), 0.05, 2e-3);
  EXPECT_NEAR(kolmogorov_q(1.628), 0.01, 1e-3);
  EXPECT_DOUBLE_EQ(kolmogorov_q(0.0), 1.0);
  EXPECT_DOUBLE_EQ(kolmogorov_q(0.1), 1.0);
  double prev = 1.0;
  for (double lambda = 0.3; lambda < 3.0; lambda += 0.1) {
    const double q = kolmogorov_q(lambda);
    EXPECT_LE(q, prev);
    prev = q;
  }
  EXPECT_LT(kolmogorov_q(3.0), 1e-7);
}

TEST(KsTest, AlphaThresholdBoundary) {
  KsTestResult r;
  r.p_value = 0.05;
  EXPECT_FALSE(r.significant(0.05));  // strict inequality at the boundary
  r.p_value = std::nextafter(0.05, 0.0);
  EXPECT_TRUE(r.significant(0.05));
  r.p_value = 1.0;
  EXPECT_FALSE(r.significant(1.0));
}

TEST(KsTest, DegenerateInputsNeverReject) {
  const std::vector<double> some = {1.0, 2.0, 3.0};
  const std::vector<double> none;
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(some, none), 0.0);
  EXPECT_DOUBLE_EQ(ks_statistic_sorted(none, none), 0.0);
  KsTestResult r = two_sample_ks_test(some, none);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
  EXPECT_FALSE(r.significant(0.5));
  // Two single-point samples: effective size <= 1, no power, p stays 1
  // even though the statistic is maximal.
  r = two_sample_ks_test({1.0}, {1000.0});
  EXPECT_DOUBLE_EQ(r.statistic, 1.0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

// The merge-walk KS statistic the binary-search one replaced, verbatim:
// both ECDFs advance in step over the union of the two samples, O(n + m).
// ks_statistic_sorted must return the same bits on every input.
const std::vector<double>& ascending(const std::vector<double>& samples,
                                     std::vector<double>& copy) {
  if (std::is_sorted(samples.begin(), samples.end())) return samples;
  copy = samples;
  std::sort(copy.begin(), copy.end());
  return copy;
}

double reference_ks_statistic(const std::vector<double>& a_samples,
                              const std::vector<double>& b_samples) {
  if (a_samples.empty() || b_samples.empty()) return 0.0;
  std::vector<double> a_copy, b_copy;
  const std::vector<double>& a = ascending(a_samples, a_copy);
  const std::vector<double>& b = ascending(b_samples, b_copy);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double d = 0.0;
  while (ia < a.size() && ib < b.size()) {
    const double x = std::min(a[ia], b[ib]);
    // Step both ECDFs past every sample equal to x, so tied values are
    // compared only after both sides consumed them.
    while (ia < a.size() && a[ia] == x) ++ia;
    while (ib < b.size() && b[ib] == x) ++ib;
    d = std::max(d, std::abs(static_cast<double>(ia) / na -
                             static_cast<double>(ib) / nb));
  }
  // Once one sample is exhausted its ECDF sits at 1; the remaining gap is
  // covered by the last in-loop comparison (the other ECDF only grows).
  return d;
}

KsTestResult reference_ks_test(const std::vector<double>& a,
                               const std::vector<double>& b) {
  KsTestResult result;
  result.n1 = a.size();
  result.n2 = b.size();
  if (a.empty() || b.empty()) return result;
  result.statistic = reference_ks_statistic(a, b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ne = na * nb / (na + nb);
  if (ne <= 1.0) return result;
  const double root = std::sqrt(ne);
  result.p_value =
      kolmogorov_q((root + 0.12 + 0.11 / root) * result.statistic);
  return result;
}

/// Holds every KS entry point to the merge reference, bit for bit, on
/// (a, b) and on (b, a).
void expect_matches_reference(std::vector<double> a, std::vector<double> b) {
  for (int swap = 0; swap < 2; ++swap) {
    const KsTestResult want = reference_ks_test(a, b);
    const KsTestResult got = two_sample_ks_test(a, b);
    EXPECT_EQ(got.statistic, want.statistic);
    EXPECT_EQ(got.p_value, want.p_value);
    EXPECT_EQ(got.n1, want.n1);
    EXPECT_EQ(got.n2, want.n2);
    std::vector<double> sorted_a = a, sorted_b = b;
    std::sort(sorted_a.begin(), sorted_a.end());
    std::sort(sorted_b.begin(), sorted_b.end());
    EXPECT_EQ(ks_statistic_sorted(sorted_a, sorted_b), want.statistic);
    const KsTestResult sorted = two_sample_ks_test_sorted(sorted_a, sorted_b);
    EXPECT_EQ(sorted.statistic, want.statistic);
    EXPECT_EQ(sorted.p_value, want.p_value);
    std::swap(a, b);
  }
}

TEST(KsTest, SortedAndUnsortedSidesMatchTheByValueAlgorithmExactly) {
  Rng rng(2024);
  std::vector<std::vector<double>> drawn = {{}, {5.0}, {3.0}};
  for (int round = 0; round < 28; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 48));
    // Even rounds draw tie-heavy small integers, odd rounds continuous
    // values.
    std::vector<double> sample;
    for (std::size_t i = 0; i < n; ++i) {
      sample.push_back(round % 2 == 0
                           ? static_cast<double>(rng.uniform_int(0, 6))
                           : rng.uniform(0.0, 100.0));
    }
    drawn.push_back(std::move(sample));
  }
  // Every sample as drawn, ascending, and ascending but for its last pair
  // (an unsorted side whose only inversion comes last).
  std::vector<std::vector<double>> sides;
  for (const auto& sample : drawn) {
    std::vector<double> ascending = sample;
    std::sort(ascending.begin(), ascending.end());
    sides.push_back(sample);
    sides.push_back(ascending);
    const std::size_t n = ascending.size();
    if (n >= 2 && ascending[n - 2] < ascending[n - 1]) {
      std::swap(ascending[n - 2], ascending[n - 1]);
      sides.push_back(std::move(ascending));
    }
  }
  for (const auto& a : sides) {
    for (const auto& b : sides) {
      const KsTestResult got = two_sample_ks_test(a, b);
      const KsTestResult want = reference_ks_test(a, b);
      EXPECT_EQ(got.statistic, want.statistic);
      EXPECT_EQ(got.p_value, want.p_value);
      EXPECT_EQ(got.n1, want.n1);
      EXPECT_EQ(got.n2, want.n2);
    }
  }
}

TEST(KsTest, BinarySearchMatchesTheMergeReferenceOnEdgeCases) {
  // Ties across both sides, in the middle and at either end.
  expect_matches_reference({1, 2, 2, 3, 5, 5, 5, 8}, {2, 2, 5, 7});
  expect_matches_reference({0, 0, 1}, {0, 1, 1, 1, 1, 1, 2});
  expect_matches_reference({4, 4, 9}, {1, 4, 9, 9, 9});
  // m = 1 and n = 1: below, at, inside and above the other side.
  for (const double single : {-1.0, 0.0, 2.0, 2.5, 3.0, 7.0}) {
    expect_matches_reference({single}, {0, 1, 2, 2, 3, 3, 3, 6});
    expect_matches_reference({single}, {single});
    expect_matches_reference({single}, {3.0});
  }
  // All values equal, on one side and on both.
  expect_matches_reference({4, 4, 4, 4}, {4, 4});
  expect_matches_reference({4, 4, 4, 4}, {1, 2, 3, 4, 5});
  // Disjoint ranges, each side below the other, and touching at one value.
  expect_matches_reference({1, 2, 3}, {10, 11, 12, 13, 14});
  expect_matches_reference({10, 11}, {1, 2, 3, 4, 5, 6});
  expect_matches_reference({1, 2, 3}, {3, 4, 5, 6});
  // Equal sizes, and either side the smaller one (expect_matches_reference
  // also swaps the arguments).
  expect_matches_reference({1, 3, 5, 7}, {2, 3, 6, 8});
  expect_matches_reference({0.5}, {0.25, 0.5, 0.75, 1.0, 1.25, 1.5});
  // Empty sides.
  expect_matches_reference({}, {1, 2});
  expect_matches_reference({}, {});
}

TEST(KsTest, BinarySearchMatchesTheMergeReferenceOnRandomSamples) {
  Rng rng(26);
  for (int round = 0; round < 400; ++round) {
    // Lopsided sizes like a sentinel window against its baseline, and
    // balanced ones; a small value range forces ties across the sides.
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const auto n = static_cast<std::size_t>(
        round % 2 == 0 ? rng.uniform_int(1, 24) : rng.uniform_int(100, 800));
    const std::int64_t range = round % 4 < 2 ? 12 : 1'000'000;
    const double shift = static_cast<double>(rng.uniform_int(-3, 3));
    std::vector<double> a, b;
    for (std::size_t i = 0; i < m; ++i) {
      a.push_back(static_cast<double>(rng.uniform_int(0, range)) + shift);
    }
    for (std::size_t i = 0; i < n; ++i) {
      b.push_back(static_cast<double>(rng.uniform_int(0, range)));
    }
    expect_matches_reference(std::move(a), std::move(b));
  }
}

TEST(SequentialTest, CalibratorClosedForm) {
  // e(p) = 1 / (2 sqrt(p)): e(0.25) = 1 (the break-even p), e(0.01) = 5,
  // e(1) = 0.5 (a boring window *loses* evidence).
  EXPECT_DOUBLE_EQ(p_to_e_value(0.25), 1.0);
  EXPECT_DOUBLE_EQ(p_to_e_value(0.01), 5.0);
  EXPECT_DOUBLE_EQ(p_to_e_value(1.0), 0.5);
  // Tiny p-values clamp at max_e so one freak window cannot alarm alone.
  EXPECT_DOUBLE_EQ(p_to_e_value(1e-12, 20.0), 20.0);
  EXPECT_DOUBLE_EQ(p_to_e_value(0.01, 20.0), 5.0);
  // p = 0 is clamped, not infinite.
  EXPECT_TRUE(std::isfinite(p_to_e_value(0.0)));
}

TEST(SequentialTest, EValueLogThreshold) {
  EXPECT_DOUBLE_EQ(e_value_log_threshold(0.001), std::log(1000.0));
  EXPECT_DOUBLE_EQ(e_value_log_threshold(0.05), std::log(20.0));
  EXPECT_THROW(e_value_log_threshold(0.0), std::invalid_argument);
  EXPECT_THROW(e_value_log_threshold(1.0), std::invalid_argument);
}

TEST(SequentialTest, CusumAccumulatesAboveReferenceOnly) {
  CusumAccumulator acc(0.5, 2.0);
  acc.observe(0.5);  // exactly at reference: no movement
  EXPECT_DOUBLE_EQ(acc.value(), 0.0);
  acc.observe(1.5);  // +1.0
  EXPECT_DOUBLE_EQ(acc.value(), 1.0);
  acc.observe(0.0);  // -0.5
  EXPECT_DOUBLE_EQ(acc.value(), 0.5);
  EXPECT_FALSE(acc.crossed());
  acc.observe(2.0);  // +1.5 -> 2.0, at threshold counts as crossed
  EXPECT_DOUBLE_EQ(acc.value(), 2.0);
  EXPECT_TRUE(acc.crossed());
  EXPECT_EQ(acc.observations(), 4u);
}

TEST(SequentialTest, CusumClampsAtZeroAndResets) {
  CusumAccumulator acc(0.5, 2.0);
  acc.observe(0.0);
  acc.observe(0.0);
  // Clean windows cannot build negative credit that later drift must
  // first pay off.
  EXPECT_DOUBLE_EQ(acc.value(), 0.0);
  acc.observe(3.0);
  EXPECT_DOUBLE_EQ(acc.value(), 2.5);
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.value(), 0.0);
  EXPECT_EQ(acc.observations(), 0u);
  EXPECT_FALSE(acc.crossed());
}

TEST(SequentialTest, EProcessAlarmsAtClosedFormWindowCount) {
  // A restarted e-process is a CUSUM of log e-values with reference 0.
  // Constant per-window p = 0.01 gives e = 5; at alpha = 1e-3 the budget
  // is ln(1000), so the alarm fires at window ceil(ln 1000 / ln 5) = 5.
  CusumAccumulator acc(0.0, e_value_log_threshold(1e-3));
  std::size_t alarm_at = 0;
  for (std::size_t window = 1; window <= 10 && alarm_at == 0; ++window) {
    acc.observe(std::log(p_to_e_value(0.01)));
    if (acc.crossed()) alarm_at = window;
  }
  EXPECT_EQ(alarm_at, 5u);
  // The anytime-valid p bound at the crossing is below the budget.
  EXPECT_LT(std::exp(-acc.value()), 1e-3);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(DurationDistributionTest, ConstantAlwaysNominal) {
  Rng rng(1);
  auto d = DurationDistribution::constant(Duration::ms(7));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), Duration::ms(7));
}

TEST(DurationDistributionTest, UniformRespectsBounds) {
  Rng rng(1);
  auto d = DurationDistribution::uniform(Duration::ms(2), Duration::ms(4));
  for (int i = 0; i < 1000; ++i) {
    const Duration v = d.sample(rng);
    EXPECT_GE(v, Duration::ms(2));
    EXPECT_LE(v, Duration::ms(4));
  }
}

TEST(DurationDistributionTest, NormalTruncates) {
  Rng rng(1);
  auto d = DurationDistribution::normal(Duration::ms(10), Duration::ms(5),
                                        Duration::ms(8), Duration::ms(12));
  for (int i = 0; i < 1000; ++i) {
    const Duration v = d.sample(rng);
    EXPECT_GE(v, Duration::ms(8));
    EXPECT_LE(v, Duration::ms(12));
  }
}

TEST(DurationDistributionTest, NegativeBoundsAllowedForJitter) {
  Rng rng(1);
  auto d = DurationDistribution::uniform(Duration::ms(-6), Duration::ms(6));
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const Duration v = d.sample(rng);
    saw_negative |= v < Duration::zero();
    saw_positive |= v > Duration::zero();
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(DurationDistributionTest, MixtureDrawsBothComponents) {
  Rng rng(1);
  auto d = DurationDistribution::mixture(
      DurationDistribution::constant(Duration::ms(1)),
      DurationDistribution::constant(Duration::ms(100)), 0.5);
  int low = 0, high = 0;
  for (int i = 0; i < 1000; ++i) {
    (d.sample(rng) == Duration::ms(1) ? low : high)++;
  }
  EXPECT_GT(low, 300);
  EXPECT_GT(high, 300);
  EXPECT_EQ(d.min(), Duration::ms(1));
  EXPECT_EQ(d.max(), Duration::ms(100));
}

TEST(DurationDistributionTest, ScaledScalesBoundsAndNominal) {
  auto d = DurationDistribution::uniform(Duration::ms(2), Duration::ms(4))
               .scaled(2.0);
  EXPECT_EQ(d.min(), Duration::ms(4));
  EXPECT_EQ(d.max(), Duration::ms(8));
  EXPECT_EQ(d.nominal(), Duration::ms(6));
}

TEST(JsonWriterTest, ObjectsArraysValues) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "tetra");
  w.kv("count", std::int64_t{3});
  w.kv("ratio", 0.5);
  w.kv("ok", true);
  w.key("items").begin_array().value(std::int64_t{1}).value("two").end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"tetra","count":3,"ratio":0.5,"ok":true,"items":[1,"two"]})");
}

TEST(JsonWriterTest, EscapesSpecials) {
  JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\nd");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriterTest, MisuseThrows) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.value("no key"), std::logic_error);
  EXPECT_THROW(w.end_array(), std::logic_error);
  EXPECT_THROW(w.str(), std::logic_error);  // unclosed
}

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_EQ(parse_json("42").as_int(), 42);
  EXPECT_DOUBLE_EQ(parse_json("-3.25").as_double(), -3.25);
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("\"hi\\n\"").as_string(), "hi\n");
}

TEST(JsonParserTest, ParsesNested) {
  const auto v = parse_json(R"({"a": [1, {"b": "c"}], "d": 2.5})");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
  EXPECT_EQ(v.at("a").as_array()[1].at("b").as_string(), "c");
  EXPECT_DOUBLE_EQ(v.at("d").as_double(), 2.5);
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zz"));
}

TEST(JsonParserTest, RejectsMalformed) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("12 garbage"), std::runtime_error);
  EXPECT_THROW(parse_json(""), std::runtime_error);
}

TEST(JsonParserTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.kv("t", std::int64_t{123456789});
  w.kv("topic", "/lidar_front/points_raw");
  w.kv("unicode", "é");
  w.end_object();
  const auto v = parse_json(w.str());
  EXPECT_EQ(v.at("t").as_int(), 123456789);
  EXPECT_EQ(v.at("topic").as_string(), "/lidar_front/points_raw");
}

TEST(StringUtilsTest, SplitJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y"}, "->"), "x->y");
}

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("/sv3Request", "/sv3"));
  EXPECT_TRUE(ends_with("/sv3Request", "Request"));
  EXPECT_FALSE(ends_with("/sv3Reply", "Request"));
}

TEST(StringUtilsTest, FormatAndHex) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(hex_id(0x1f), "0x1f");
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"CB", "mWCET"});
  t.add_row({"cb1", "19.82"});
  t.add_row({"long_callback_name", "3"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| CB"), std::string::npos);
  EXPECT_NE(s.find("| long_callback_name"), std::string::npos);
}

}  // namespace
}  // namespace tetra
