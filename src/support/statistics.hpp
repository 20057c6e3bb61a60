// Measurement statistics: the paper reports measured best-case (mBCET),
// average (mACET) and worst-case (mWCET) execution times per callback, and
// studies how those estimates evolve with the number of runs (Fig. 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "support/time.hpp"

namespace tetra {

/// Streaming min/max/mean/stddev accumulator (Welford).
class RunningStats {
 public:
  void add(double x);
  /// Merges another accumulator into this one (parallel Welford merge);
  /// used when DAGs from multiple runs are merged (paper §V option ii).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;

  /// Reconstructs an accumulator from a stored summary (deserialization);
  /// `variance` is the sample variance as reported by variance().
  static RunningStats from_summary(std::size_t count, double min, double max,
                                   double mean, double variance);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// NaN-safe, saturating conversion of a nanosecond double to int64. A
/// plain static_cast of a non-finite or out-of-range double is undefined
/// behaviour; summaries deserialized from external JSON can carry both.
std::int64_t checked_ns(double x);

/// Execution-time statistics of one callback, in the units the paper
/// reports (derived from nanosecond samples). Degenerate accumulators are
/// well-defined: empty stats report zero for every metric, a single
/// sample reports mBCET == mACET == mWCET == the sample with zero stddev.
struct ExecStats {
  void add(Duration sample);
  void merge(const ExecStats& other);

  std::size_t count() const { return stats.count(); }
  bool empty() const { return stats.empty(); }

  /// Measured best-case execution time.
  Duration mbcet() const { return Duration{checked_ns(stats.min())}; }
  /// Measured average execution time.
  Duration macet() const { return Duration{checked_ns(stats.mean())}; }
  /// Measured worst-case execution time.
  Duration mwcet() const { return Duration{checked_ns(stats.max())}; }
  Duration stddev() const { return Duration{checked_ns(stats.stddev())}; }

  RunningStats stats;
};

/// Fixed set of samples with exact quantiles; used where the full sample
/// vector is retained (per-run analyses, convergence studies).
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void add(Duration d) { add(static_cast<double>(d.count_ns())); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  /// Exact quantile by linear interpolation, q in [0, 1].
  double quantile(double q) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Result of a two-sample Kolmogorov–Smirnov test: the maximum distance
/// between the empirical CDFs of the two samples, plus the asymptotic
/// probability of seeing a distance at least that large when both samples
/// come from one distribution. The model regression sentinel uses this to
/// decide whether a callback's fresh execution-time window drifted from
/// the baseline model.
struct KsTestResult {
  double statistic = 0.0;  ///< sup |F1(x) - F2(x)|, in [0, 1]
  double p_value = 1.0;
  std::size_t n1 = 0;
  std::size_t n2 = 0;

  /// True when the null hypothesis (same distribution) is rejected at
  /// significance level `alpha` (strict: p < alpha).
  bool significant(double alpha) const { return p_value < alpha; }
};

/// Two-sample KS statistic of two ascending samples (the order is a
/// precondition, asserted in debug builds): sup |F_a(x) - F_b(x)| over
/// the points x where both ECDFs have stepped past every sample equal to
/// x, so tied values are compared only after both sides consumed them.
/// Either sample empty => 0.0 by definition (nothing to compare).
///
/// It walks the smaller side's distinct values and binary-searches the
/// larger side, O(m log n) for m <= n: between two jumps of the smaller
/// side's ECDF the gap is largest at the jump itself or just before the
/// next one, so those two points per value give the merge walk's
/// distance bit for bit. A sentinel window tests ~12 samples against a
/// baseline of hundreds, sorted once per baseline.
double ks_statistic_sorted(std::span<const double> a,
                           std::span<const double> b);

/// Complementary CDF of the Kolmogorov distribution,
/// Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2), clamped to
/// [0, 1]. Q(0+) -> 1, monotonically decreasing.
double kolmogorov_q(double lambda);

/// Two-sample KS test of two ascending samples, with the asymptotic
/// p-value (Stephens' small-sample correction on the effective sample
/// size n1*n2/(n1+n2)). Degenerate
/// inputs never reject: an empty side or a single-point effective sample
/// yields p = 1. The p-value is approximate below ~8 samples per side;
/// callers gate on a minimum sample count for decisions that must not
/// false-alarm (see sentinel::SentinelConfig::min_samples).
KsTestResult two_sample_ks_test_sorted(std::span<const double> a,
                                       std::span<const double> b);

/// two_sample_ks_test_sorted of samples in any order: sorts its copies.
KsTestResult two_sample_ks_test(std::vector<double> a, std::vector<double> b);

/// Calibrates a p-value into an e-value with the square-root calibrator
/// e(p) = 1 / (2 sqrt(p)). The calibrator integrates to 1 over p in
/// [0, 1], so E[e] <= 1 under the null and the running product of
/// independent window e-values is a supermartingale; Ville's inequality
/// then bounds the chance the product ever reaches 1/alpha by alpha
/// (anytime-valid sequential testing). `max_e` > 0 clamps the per-window
/// contribution, which keeps one aberrant window (or an optimistic
/// small-sample KS p approximation) from dominating the accumulated
/// evidence; 0 leaves the calibrator unclamped.
double p_to_e_value(double p, double max_e = 0.0);

/// Log-evidence a sequential e-process must accumulate before alarming at
/// budget `alpha`: ln(1/alpha). Pairs with CusumAccumulator over
/// log(e-value) increments (reference 0).
double e_value_log_threshold(double alpha);

/// One-sided CUSUM accumulator: S_t = max(0, S_{t-1} + x_t - reference),
/// alarming when S_t >= threshold. The reference ("allowance") absorbs
/// in-control drift per observation; the restart at zero makes the
/// statistic forget stretches of clean data instead of banking credit
/// against a future change. With reference 0 and x_t = log(e-value) this
/// is an e-detector: evidence compounds across windows, and the crossing
/// level e_value_log_threshold(alpha) keeps the mean number of in-control
/// observations before a false alarm at 1/alpha or more. The restart
/// voids Ville's bound, so it does not bound the chance of ever alarming.
class CusumAccumulator {
 public:
  CusumAccumulator() = default;
  CusumAccumulator(double reference, double threshold)
      : reference_(reference), threshold_(threshold) {}

  void observe(double x);
  void reset();

  double value() const { return s_; }
  double reference() const { return reference_; }
  double threshold() const { return threshold_; }
  bool crossed() const { return s_ >= threshold_; }
  /// Observations since construction or the last reset().
  std::size_t observations() const { return observations_; }

 private:
  double reference_ = 0.0;
  double threshold_ = 1.0;
  double s_ = 0.0;
  std::size_t observations_ = 0;
};

}  // namespace tetra
