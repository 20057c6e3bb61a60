#include "support/statistics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tetra {

std::int64_t checked_ns(double x) {
  if (!std::isfinite(x)) return 0;
  // Largest doubles exactly representable on both sides of int64's range.
  constexpr double kLo = -9.2e18;
  constexpr double kHi = 9.2e18;
  if (x <= kLo) return std::numeric_limits<std::int64_t>::min();
  if (x >= kHi) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(x);
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

RunningStats RunningStats::from_summary(std::size_t count, double min,
                                        double max, double mean,
                                        double variance) {
  RunningStats s;
  s.n_ = count;
  s.min_ = min;
  s.max_ = max;
  s.mean_ = mean;
  s.m2_ = count >= 2 ? variance * static_cast<double>(count - 1) : 0.0;
  return s;
}

void ExecStats::add(Duration sample) {
  stats.add(static_cast<double>(sample.count_ns()));
}

void ExecStats::merge(const ExecStats& other) { stats.merge(other.stats); }

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::min() const {
  if (empty()) throw std::logic_error("SampleSet::min on empty set");
  ensure_sorted();
  return samples_.front();
}

double SampleSet::max() const {
  if (empty()) throw std::logic_error("SampleSet::max on empty set");
  ensure_sorted();
  return samples_.back();
}

double SampleSet::mean() const {
  if (empty()) throw std::logic_error("SampleSet::mean on empty set");
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleSet::quantile(double q) const {
  if (empty()) throw std::logic_error("SampleSet::quantile on empty set");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile out of [0,1]");
  ensure_sorted();
  if (samples_.size() == 1) return samples_.front();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= samples_.size()) return samples_.back();
  return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
}

double ks_statistic_sorted(std::span<const double> a,
                           std::span<const double> b) {
  assert(std::is_sorted(a.begin(), a.end()));
  assert(std::is_sorted(b.begin(), b.end()));
  if (a.empty() || b.empty()) return 0.0;
  const std::span<const double> small = a.size() <= b.size() ? a : b;
  const std::span<const double> large = a.size() <= b.size() ? b : a;
  const double n_small = static_cast<double>(small.size());
  const double n_large = static_cast<double>(large.size());
  // |F_small - F_large| at the given counts; |x - y| and |y - x| are the
  // same double, so the result does not depend on which side is smaller.
  const auto gap = [&](std::size_t small_count, std::size_t large_count) {
    return std::abs(static_cast<double>(small_count) / n_small -
                    static_cast<double>(large_count) / n_large);
  };
  double d = 0.0;
  auto searched = large.begin();
  for (std::size_t i = 0; i < small.size();) {
    const double x = small[i];
    std::size_t next = i + 1;
    while (next < small.size() && small[next] == x) ++next;
    const auto below = std::lower_bound(searched, large.end(), x);
    searched = std::upper_bound(below, large.end(), x);
    // Since the previous value the small side's ECDF has stayed at i, so
    // the large side's lead peaks just before x, with all its samples
    // below x counted; the small side's lead peaks at a value itself,
    // once both sides have stepped past every sample equal to it.
    d = std::max(d, gap(i, static_cast<std::size_t>(below - large.begin())));
    d = std::max(d,
                 gap(next, static_cast<std::size_t>(searched - large.begin())));
    i = next;
  }
  return d;
}

double kolmogorov_q(double lambda) {
  // The alternating series converges fast for lambda >~ 0.3; below that
  // the distribution mass is indistinguishable from 1 at double precision.
  if (lambda <= 0.2) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term =
        std::exp(-2.0 * static_cast<double>(k) * static_cast<double>(k) *
                 lambda * lambda);
    sum += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

KsTestResult two_sample_ks_test_sorted(std::span<const double> a,
                                       std::span<const double> b) {
  KsTestResult result;
  result.n1 = a.size();
  result.n2 = b.size();
  if (a.empty() || b.empty()) return result;
  result.statistic = ks_statistic_sorted(a, b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ne = na * nb / (na + nb);
  if (ne <= 1.0) return result;  // single-point effective sample: no power
  // Stephens (1970): lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D keeps
  // the asymptotic Q usable down to small effective sample sizes.
  const double root = std::sqrt(ne);
  result.p_value =
      kolmogorov_q((root + 0.12 + 0.11 / root) * result.statistic);
  return result;
}

KsTestResult two_sample_ks_test(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return two_sample_ks_test_sorted(a, b);
}

double p_to_e_value(double p, double max_e) {
  // Guard the calibrator's pole at p = 0: approximate p-values (e.g. the
  // small-sample KS tail) can underflow to exactly zero, which must not
  // turn into infinite evidence.
  const double clamped_p = std::clamp(p, 1e-300, 1.0);
  const double e = 0.5 / std::sqrt(clamped_p);
  if (max_e > 0.0) return std::min(e, max_e);
  return e;
}

double e_value_log_threshold(double alpha) {
  if (alpha <= 0.0 || alpha >= 1.0)
    throw std::invalid_argument("e_value_log_threshold needs alpha in (0,1)");
  return std::log(1.0 / alpha);
}

void CusumAccumulator::observe(double x) {
  s_ = std::max(0.0, s_ + x - reference_);
  ++observations_;
}

void CusumAccumulator::reset() {
  s_ = 0.0;
  observations_ = 0;
}

}  // namespace tetra
