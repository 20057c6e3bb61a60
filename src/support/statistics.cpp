#include "support/statistics.hpp"

#include <algorithm>
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

namespace {

/// `samples` when already ascending, else a sorted copy held in `copy`.
const std::vector<double>& ascending(const std::vector<double>& samples,
                                     std::vector<double>& copy) {
  if (std::is_sorted(samples.begin(), samples.end())) return samples;
  copy = samples;
  std::sort(copy.begin(), copy.end());
  return copy;
}

}  // namespace

double ks_statistic(const std::vector<double>& a_samples,
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

KsTestResult two_sample_ks_test(const std::vector<double>& a,
                                const std::vector<double>& b) {
  KsTestResult result;
  result.n1 = a.size();
  result.n2 = b.size();
  if (a.empty() || b.empty()) return result;
  result.statistic = ks_statistic(a, b);
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
