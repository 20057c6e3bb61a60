// Deterministic random number generation for workload models.
//
// Every stochastic element of the substrate (execution-time distributions,
// transport latencies, interference) draws from an explicitly seeded Rng so
// experiments are reproducible run-to-run and machine-to-machine.
#pragma once

#include <cstdint>
#include <memory>
#include <random>

#include "support/time.hpp"

namespace tetra {

/// Thin wrapper over a 64-bit Mersenne twister with convenience samplers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed'7e74'a11ceULL) : engine_(seed) {}

  /// Derives an independent child generator; used to give each node or
  /// callback its own stream so adding one sampler does not shift others.
  Rng fork() { return Rng{next_u64() ^ 0x9e37'79b9'7f4a'7c15ULL}; }

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Standard normal scaled to (mean, stddev).
  double normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    std::lognormal_distribution<double> d(mu, sigma);
    return d(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// A reusable description of a random execution-time (or latency) profile.
/// Sampled values are truncated to [min, max] so measured best/worst cases
/// converge to designed bounds as sample counts grow (paper Fig. 4).
class DurationDistribution {
 public:
  enum class Shape : std::uint8_t {
    Constant,   ///< always `nominal`
    Uniform,    ///< uniform on [min, max]
    Normal,     ///< normal(nominal, spread), truncated to [min, max]
    LogNormal,  ///< lognormal calibrated so median==nominal, truncated
    Mixture,    ///< two-component mixture (e.g. bimodal solver profiles)
  };

  /// Constant profile (SYN callbacks use these; measured == designed).
  static DurationDistribution constant(Duration value);
  /// Uniform on [lo, hi].
  static DurationDistribution uniform(Duration lo, Duration hi);
  /// Truncated normal: mean `mean`, std dev `stddev`, clamped to [lo, hi].
  static DurationDistribution normal(Duration mean, Duration stddev,
                                     Duration lo, Duration hi);
  /// Truncated lognormal with median `median` and shape `sigma`, clamped.
  static DurationDistribution lognormal(Duration median, double sigma,
                                        Duration lo, Duration hi);
  /// Two-component mixture: draws from `a` with probability `weight_a`,
  /// else from `b`. Models bimodal profiles like iterative-solver
  /// callbacks that occasionally converge immediately.
  static DurationDistribution mixture(const DurationDistribution& a,
                                      const DurationDistribution& b,
                                      double weight_a);

  Duration sample(Rng& rng) const;

  Duration min() const { return min_; }
  Duration max() const { return max_; }
  Duration nominal() const { return nominal_; }
  Shape shape() const { return shape_; }

  /// Scales the whole profile (nominal and bounds) by `factor`; used to
  /// vary SYN interference loads across runs.
  DurationDistribution scaled(double factor) const;

 private:
  Shape shape_ = Shape::Constant;
  Duration nominal_ = Duration::zero();
  Duration spread_ = Duration::zero();  // stddev for Normal
  double sigma_ = 0.0;                  // for LogNormal
  Duration min_ = Duration::zero();
  Duration max_ = Duration::zero();
  // Mixture components (set only for Shape::Mixture).
  std::shared_ptr<DurationDistribution> component_a_;
  std::shared_ptr<DurationDistribution> component_b_;
  double weight_a_ = 0.0;
};

}  // namespace tetra
