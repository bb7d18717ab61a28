#pragma once
// Numerical helpers: compensated summation, online moments, confidence
// intervals for Monte Carlo estimates, and least-squares fitting used by
// the scaling benchmarks to estimate empirical exponents.

#include <cmath>
#include <cstdint>
#include <vector>

namespace streamrel {

/// Kahan–Neumaier compensated summation. Exhaustive reliability algorithms
/// sum up to 2^63 tiny products; naive summation loses digits. add() is
/// inline because the side-array fold calls it once per configuration.
class KahanSum {
 public:
  void add(double x) noexcept {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      compensation_ += (sum_ - t) + x;
    } else {
      compensation_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  double value() const noexcept { return sum_ + compensation_; }
  void reset() noexcept { sum_ = 0.0; compensation_ = 0.0; }

  /// Merges another accumulator (used to combine per-thread partials).
  void merge(const KahanSum& other) noexcept;

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Welford online mean/variance.
class OnlineStats {
 public:
  void add(double x) noexcept;
  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Two-sided normal-approximation confidence half-width for a Bernoulli
/// proportion estimated from `successes` out of `samples`.
/// `z` defaults to the 95% quantile.
double proportion_ci_halfwidth(std::uint64_t successes, std::uint64_t samples,
                               double z = 1.959963984540054);

/// Wilson score interval for a Bernoulli proportion; better behaved than
/// the normal approximation at the extremes (reliability near 0 or 1).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double x) const noexcept { return lo <= x && x <= hi; }
};
Interval wilson_interval(std::uint64_t successes, std::uint64_t samples,
                         double z = 1.959963984540054);

/// Least-squares line fit y = slope*x + intercept. Requires >= 2 points.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace streamrel
