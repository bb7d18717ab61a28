#include "streamrel/util/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace streamrel {

void KahanSum::merge(const KahanSum& other) noexcept {
  add(other.sum_);
  add(other.compensation_);
}

void OnlineStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double proportion_ci_halfwidth(std::uint64_t successes, std::uint64_t samples,
                               double z) {
  if (samples == 0) throw std::invalid_argument("no samples");
  const double n = static_cast<double>(samples);
  const double p = static_cast<double>(successes) / n;
  return z * std::sqrt(p * (1.0 - p) / n);
}

Interval wilson_interval(std::uint64_t successes, std::uint64_t samples,
                         double z) {
  if (samples == 0) throw std::invalid_argument("no samples");
  const double n = static_cast<double>(samples);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {center - half, center + half};
}

LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("fit_line: need >= 2 matching points");
  }
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) throw std::invalid_argument("fit_line: x values identical");
  LineFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace streamrel
