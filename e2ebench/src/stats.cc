#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double MeanOfStratumMedians(const std::vector<std::vector<double>>& strata) {
  double sum = 0.0;
  size_t n = 0;
  for (const std::vector<double>& stratum : strata) {
    if (stratum.empty()) continue;
    sum += Median(stratum);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

bool TailSupported(size_t samples, double q) {
  return samples >= 40 && static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  LineFit fit;
  if (y.empty()) return fit;
  const size_t n = y.size();
  const bool has_x = x.size() == n;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += has_x ? x[i] : 0.0;
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0;
  for (size_t i = 0; i < n && has_x; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  fit.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

double QError(double predicted, double truth) {
  const double p = std::max(predicted, 1e-9);
  const double t = std::max(truth, 1e-9);
  return std::max(p / t, t / p);
}

}  // namespace e2ebench
