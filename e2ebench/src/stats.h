#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace e2ebench {

/// Quantile q in [0, 1] of `values` by linear interpolation between order
/// statistics (Python's statistics.quantiles "inclusive" method). Empty
/// input yields 0.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The mean of each non-empty stratum's median. Where the units of a
/// sample come from a few generators of different cost, the plain median
/// of the pooled sample falls in the gap between their modes and jumps
/// from one to the other as their share shifts; the stratum medians do
/// not. Empty input yields 0.
double MeanOfStratumMedians(const std::vector<std::vector<double>>& strata);

/// True when a tail percentile q is backed by at least ten samples beyond
/// it and the sample holds at least 40 values; below that only the median
/// is meaningful.
bool TailSupported(size_t samples, double q);

/// Least-squares line y = intercept + slope * x.
struct LineFit {
  double intercept = 0.0;
  double slope = 0.0;
};

/// Fits y on x by ordinary least squares; a degenerate x (all equal, or
/// empty) gives slope 0 and the mean of y.
LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

/// max(p/t, t/p): the q-error of one prediction.
double QError(double predicted, double truth);

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
