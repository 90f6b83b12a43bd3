// Small statistics toolkit for the benchmark harness and tests.
//
// The paper-claim tests (tests/paper_claims_test.cc) report medians/means
// over seeds, check concentration claims (Lemmas 4, 7, 11–15), and fit
// log-log slopes against the theorems' round bounds; this header provides
// exactly those operations.
#pragma once

#include <cstddef>
#include <vector>

namespace dhc::support {

/// Streaming mean/variance accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-style summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
  double p90 = 0.0;
};

/// Computes a Summary of `values` (copies and sorts internally).
Summary summarize(std::vector<double> values);

/// Quantile by linear interpolation of the sorted sample; q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Nearest-rank quantile of an already sorted sample: the element at index
/// ⌊q·(n−1) + 0.5⌋; q in [0, 1].  Never interpolates, so the result is
/// always one of the sample's values.
double nearest_rank(const std::vector<double>& sorted, double q);

/// Least-squares fit of y = a + b*x; returns {a, b}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
};
LinearFit fit_line(const std::vector<double>& xs, const std::vector<double>& ys);

/// Least-squares fit of log(y) = a + b*log(x); returns slope b — the
/// empirical polynomial exponent used by the scaling experiments.
/// All inputs must be positive.
double loglog_slope(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace dhc::support
