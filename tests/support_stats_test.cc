// Unit tests for the statistics toolkit backing the benchmark harness.
#include "support/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace dhc::support {
namespace {

TEST(OnlineStats, MeanAndVarianceMatchClosedForm) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(3.14);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.14);
  EXPECT_DOUBLE_EQ(s.max(), 3.14);
}

TEST(OnlineStats, NegativeValues) {
  OnlineStats s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Quantile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, MedianOfEvenSampleInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
}

TEST(Quantile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.25), 7.0);
}

TEST(Quantile, RejectsEmptyAndBadLevels) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(NearestRank, NeverInterpolates) {
  // Index ⌊q·(n−1) + 0.5⌋ of the sorted sample: the rule behind the
  // runner's node_sent_p50/p95/p99 columns.
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 100.0};
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.50), 3.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.95), 100.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.99), 100.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 1.0), 100.0);
}

TEST(NearestRank, RejectsEmptyAndBadLevels) {
  EXPECT_THROW(nearest_rank({}, 0.5), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 1.1), std::invalid_argument);
}

TEST(Summarize, FullSummary) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(FitLine, ExactLine) {
  const auto fit = fit_line({1.0, 2.0, 3.0}, {5.0, 7.0, 9.0});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
}

TEST(FitLine, LeastSquaresOfNoisyData) {
  // y = 1 + x with symmetric residuals; least squares recovers the line.
  const auto fit = fit_line({0.0, 1.0, 2.0, 3.0}, {1.1, 1.9, 3.1, 3.9});
  EXPECT_NEAR(fit.slope, 1.0, 0.05);
  EXPECT_NEAR(fit.intercept, 1.0, 0.1);
}

TEST(FitLine, RejectsDegenerateInput) {
  EXPECT_THROW(fit_line({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_line({1.0, 2.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_line({2.0, 2.0}, {1.0, 3.0}), std::invalid_argument);
}

TEST(LogLogSlope, RecoversPolynomialExponent) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 1.5));
  }
  EXPECT_NEAR(loglog_slope(xs, ys), 1.5, 1e-9);
}

TEST(LogLogSlope, SqrtScaling) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x : {100.0, 400.0, 1600.0}) {
    xs.push_back(x);
    ys.push_back(std::sqrt(x));
  }
  EXPECT_NEAR(loglog_slope(xs, ys), 0.5, 1e-9);
}

TEST(LogLogSlope, RejectsNonPositive) {
  EXPECT_THROW(loglog_slope({1.0, -2.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(loglog_slope({1.0, 2.0}, {0.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace dhc::support
