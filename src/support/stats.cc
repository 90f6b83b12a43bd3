#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/require.h"

namespace dhc::support {

void OnlineStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double quantile(std::vector<double> values, double q) {
  DHC_REQUIRE(!values.empty(), "quantile of empty sample");
  DHC_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level " << q << " outside [0,1]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  DHC_REQUIRE(!sorted.empty(), "nearest_rank of empty sample");
  DHC_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level " << q << " outside [0,1]");
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[rank];
}

Summary summarize(std::vector<double> values) {
  DHC_REQUIRE(!values.empty(), "summarize of empty sample");
  OnlineStats online;
  for (double v : values) online.add(v);
  Summary s;
  s.count = values.size();
  s.mean = online.mean();
  s.stddev = online.stddev();
  s.min = online.min();
  s.max = online.max();
  s.median = quantile(values, 0.5);
  s.p90 = quantile(values, 0.9);
  return s;
}

LinearFit fit_line(const std::vector<double>& xs, const std::vector<double>& ys) {
  DHC_REQUIRE(xs.size() == ys.size(), "fit_line: size mismatch");
  DHC_REQUIRE(xs.size() >= 2, "fit_line needs at least two points");
  const auto n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  DHC_REQUIRE(denom != 0.0, "fit_line: degenerate x values");
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  return fit;
}

double loglog_slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  DHC_REQUIRE(xs.size() == ys.size(), "loglog_slope: size mismatch");
  std::vector<double> lx(xs.size());
  std::vector<double> ly(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    DHC_REQUIRE(xs[i] > 0.0 && ys[i] > 0.0, "loglog_slope requires positive data");
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  return fit_line(lx, ly).slope;
}

}  // namespace dhc::support
