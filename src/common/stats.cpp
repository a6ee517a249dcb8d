// Summary-statistics helpers (see stats.hpp).
#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace refit {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

ConfusionCounts ConfusionCounts::from_totals(std::uint64_t cells,
                                             std::uint64_t actual,
                                             std::uint64_t predicted,
                                             std::uint64_t both) {
  REFIT_CHECK(both <= actual && both <= predicted &&
              actual + predicted - both <= cells);
  ConfusionCounts cc;
  cc.tp = both;
  cc.fp = predicted - both;
  cc.fn = actual - both;
  cc.tn = cells - actual - predicted + both;
  return cc;
}

ConfusionCounts& ConfusionCounts::operator+=(const ConfusionCounts& o) {
  tp += o.tp;
  fp += o.fp;
  fn += o.fn;
  tn += o.tn;
  return *this;
}

double ConfusionCounts::precision() const {
  const auto denom = tp + fp;
  if (denom == 0) return 1.0;
  return static_cast<double>(tp) / static_cast<double>(denom);
}

double ConfusionCounts::recall() const {
  const auto denom = tp + fn;
  if (denom == 0) return 1.0;
  return static_cast<double>(tp) / static_cast<double>(denom);
}

double ConfusionCounts::f1() const {
  const double p = precision();
  const double r = recall();
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

double percentile(std::vector<double> v, double p) {
  REFIT_CHECK(!v.empty());
  REFIT_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace refit
