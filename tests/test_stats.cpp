// Unit tests for statistics helpers (src/common/stats.hpp).
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"

namespace refit {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, StddevIsSqrtVariance) {
  RunningStat s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(s.variance()));
}

TEST(ConfusionCounts, AddRouting) {
  ConfusionCounts c;
  c.add(true, true);    // TP
  c.add(true, false);   // FN
  c.add(false, true);   // FP
  c.add(false, false);  // TN
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_EQ(c.total(), 4u);
}

TEST(ConfusionCounts, FromTotalsMatchesPerCellAdds) {
  ConfusionCounts c;
  for (int i = 0; i < 3; ++i) c.add(true, true);
  for (int i = 0; i < 2; ++i) c.add(true, false);
  for (int i = 0; i < 5; ++i) c.add(false, true);
  for (int i = 0; i < 7; ++i) c.add(false, false);
  const ConfusionCounts t = ConfusionCounts::from_totals(
      /*cells=*/17, /*actual=*/5, /*predicted=*/8, /*both=*/3);
  EXPECT_EQ(t.tp, c.tp);
  EXPECT_EQ(t.fn, c.fn);
  EXPECT_EQ(t.fp, c.fp);
  EXPECT_EQ(t.tn, c.tn);
  // Totals no set of cells can produce are refused.
  EXPECT_THROW(ConfusionCounts::from_totals(4, 2, 3, 3), CheckError);
  EXPECT_THROW(ConfusionCounts::from_totals(4, 3, 3, 1), CheckError);
}

TEST(ConfusionCounts, PrecisionRecall) {
  ConfusionCounts c;
  c.tp = 70;
  c.fp = 30;
  c.fn = 10;
  EXPECT_DOUBLE_EQ(c.precision(), 0.7);
  EXPECT_DOUBLE_EQ(c.recall(), 0.875);
}

TEST(ConfusionCounts, DegenerateCases) {
  ConfusionCounts c;
  // No predictions, no faults: both metrics defined as 1.
  EXPECT_DOUBLE_EQ(c.precision(), 1.0);
  EXPECT_DOUBLE_EQ(c.recall(), 1.0);
}

TEST(ConfusionCounts, F1Harmonic) {
  ConfusionCounts c;
  c.tp = 50;
  c.fp = 50;
  c.fn = 0;
  // precision 0.5, recall 1.0 → F1 = 2/3
  EXPECT_NEAR(c.f1(), 2.0 / 3.0, 1e-12);
}

TEST(ConfusionCounts, Accumulate) {
  ConfusionCounts a, b;
  a.tp = 1;
  a.fp = 2;
  b.tp = 3;
  b.fn = 4;
  a += b;
  EXPECT_EQ(a.tp, 4u);
  EXPECT_EQ(a.fp, 2u);
  EXPECT_EQ(a.fn, 4u);
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Percentile, Interpolates) {
  // Sorted {10, 20}: p75 → 17.5.
  EXPECT_DOUBLE_EQ(percentile({20.0, 10.0}, 75.0), 17.5);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99.0), 42.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 50.0), CheckError);
}

TEST(MeanOf, Basics) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0}), 3.0);
}

}  // namespace
}  // namespace refit
