// Unit tests for the RRAM crossbar device model (src/rram/crossbar.hpp).
#include "rram/crossbar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace refit {
namespace {

CrossbarConfig noiseless(std::size_t rows = 8, std::size_t cols = 8,
                         std::size_t levels = 8) {
  CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.levels = levels;
  cfg.write_noise_sigma = 0.0;
  return cfg;
}

TEST(Crossbar, StartsAtZeroConductance) {
  Crossbar xb(noiseless(), EnduranceModel::unlimited(), Rng(1));
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_DOUBLE_EQ(xb.conductance(r, c), 0.0);
}

TEST(Crossbar, WriteSnapsToLevels) {
  Crossbar xb(noiseless(), EnduranceModel::unlimited(), Rng(2));
  xb.write(0, 0, 0.4);  // nearest of 8 levels: 3/7 ≈ 0.4286
  EXPECT_NEAR(xb.conductance(0, 0), 3.0 / 7.0, 1e-12);
  EXPECT_EQ(xb.read_level(0, 0), 3);
}

TEST(Crossbar, WriteClampsRange) {
  Crossbar xb(noiseless(), EnduranceModel::unlimited(), Rng(3));
  xb.write(0, 0, 1.7);
  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), 1.0);
  xb.write(0, 0, -0.3);
  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), 0.0);
}

TEST(Crossbar, WriteNoiseIsBounded) {
  CrossbarConfig cfg = noiseless();
  cfg.write_noise_sigma = 0.01;
  Crossbar xb(cfg, EnduranceModel::unlimited(), Rng(4));
  for (int i = 0; i < 100; ++i) {
    xb.write(0, 0, 0.5);
    // 4/7 ≈ 0.571 with σ=0.01 noise stays well inside one level gap.
    EXPECT_NEAR(xb.conductance(0, 0), 4.0 / 7.0, 0.06);
  }
}

TEST(Crossbar, WriteCountsAccumulate) {
  Crossbar xb(noiseless(), EnduranceModel::unlimited(), Rng(5));
  xb.write(1, 2, 0.5);
  xb.write(1, 2, 0.6);
  xb.write(0, 0, 0.1);
  EXPECT_EQ(xb.write_count(1, 2), 2u);
  EXPECT_EQ(xb.write_count(0, 0), 1u);
  EXPECT_EQ(xb.total_writes(), 3u);
}

TEST(Crossbar, StuckCellIgnoresWrites) {
  Crossbar xb(noiseless(), EnduranceModel::unlimited(), Rng(6));
  xb.force_fault(2, 3, FaultKind::kStuckAt1);
  EXPECT_DOUBLE_EQ(xb.conductance(2, 3), 1.0);
  xb.write(2, 3, 0.0);
  EXPECT_DOUBLE_EQ(xb.conductance(2, 3), 1.0);
  EXPECT_EQ(xb.write_count(2, 3), 0u);
  EXPECT_EQ(xb.suppressed_writes(), 1u);
}

TEST(Crossbar, ForceFaultPinsConductance) {
  Crossbar xb(noiseless(), EnduranceModel::unlimited(), Rng(7));
  xb.write(0, 0, 0.5);
  xb.force_fault(0, 0, FaultKind::kStuckAt0);
  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), 0.0);
  EXPECT_EQ(xb.fault(0, 0), FaultKind::kStuckAt0);
  EXPECT_TRUE(xb.is_stuck(0, 0));
  EXPECT_EQ(xb.fault_count(), 1u);
  EXPECT_NEAR(xb.fault_fraction(), 1.0 / 64.0, 1e-12);
}

TEST(Crossbar, EnduranceWearsCellsOut) {
  // Every cell has endurance exactly ~10 (tiny variance): the 11th write
  // must break it.
  Crossbar xb(noiseless(2, 2), EnduranceModel::gaussian(10.0, 1e-9), Rng(8));
  for (int i = 0; i < 10; ++i) xb.write(0, 0, 0.5);
  EXPECT_FALSE(xb.is_stuck(0, 0));
  xb.write(0, 0, 0.5);
  EXPECT_TRUE(xb.is_stuck(0, 0));
  EXPECT_EQ(xb.wearout_fault_count(), 1u);
  const double g = xb.conductance(0, 0);
  EXPECT_TRUE(g == 0.0 || g == 1.0);  // SA0 or SA1
}

TEST(Crossbar, EnduranceDistributionIsPerCell) {
  // With a wide endurance spread, cells must die at different times.
  Crossbar xb(noiseless(16, 16), EnduranceModel::gaussian(50.0, 15.0),
              Rng(9));
  int died_at_60 = 0;
  for (int w = 0; w < 60; ++w)
    for (std::size_t r = 0; r < 16; ++r)
      for (std::size_t c = 0; c < 16; ++c) xb.write(r, c, 0.5);
  died_at_60 = static_cast<int>(xb.fault_count());
  EXPECT_GT(died_at_60, 100);  // most cells broke (mean 50 < 60)
  EXPECT_LT(died_at_60, 256);  // but the high-endurance tail survived
}

TEST(Crossbar, SumConductanceRows) {
  Crossbar xb(noiseless(4, 4), EnduranceModel::unlimited(), Rng(10));
  xb.write(0, 2, 1.0);
  xb.write(1, 2, 1.0);
  xb.write(3, 2, 1.0);
  xb.write(2, 0, 1.0);
  std::vector<double> sums(4, -1.0);
  xb.sum_conductance_rows({0, 1}, sums.data());
  EXPECT_EQ(sums, (std::vector<double>{0.0, 0.0, 2.0, 0.0}));
  xb.sum_conductance_rows({0, 1, 2, 3}, sums.data());
  EXPECT_EQ(sums, (std::vector<double>{1.0, 0.0, 3.0, 0.0}));
}

TEST(Crossbar, SumConductanceCols) {
  Crossbar xb(noiseless(4, 4), EnduranceModel::unlimited(), Rng(11));
  xb.write(1, 0, 1.0);
  xb.write(1, 3, 1.0);
  xb.write(2, 2, 1.0);
  std::vector<double> sums(4, -1.0);
  xb.sum_conductance_cols({0, 3}, sums.data());
  EXPECT_EQ(sums, (std::vector<double>{0.0, 2.0, 0.0, 0.0}));
  xb.sum_conductance_cols({1, 2}, sums.data());
  EXPECT_EQ(sums, (std::vector<double>{0.0, 0.0, 1.0, 0.0}));
}

TEST(Crossbar, InlineRoundMatchesStdRound) {
  // round_half_away replaces std::round on the write and read paths, so it
  // must agree bit for bit: halves, their neighbours, signed zeros,
  // infinities, NaN, and values at and beyond 2^52.
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  std::vector<double> xs = {0.0,
                            -0.0,
                            0.5,
                            -0.5,
                            1.5,
                            2.5,
                            -2.5,
                            0.49999999999999994,
                            -0.49999999999999994,
                            std::nextafter(0.5, 1.0),
                            6.5,
                            7.0,
                            0x1p52 - 0.5,
                            0x1p52,
                            0x1p52 + 1.0,
                            -0x1p53,
                            1e300,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::quiet_NaN()};
  for (double h = -8.5; h <= 8.5; h += 1.0) {
    xs.push_back(h);
    xs.push_back(std::nextafter(h, -100.0));
    xs.push_back(std::nextafter(h, 100.0));
  }
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) xs.push_back(rng.uniform(-20.0, 20.0));
  for (double x : xs) {
    EXPECT_EQ(bits(round_half_away(x)), bits(std::round(x))) << x;
  }
}

TEST(Crossbar, NonFiniteConductanceReadsNoLevel) {
  // A NaN target programs a NaN conductance (snap and clamp pass NaN
  // through); it reads as no level instead of a NaN-to-int conversion.
  Crossbar xb(noiseless(2, 2), EnduranceModel::unlimited(), Rng(1));
  xb.write(0, 0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(xb.conductance(0, 0)));
  EXPECT_EQ(xb.read_level(0, 0), Crossbar::kNoLevel);
  xb.write(0, 1, -0.0);  // sign of zero survives, level 0 all the same
  EXPECT_TRUE(std::signbit(xb.conductance(0, 1)));
  EXPECT_EQ(xb.read_level(0, 1), 0);
  xb.write(1, 1, 1.0);
  EXPECT_EQ(xb.read_level(1, 1), 7);
}

TEST(Crossbar, LevelGap) {
  EXPECT_NEAR(noiseless(4, 4, 8).level_gap(), 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(noiseless(4, 4, 2).level_gap(), 1.0, 1e-12);
}

TEST(Crossbar, RejectsBadConfig) {
  CrossbarConfig cfg = noiseless();
  cfg.levels = 1;
  EXPECT_THROW(Crossbar(cfg, EnduranceModel::unlimited(), Rng(12)),
               CheckError);
}

TEST(Crossbar, UnlimitedEnduranceNeverBreaks) {
  Crossbar xb(noiseless(2, 2), EnduranceModel::unlimited(), Rng(13));
  for (int i = 0; i < 10000; ++i) xb.write(0, 0, 0.5);
  EXPECT_FALSE(xb.is_stuck(0, 0));
}

}  // namespace
}  // namespace refit
