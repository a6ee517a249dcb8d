// Tests for the IR-drop (wire resistance) extension.
#include <gtest/gtest.h>

#include "detect/quiescent_detector.hpp"
#include "rcs/crossbar_store.hpp"
#include "rram/faults.hpp"

namespace refit {
namespace {

CrossbarConfig with_ir(std::size_t n, double ratio) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.0;
  cfg.wire_resistance_ratio = ratio;
  return cfg;
}

TEST(IrDrop, DisabledIsIdentity) {
  Crossbar xb(with_ir(8, 0.0), EnduranceModel::unlimited(), Rng(1));
  xb.write(3, 4, 1.0);
  EXPECT_DOUBLE_EQ(xb.attenuation(3, 4), 1.0);
  EXPECT_DOUBLE_EQ(xb.effective_conductance(3, 4), xb.conductance(3, 4));
}

TEST(IrDrop, AttenuationGrowsWithDistance) {
  Crossbar xb(with_ir(32, 0.002), EnduranceModel::unlimited(), Rng(2));
  EXPECT_GT(xb.attenuation(0, 0), xb.attenuation(31, 31));
  EXPECT_GT(xb.attenuation(0, 0), 0.99);
  EXPECT_LT(xb.attenuation(31, 31), 1.0);
  // Monotone along both axes.
  for (std::size_t i = 1; i < 32; ++i) {
    EXPECT_LE(xb.attenuation(i, 0), xb.attenuation(i - 1, 0));
    EXPECT_LE(xb.attenuation(0, i), xb.attenuation(0, i - 1));
  }
}

TEST(IrDrop, AnalogSumsAreAttenuated) {
  Crossbar a(with_ir(16, 0.0), EnduranceModel::unlimited(), Rng(3));
  Crossbar b(with_ir(16, 0.01), EnduranceModel::unlimited(), Rng(3));
  for (std::size_t r = 0; r < 16; ++r) {
    a.write(r, 5, 1.0);
    b.write(r, 5, 1.0);
  }
  std::vector<std::size_t> all_rows(16);
  for (std::size_t r = 0; r < 16; ++r) all_rows[r] = r;
  std::vector<double> sa(16), sb(16);
  a.sum_conductance_rows(all_rows, sa.data());
  b.sum_conductance_rows(all_rows, sb.data());
  EXPECT_LT(sb[5], sa[5]);
}

TEST(IrDrop, EffectiveWeightsShrinkWithPosition) {
  RcsConfig cfg;
  cfg.tile_rows = cfg.tile_cols = 32;
  cfg.levels = 64;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  cfg.wire_resistance_ratio = 0.01;
  Tensor init({32, 32}, 0.05f);
  CrossbarWeightStore store(cfg, init, Rng(4));
  const Tensor& eff = store.effective();
  EXPECT_GT(eff.at(0, 0), eff.at(31, 31));
}

TEST(IrDrop, DetectorStaysCalibratedAtModerateRatios) {
  // The controller computes references with the same attenuation model, so
  // detection quality should survive a realistic wire resistance.
  Crossbar xb(with_ir(64, 0.001), EnduranceModel::unlimited(), Rng(5));
  Rng rng(6);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  FaultInjectionConfig fc;
  fc.fraction = 0.10;
  inject_fabrication_faults(xb, fc, rng);
  DetectorConfig dc;
  dc.test_rows_per_cycle = 8;
  const DetectionOutcome out = QuiescentVoltageDetector(dc).detect(xb);
  const ConfusionCounts cc = evaluate_detection(xb, out.predicted);
  EXPECT_GT(cc.recall(), 0.85);
  EXPECT_GT(cc.precision(), 0.5);
}

TEST(IrDrop, SevereRatioDegradesDetection) {
  auto run = [&](double ratio) {
    Crossbar xb(with_ir(64, ratio), EnduranceModel::unlimited(), Rng(7));
    Rng rng(8);
    randomize_crossbar_content(xb, 0.3, 0.2, rng);
    FaultInjectionConfig fc;
    fc.fraction = 0.10;
    inject_fabrication_faults(xb, fc, rng);
    DetectorConfig dc;
    dc.test_rows_per_cycle = 16;
    const DetectionOutcome out = QuiescentVoltageDetector(dc).detect(xb);
    return evaluate_detection(xb, out.predicted);
  };
  const ConfusionCounts clean = run(0.0);
  const ConfusionCounts severe = run(0.02);
  // Heavy IR drop shrinks the fault signature below the ADC's resolution
  // for far cells, costing recall.
  EXPECT_LT(severe.recall(), clean.recall());
}

}  // namespace
}  // namespace refit
