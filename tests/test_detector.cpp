// Tests for the quiescent-voltage comparison detector (src/detect).
#include "detect/quiescent_detector.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "rram/faults.hpp"

namespace refit {
namespace {

Crossbar make_xbar(std::size_t n, std::uint64_t seed,
                   double noise_sigma = 0.0) {
  CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.levels = 8;
  cfg.write_noise_sigma = noise_sigma;
  return Crossbar(cfg, EnduranceModel::unlimited(), Rng(seed));
}

DetectorConfig small_config(std::size_t tr = 4) {
  DetectorConfig cfg;
  cfg.test_rows_per_cycle = tr;
  cfg.modulo_divisor = 16;
  cfg.selected_cells_only = true;
  cfg.use_constraint_propagation = true;
  return cfg;
}

/// Populate the crossbar and inject faults the way a trained array looks.
void prepare(Crossbar& xb, double fault_fraction, Rng& rng,
             double p_low = 0.3, double p_high = 0.2) {
  randomize_crossbar_content(xb, p_low, p_high, rng);
  FaultInjectionConfig fc;
  fc.fraction = fault_fraction;
  inject_fabrication_faults(xb, fc, rng);
}

TEST(Detector, CleanCrossbarNoFalsePositivesNoiseless) {
  Rng rng(1);
  Crossbar xb = make_xbar(16, 2);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  const QuiescentVoltageDetector det(small_config());
  const DetectionOutcome out = det.detect(xb);
  const ConfusionCounts cc = evaluate_detection(xb, out.predicted);
  EXPECT_EQ(cc.fp, 0u);
  EXPECT_EQ(cc.tp, 0u);
}

TEST(Detector, PerfectRecallNoiseless) {
  // Without write noise and with 10 % faults, every stuck cell produces a
  // residue; recall must be 1 (no aliasing at these densities).
  Rng rng(3);
  Crossbar xb = make_xbar(32, 4);
  prepare(xb, 0.10, rng);
  const QuiescentVoltageDetector det(small_config());
  const DetectionOutcome out = det.detect(xb);
  const ConfusionCounts cc = evaluate_detection(xb, out.predicted);
  EXPECT_DOUBLE_EQ(cc.recall(), 1.0);
  EXPECT_GT(cc.precision(), 0.7);
}

TEST(Detector, RestoresTrainingWeights) {
  Rng rng(5);
  Crossbar xb = make_xbar(16, 6);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  std::vector<int> before;
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 16; ++c) before.push_back(xb.read_level(r, c));
  const QuiescentVoltageDetector det(small_config());
  const DetectionOutcome out = det.detect(xb);
  EXPECT_EQ(out.predicted.rows(), 16u);
  std::size_t i = 0;
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 16; ++c)
      EXPECT_EQ(xb.read_level(r, c), before[i++]) << "cell " << r << "," << c;
}

TEST(Detector, CycleCountMatchesFormula) {
  // With selection disabled, T = 2·(ceil(C/Tr) + ceil(C/Tc)) for the two
  // fault-type passes.
  Rng rng(7);
  Crossbar xb = make_xbar(32, 8);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  DetectorConfig cfg = small_config(8);
  cfg.selected_cells_only = false;
  const QuiescentVoltageDetector det(cfg);
  const DetectionOutcome out = det.detect(xb);
  EXPECT_EQ(out.cycles, 2u * (32 / 8 + 32 / 8));
}

TEST(Detector, SelectionReducesCyclesAndCellsTested) {
  Rng rng(9);
  Crossbar a = make_xbar(32, 10);
  Crossbar b = make_xbar(32, 10);  // identical content (same seed)
  prepare(a, 0.1, rng);
  Rng rng2(9);
  prepare(b, 0.1, rng2);
  DetectorConfig sel = small_config(8);
  DetectorConfig all = small_config(8);
  all.selected_cells_only = false;
  const DetectionOutcome so = QuiescentVoltageDetector(sel).detect(a);
  const DetectionOutcome ao = QuiescentVoltageDetector(all).detect(b);
  EXPECT_LT(so.cells_tested, ao.cells_tested);
  EXPECT_LE(so.cycles, ao.cycles);
}

TEST(Detector, SelectionImprovesPrecisionUnderNoise) {
  // §4.3: testing only plausible cells removes a large class of false
  // positives. Evaluate over several seeds with analog write noise.
  double prec_sel = 0.0, prec_all = 0.0;
  int n = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(100 + seed);
    Crossbar a = make_xbar(48, 200 + seed, 0.01);
    prepare(a, 0.10, rng);
    Rng rng2(100 + seed);
    Crossbar b = make_xbar(48, 200 + seed, 0.01);
    prepare(b, 0.10, rng2);
    DetectorConfig sel = small_config(12);
    DetectorConfig all = small_config(12);
    all.selected_cells_only = false;
    const auto so = QuiescentVoltageDetector(sel).detect(a);
    const auto ao = QuiescentVoltageDetector(all).detect(b);
    prec_sel += evaluate_detection(a, so.predicted).precision();
    prec_all += evaluate_detection(b, ao.predicted).precision();
    ++n;
  }
  EXPECT_GT(prec_sel / n, prec_all / n);
}

TEST(Detector, SmallerTestSizeImprovesPrecision) {
  // The paper's core trade-off: more cycles (smaller Tr) → higher precision.
  auto precision_at = [&](std::size_t tr) {
    double p = 0.0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng(300 + seed);
      Crossbar xb = make_xbar(64, 400 + seed, 0.01);
      prepare(xb, 0.10, rng);
      DetectorConfig cfg = small_config(tr);
      cfg.use_constraint_propagation = false;  // isolate the group effect
      const auto out = QuiescentVoltageDetector(cfg).detect(xb);
      p += evaluate_detection(xb, out.predicted).precision();
    }
    return p / 4.0;
  };
  EXPECT_GT(precision_at(2), precision_at(32));
}

TEST(Detector, RecallStaysHighUnderNoise) {
  Rng rng(11);
  Crossbar xb = make_xbar(64, 12, 0.01);
  prepare(xb, 0.10, rng);
  const QuiescentVoltageDetector det(small_config(8));
  const DetectionOutcome out = det.detect(xb);
  const ConfusionCounts cc = evaluate_detection(xb, out.predicted);
  EXPECT_GT(cc.recall(), 0.85);  // paper reports > 0.87
}

TEST(Detector, DeviceWritesBounded) {
  // Each pass pulses each candidate twice (test + restore), and candidates
  // of the two passes are disjoint, so writes ≤ 2 · cells.
  Rng rng(13);
  Crossbar xb = make_xbar(16, 14);
  prepare(xb, 0.1, rng);
  const QuiescentVoltageDetector det(small_config());
  const DetectionOutcome out = det.detect(xb);
  EXPECT_LE(out.device_writes, 2u * 16 * 16);
  EXPECT_EQ(out.device_writes, 2u * out.cells_tested);
}

TEST(Detector, NanCellIsNeverACandidate) {
  // A NaN conductance reads as Crossbar::kNoLevel: neither pass pulses it,
  // with or without selected-cell testing, and it is never flagged.
  for (const bool selected : {true, false}) {
    Rng rng(19);
    Crossbar xb = make_xbar(16, 20, 0.01);
    prepare(xb, 0.1, rng);
    xb.write(3, 4, std::numeric_limits<double>::quiet_NaN());
    const std::uint64_t writes = xb.write_count(3, 4);
    DetectorConfig cfg = small_config();
    cfg.selected_cells_only = selected;
    const DetectionOutcome out = QuiescentVoltageDetector(cfg).detect(xb);
    EXPECT_EQ(xb.write_count(3, 4), writes) << "selected=" << selected;
    EXPECT_FALSE(out.predicted.faulty(3, 4)) << "selected=" << selected;
    EXPECT_GT(out.cells_tested, 0u);
  }
}

TEST(Detector, DetectStoreAssemblesTiles) {
  RcsConfig cfg;
  cfg.tile_rows = 8;
  cfg.tile_cols = 8;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.1;
  Rng wrng(15);
  CrossbarWeightStore store(cfg, Tensor::randn({20, 12}, wrng, 0.05f),
                            Rng(16));
  const QuiescentVoltageDetector det(small_config());
  const DetectionOutcome out = det.detect_store(store);
  EXPECT_EQ(out.predicted.rows(), 20u);
  EXPECT_EQ(out.predicted.cols(), 12u);
  const ConfusionCounts cc = evaluate_detection(store, out.predicted);
  EXPECT_GT(cc.recall(), 0.9);
}

TEST(Detector, EvaluateClassifiedRejectsIncompleteOutcome) {
  // evaluate_classified walks all three maps cell by cell: a truth snapshot
  // without a classified_soft map of the same shape must be refused, not
  // read out of bounds.
  DetectionOutcome out;
  out.predicted = FaultMatrix(4, 5);
  out.truth_before = FaultMatrix(4, 5);
  EXPECT_THROW(evaluate_classified(out), CheckError);
  out.classified_soft = FaultMatrix(5, 4);
  EXPECT_THROW(evaluate_classified(out), CheckError);
  out.classified_soft = FaultMatrix(4, 5);
  out.truth_before = FaultMatrix();
  EXPECT_THROW(evaluate_classified(out), CheckError);
  out.truth_before = FaultMatrix(4, 5);
  out.truth_before.set(1, 2, FaultKind::kSoftStuck0);
  out.predicted.set(1, 2, FaultKind::kStuckAt0);
  out.classified_soft.set(1, 2, FaultKind::kSoftStuck0);
  const ClassifiedConfusion cc = evaluate_classified(out);
  EXPECT_EQ(cc.soft.tp, 1u);
  EXPECT_EQ(cc.hard.tn, 20u);
}

TEST(Detector, EvaluateClassifiedMatchesNaiveCount) {
  // Random maps over all five fault kinds (classified_soft not restricted
  // to the predicted set) against a plain per-cell count.
  Rng rng(41);
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{37, 53},
                                  {1, 1}, {128, 128}, {3, 200}}) {
    DetectionOutcome out;
    out.predicted = FaultMatrix(rows, cols);
    out.classified_soft = FaultMatrix(rows, cols);
    out.truth_before = FaultMatrix(rows, cols);
    const auto kind = [&] {
      return static_cast<FaultKind>(rng.uniform_index(5));
    };
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        out.predicted.set(r, c, kind());
        out.classified_soft.set(r, c, kind());
        out.truth_before.set(r, c, kind());
      }
    }
    ConfusionCounts hard, soft;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const FaultKind t = out.truth_before.at(r, c);
        const bool pred_soft = out.classified_soft.at(r, c) != FaultKind::kNone;
        const bool pred_hard =
            out.predicted.at(r, c) != FaultKind::kNone && !pred_soft;
        const bool t_hard =
            t == FaultKind::kStuckAt0 || t == FaultKind::kStuckAt1;
        const bool t_soft =
            t == FaultKind::kSoftStuck0 || t == FaultKind::kSoftStuck1;
        if (t_hard && pred_hard) ++hard.tp;
        if (!t_hard && pred_hard) ++hard.fp;
        if (t_hard && !pred_hard) ++hard.fn;
        if (!t_hard && !pred_hard) ++hard.tn;
        if (t_soft && pred_soft) ++soft.tp;
        if (!t_soft && pred_soft) ++soft.fp;
        if (t_soft && !pred_soft) ++soft.fn;
        if (!t_soft && !pred_soft) ++soft.tn;
      }
    }
    const ClassifiedConfusion cc = evaluate_classified(out);
    const auto same = [](const ConfusionCounts& a, const ConfusionCounts& b) {
      return a.tp == b.tp && a.fp == b.fp && a.fn == b.fn && a.tn == b.tn;
    };
    EXPECT_TRUE(same(cc.hard, hard)) << rows << "x" << cols;
    EXPECT_TRUE(same(cc.soft, soft)) << rows << "x" << cols;
  }
}

// ---- Pinned outcomes -------------------------------------------------------
//
// FNV-1a over everything detect() produces or touches: the verdicts, the
// counters and each cell's conductance bits and write count afterwards
// (the latter pin the pulse order and every write-noise RNG draw). The
// expected values were recorded from the original nested-vector pass;
// any rewrite of the pass must reproduce them bit for bit.

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  void faults(const FaultMatrix& m) {
    bytes(m.cells().data(), m.cells().size());
  }
  void outcome(const DetectionOutcome& out) {
    faults(out.predicted);
    faults(out.classified_soft);
    faults(out.truth_before);
    pod(static_cast<std::uint64_t>(out.cycles));
    pod(static_cast<std::uint64_t>(out.cells_tested));
    pod(out.device_writes);
    pod(out.adc_reads);
    pod(static_cast<std::uint64_t>(out.cells_retested));
  }
};

/// Hash one detect() on a freshly prepared rows×cols crossbar. With a
/// limited endurance model the pulses must wear some cells out, so the
/// wear-out Bernoulli draws inside Crossbar::write are pinned too.
std::uint64_t pinned_outcome_hash(
    const DetectorConfig& dcfg, double wire_ratio,
    EnduranceModel endurance = EnduranceModel::unlimited(),
    std::size_t rows = 48, std::size_t cols = 40, std::uint64_t seed = 101) {
  CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.02;
  cfg.wire_resistance_ratio = wire_ratio;
  Crossbar xb(cfg, endurance, Rng(seed));
  Rng rng(seed + 1);
  prepare(xb, 0.08, rng);
  inject_soft_faults(xb, 0.02, 5, 0.5, rng);
  const std::size_t worn_before = xb.wearout_fault_count();
  const DetectionOutcome out = QuiescentVoltageDetector(dcfg).detect(xb);
  if (endurance.limited()) {
    EXPECT_GT(xb.wearout_fault_count(), worn_before);
  }
  Fnv f;
  f.outcome(out);
  for (std::size_t r = 0; r < xb.rows(); ++r) {
    for (std::size_t c = 0; c < xb.cols(); ++c) {
      f.pod(xb.conductance(r, c));
      f.pod(xb.write_count(r, c));
    }
  }
  return f.h;
}

TEST(DetectorPinned, OutcomesMatchReferencePass) {
  struct Case {
    const char* name;
    DetectorConfig cfg;
    double wire_ratio;
    std::uint64_t expected;
    EnduranceModel endurance = EnduranceModel::unlimited();
  };
  const auto with = [](auto edit) {
    DetectorConfig cfg = small_config(8);
    edit(cfg);
    return cfg;
  };
  const Case cases[] = {
      {"selected", small_config(8), 0.0, 0x6f93ae971f6f2433ULL},
      {"all-cells",
       with([](DetectorConfig& c) { c.selected_cells_only = false; }), 0.0,
       0x4bef81e8fae7c5baULL},
      {"classify-soft", with([](DetectorConfig& c) { c.classify_soft = true; }),
       0.0, 0x8f434fb3ab2cd2abULL},
      {"wire-resistance", small_config(8), 0.004, 0xf7f58441acd999efULL},
      {"tr-ne-tc", with([](DetectorConfig& c) { c.test_cols_per_cycle = 5; }),
       0.0, 0x0e5dbf08b9b23722ULL},
      {"divisor-8", with([](DetectorConfig& c) {
         c.test_rows_per_cycle = 16;
         c.selected_cells_only = false;
         c.modulo_divisor = 8;
       }),
       0.0, 0x063b66581a6796daULL},
      {"no-propagation",
       with([](DetectorConfig& c) { c.use_constraint_propagation = false; }),
       0.0, 0x1beca0e724ef0517ULL},
      {"wear-out", with([](DetectorConfig& c) { c.classify_soft = true; }),
       0.0, 0xd7eb567ba70362c1ULL, EnduranceModel::gaussian(3.0, 1.0)},
  };
  for (const Case& k : cases) {
    const std::uint64_t got =
        pinned_outcome_hash(k.cfg, k.wire_ratio, k.endurance);
    EXPECT_EQ(got, k.expected) << k.name << ": 0x" << std::hex << got;
  }
}

TEST(DetectorPinned, BackToBackShapesOnOneThread) {
  // detect() keeps its scratch per thread; consecutive calls on one
  // thread with different shapes (growing and shrinking in each
  // dimension) must each give the outcome the call gives on its own.
  DetectorConfig all_cells = small_config(8);
  all_cells.selected_cells_only = false;
  DetectorConfig classify = small_config(5);
  classify.classify_soft = true;
  classify.test_cols_per_cycle = 7;
  struct Step {
    const char* name;
    DetectorConfig cfg;
    std::size_t rows, cols;
    std::uint64_t seed;
    std::uint64_t expected;
  };
  const Step steps[] = {
      {"48x40", small_config(8), 48, 40, 101, 0x6f93ae971f6f2433ULL},
      {"20x61", classify, 20, 61, 7, 0x9c6aa7bbc138fb02ULL},
      {"33x17", all_cells, 33, 17, 8, 0x320a0b95bac31993ULL},
      {"64x9", small_config(16), 64, 9, 9, 0xa791aed4d2c46c19ULL},
      {"48x40 again", small_config(8), 48, 40, 101, 0x6f93ae971f6f2433ULL},
  };
  for (const Step& s : steps) {
    const std::uint64_t got =
        pinned_outcome_hash(s.cfg, 0.0, EnduranceModel::unlimited(), s.rows,
                            s.cols, s.seed);
    EXPECT_EQ(got, s.expected) << s.name << ": 0x" << std::hex << got;
  }
}

TEST(DetectorPinned, StoreOutcomeMatchesReferenceMerge) {
  // detect_store's per-tile merge (leg precedence, truth snapshot, soft
  // classification) on a differential store with ragged edge tiles.
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.levels = 8;
  cfg.encoding = EncodingKind::kDifferentialPair;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.06;
  Rng wrng(31);
  CrossbarWeightStore store(cfg, Tensor::randn({40, 36}, wrng, 0.05f),
                            Rng(32));
  Rng soft_rng(33);
  for (std::size_t ti = 0; ti < store.tile_grid_rows(); ++ti) {
    for (std::size_t tj = 0; tj < store.tile_grid_cols(); ++tj) {
      inject_soft_faults(store.tile(ti, tj), 0.02, 5, 0.5, soft_rng);
      inject_soft_faults(store.tile_n(ti, tj), 0.02, 5, 0.5, soft_rng);
    }
  }
  store.invalidate();
  DetectorConfig dcfg = small_config(8);
  dcfg.classify_soft = true;
  const DetectionOutcome out =
      QuiescentVoltageDetector(dcfg).detect_store(store);
  Fnv f;
  f.outcome(out);
  EXPECT_GT(out.classified_soft.count_faulty(), 0u);
  EXPECT_EQ(f.h, 0x58eec8428ef1d18fULL) << "0x" << std::hex << f.h;
}

TEST(RandomizeContent, FractionsRespected) {
  Rng rng(17);
  Crossbar xb = make_xbar(64, 18);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  int low = 0, high = 0;
  for (std::size_t r = 0; r < 64; ++r)
    for (std::size_t c = 0; c < 64; ++c) {
      low += xb.read_level(r, c) == 0;
      high += xb.read_level(r, c) == 7;
    }
  EXPECT_NEAR(low / 4096.0, 0.3, 0.03);
  EXPECT_NEAR(high / 4096.0, 0.2, 0.03);
}

}  // namespace
}  // namespace refit
