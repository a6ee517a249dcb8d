// On-line quiescent-voltage fault detector, paper §4 (see quiescent_detector.hpp).
#include "detect/quiescent_detector.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "detect/decoder.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace refit {

namespace {

/// Per-cell cost of detect() relative to the one-op-per-cell visitors
/// (panel pack, programming) that TileGrid's default grain assumes: two passes of
/// RNG-driven pulse writes, per-segment analog sums and decoding. Sized so
/// a store of a few full tiles fans out across the pool.
constexpr std::size_t kDetectWorkPerCell = 64;

/// Visit the lines whose `any` flag is set, in ascending order, in groups
/// of at most `per_cycle` — one group per voltage-application cycle.
template <typename Cycle>
void for_each_group(const std::vector<std::uint8_t>& any,
                    std::size_t per_cycle, std::vector<std::size_t>& group,
                    Cycle&& cycle) {
  group.clear();
  for (std::size_t i = 0; i < any.size(); ++i) {
    if (any[i] == 0) continue;
    group.push_back(i);
    if (group.size() == per_cycle) {
      cycle(group);
      group.clear();
    }
  }
  if (!group.empty()) cycle(group);
}

/// a += b's counters.
void add_counters(DetectionOutcome& a, const DetectionOutcome& b) {
  a.cycles += b.cycles;
  a.cells_tested += b.cells_tested;
  a.device_writes += b.device_writes;
  a.adc_reads += b.adc_reads;
  a.cells_retested += b.cells_retested;
}

}  // namespace

struct QuiescentVoltageDetector::Workspace {
  std::vector<int> stored;  ///< read-out level per cell (the reference)
  std::vector<std::uint8_t> row_any;  ///< row holds a candidate
  std::vector<std::uint8_t> col_any;  ///< column holds a candidate
  std::vector<std::size_t> group;     ///< lines driven in the current cycle
  DecodeInput din;                    ///< candidate mask + CSR segments
};

void QuiescentVoltageDetector::run_pass(Crossbar& xbar, int stuck_level,
                                        int pulse, Workspace& ws,
                                        DetectionOutcome& out) const {
  const std::size_t rows = xbar.rows(), cols = xbar.cols();
  const std::size_t levels = xbar.config().levels;
  const double gap = xbar.config().level_gap();
  const auto lm1 = static_cast<double>(levels - 1);
  std::vector<int>& stored = ws.stored;
  std::vector<std::uint8_t>& candidate = ws.din.candidate;

  // Steps 1–2: read the crossbar into the off-chip reference and choose
  // the candidates in one sweep. Even without §4.3's selected-cell mode
  // the controller knows the stored values, so cells already saturated at
  // the pulse's end of the range are excluded — they cannot respond to the
  // write and would otherwise be guaranteed false positives.
  ws.row_any.assign(rows, 0);
  ws.col_any.assign(cols, 0);
  std::size_t candidate_count = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      const int level = xbar.read_level(r, c);
      stored[i] = level;
      const bool can_respond = pulse > 0
                                   ? level < static_cast<int>(levels) - 1
                                   : level > 0;
      const bool is_candidate =
          cfg_.selected_cells_only ? level == stuck_level : can_respond;
      candidate[i] = is_candidate ? 1 : 0;
      ws.row_any[r] |= candidate[i];
      ws.col_any[c] |= candidate[i];
      candidate_count += candidate[i];
    }
  }
  if (candidate_count == 0) return;
  out.cells_tested += candidate_count;

  // Step 3: write the ±δw pulse to every candidate.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (candidate[r * cols + c] == 0) continue;
      xbar.write(r, c, xbar.conductance(r, c) + pulse * gap);
      ++out.device_writes;
    }
  }

  // Step 4/5: measure both directions. The comparator works in analog
  // volts: the reference is computed from the stored levels (including
  // each cell's IR-drop attenuation, which the controller calibrates for),
  // digitized, and reduced modulo the divisor.
  const std::size_t divisor = cfg_.modulo_divisor;
  auto residue_of = [&](double expected_analog, double measured_analog) {
    // SA0 pass (pulse +1): stuck cells create a deficit; SA1 pass: surplus.
    const double diff_levels =
        (pulse > 0 ? expected_analog - measured_analog
                   : measured_analog - expected_analog) *
        lm1;
    long long diff = std::llround(diff_levels);
    const auto d = static_cast<long long>(divisor);
    diff %= d;
    if (diff < 0) diff += d;
    return static_cast<std::size_t>(diff);
  };

  // Row-direction: drive groups of rows, read all column outputs per cycle.
  // A column with no candidate in the group is not a segment (nothing
  // testable), so it is neither digitized nor decoded.
  SegmentList& row_segs = ws.din.row_segments;
  row_segs.clear();
  for_each_group(ws.row_any, cfg_.test_rows_per_cycle, ws.group,
                 [&](const std::vector<std::size_t>& group) {
    ++out.cycles;
    for (std::size_t c = 0; c < cols; ++c) {
      double expected = 0.0;
      for (std::size_t r : group) {
        const std::size_t i = r * cols + c;
        double level = stored[i];
        if (candidate[i] != 0) {
          level += pulse;
          row_segs.cells.push_back(i);
        }
        expected += xbar.attenuation(r, c) * level * gap;
      }
      if (row_segs.open_empty()) continue;
      const double measured = xbar.sum_conductance_rows(group, c);
      ++out.adc_reads;
      row_segs.close(residue_of(expected, measured));
    }
  });

  // Column-direction (the crossbar works both ways, §4.1).
  SegmentList& col_segs = ws.din.col_segments;
  col_segs.clear();
  for_each_group(ws.col_any, cfg_.tc(), ws.group,
                 [&](const std::vector<std::size_t>& group) {
    ++out.cycles;
    for (std::size_t r = 0; r < rows; ++r) {
      double expected = 0.0;
      for (std::size_t c : group) {
        const std::size_t i = r * cols + c;
        double level = stored[i];
        if (candidate[i] != 0) {
          level += pulse;
          col_segs.cells.push_back(i);
        }
        expected += xbar.attenuation(r, c) * level * gap;
      }
      if (col_segs.open_empty()) continue;
      const double measured = xbar.sum_conductance_cols(group, r);
      ++out.adc_reads;
      col_segs.close(residue_of(expected, measured));
    }
  });

  // Step 7: decode.
  const std::vector<std::uint8_t> flags = decode_segments(ws.din);
  const FaultKind kind =
      stuck_level == 0 ? FaultKind::kStuckAt0 : FaultKind::kStuckAt1;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (flags[r * cols + c] != 0 && !out.predicted.faulty(r, c)) {
        out.predicted.set(r, c, kind);
      }
    }
  }

  // Step 6: restore the training weights with the opposite pulse.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (candidate[r * cols + c] == 0) continue;
      xbar.write(r, c, xbar.conductance(r, c) - pulse * gap);
      ++out.device_writes;
    }
  }
}

DetectionOutcome QuiescentVoltageDetector::detect(Crossbar& xbar) const {
  REFIT_CHECK(cfg_.test_rows_per_cycle > 0 && cfg_.modulo_divisor >= 2);
  const std::size_t rows = xbar.rows(), cols = xbar.cols();
  DetectionOutcome out;
  out.predicted = FaultMatrix(rows, cols);

  if (cfg_.classify_soft) {
    // Snapshot truth before the first pulse: classification scrubs soft
    // faults, so this is the reference evaluate_classified scores against.
    out.truth_before = FaultMatrix(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        out.truth_before.set(r, c, xbar.fault(r, c));
  }

  Workspace ws;
  ws.stored.resize(rows * cols);
  ws.din.rows = rows;
  ws.din.cols = cols;
  ws.din.divisor = cfg_.modulo_divisor;
  ws.din.use_constraint_propagation = cfg_.use_constraint_propagation;
  ws.din.candidate.resize(rows * cols);
  // SA0 pass: stuck at the lowest level, tested with a +δw increment.
  run_pass(xbar, /*stuck_level=*/0, /*pulse=*/+1, ws, out);
  // SA1 pass: stuck at the highest level, tested with a −δw decrement.
  run_pass(xbar, static_cast<int>(xbar.config().levels) - 1, /*pulse=*/-1, ws,
           out);

  if (cfg_.classify_soft) {
    // Confirmation pass: give every predicted cell one strong pulse one
    // level away from its pinned value. A hard-stuck cell suppresses the
    // write and reads back unchanged; a transiently pinned cell re-forms,
    // moves, and is scrubbed back to its read-out value. Each re-test is
    // one write plus one ADC read in its own cycle.
    out.classified_soft = FaultMatrix(rows, cols);
    const double gap = xbar.config().level_gap();
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (!out.predicted.faulty(r, c)) continue;
        ++out.cells_retested;
        ++out.cycles;
        const FaultKind pk = out.predicted.at(r, c);
        const int dir = pk == FaultKind::kStuckAt1 ? -1 : +1;
        const int l0 = xbar.read_level(r, c);
        const double g0 = static_cast<double>(l0) * gap;
        // The scrub pulse is the detector's own confirmation primitive
        // (crossbar.hpp strong_write contract).
        // refit-lint: allow(device-encoding)
        xbar.strong_write(r, c, g0 + dir * gap);
        ++out.device_writes;
        const int l1 = xbar.read_level(r, c);
        ++out.adc_reads;
        if (l1 != l0) {
          out.classified_soft.set(r, c,
                                  pk == FaultKind::kStuckAt1
                                      ? FaultKind::kSoftStuck1
                                      : FaultKind::kSoftStuck0);
          // Undo the probe: the cell is healthy again, put the pinned-era
          // read-out back so training resumes from what the weight decoded
          // to (the next logical write reprograms it from target anyway).
          xbar.write(r, c, g0);
          ++out.device_writes;
        }
      }
    }
    static obs::Counter retests_metric = obs::MetricsRegistry::instance()
        .counter("detector.cells_retested", "cells");
    static obs::Counter soft_metric = obs::MetricsRegistry::instance().counter(
        "detector.soft_classified", "cells");
    retests_metric.add(out.cells_retested);
    soft_metric.add(out.classified_soft.count_faulty());
  }
  // Telemetry (docs/observability.md). detect() runs on pool lanes when
  // fanned out by detect_store; the handles are relaxed atomics, so the
  // totals are exact (and deterministic) at any thread count.
  static obs::Counter cycles_metric =
      obs::MetricsRegistry::instance().counter("detector.cycles", "cycles");
  static obs::Counter cells_metric = obs::MetricsRegistry::instance().counter(
      "detector.cells_tested", "cells");
  static obs::Counter pulses_metric =
      obs::MetricsRegistry::instance().counter("detector.pulses", "writes");
  static obs::Counter adc_metric =
      obs::MetricsRegistry::instance().counter("detector.adc_reads", "reads");
  cycles_metric.add(out.cycles);
  cells_metric.add(out.cells_tested);
  pulses_metric.add(out.device_writes);
  adc_metric.add(out.adc_reads);
  return out;
}

DetectionOutcome QuiescentVoltageDetector::detect_store(
    CrossbarWeightStore& store) const {
  DetectionOutcome out;
  out.predicted = FaultMatrix(store.rows(), store.cols());
  const bool classify = cfg_.classify_soft;
  if (classify) {
    out.classified_soft = FaultMatrix(store.rows(), store.cols());
    out.truth_before = FaultMatrix(store.rows(), store.cols());
  }
  // Tiles are embarrassingly parallel: each owns its RNG, its pulses stay
  // inside the tile, and its predictions land in a disjoint physical block
  // of the store-level maps — so each lane detects its tiles and merges
  // their verdicts into those blocks itself. Only the counters are summed
  // on the caller, in tile order, so totals are deterministic at any
  // thread count. A differential store's two leg planes cover the same
  // physical block, so one lane tests both serially.
  const std::size_t legs = store.legs();
  const TileGrid& grid = store.grid();
  std::vector<DetectionOutcome> tile_counts(grid.tile_count());
  grid.for_each_tile(
      [&](const TileSpan& span) {
        const DetectionOutcome tp = detect(store.tile(span.ti, span.tj));
        const DetectionOutcome tn = legs == 2
                                        ? detect(store.tile_n(span.ti, span.tj))
                                        : DetectionOutcome{};
        for (std::size_t r = 0; r < span.rows; ++r) {
          for (std::size_t c = 0; c < span.cols; ++c) {
            const std::size_t pr = span.row0 + r;
            const std::size_t pc = span.col0 + c;
            const FaultKind pp = tp.predicted.at(r, c);
            const FaultKind pn =
                legs == 2 ? tn.predicted.at(r, c) : FaultKind::kNone;
            out.predicted.set(pr, pc, pp != FaultKind::kNone ? pp : pn);
            if (!classify) continue;
            // Truth merge mirrors CrossbarWeightStore::true_fault: hard >
            // soft > none, G_p leg breaks ties.
            const FaultKind ttp = tp.truth_before.at(r, c);
            const FaultKind ttn =
                legs == 2 ? tn.truth_before.at(r, c) : FaultKind::kNone;
            out.truth_before.set(
                pr, pc,
                fault_is_hard(ttp) ? ttp
                : fault_is_hard(ttn) ? ttn
                : (ttp != FaultKind::kNone ? ttp : ttn));
            // The weight is only transiently impaired if every leg that
            // tripped the detector was classified soft — one hard leg pins
            // it for good.
            const bool p_pred = pp != FaultKind::kNone;
            const bool n_pred = pn != FaultKind::kNone;
            const bool p_soft = p_pred && tp.classified_soft.faulty(r, c);
            const bool n_soft = n_pred && tn.classified_soft.faulty(r, c);
            if ((p_pred || n_pred) && (!p_pred || p_soft) &&
                (!n_pred || n_soft)) {
              out.classified_soft.set(pr, pc,
                                      p_pred ? tp.classified_soft.at(r, c)
                                             : tn.classified_soft.at(r, c));
            }
          }
        }
        add_counters(tile_counts[span.index], tp);
        add_counters(tile_counts[span.index], tn);
      },
      kDetectWorkPerCell);
  for (const DetectionOutcome& t : tile_counts) add_counters(out, t);
  static obs::Counter rounds_metric =
      obs::MetricsRegistry::instance().counter("detector.rounds", "rounds");
  rounds_metric.add();
  // Per-store detection event (the engine emits the per-round aggregate).
  // Serial — the tile fan-out has already joined — so event order is
  // deterministic at any thread count.
  const std::size_t predicted_faults = out.predicted.count_faulty();
  obs::EventLog::global().emit(
      obs::EventKind::kFaultDetected, obs::EventSeverity::kInfo, "store",
      {{"cells_tested", static_cast<double>(out.cells_tested)},
       {"predicted_faults", static_cast<double>(predicted_faults)},
       {"cycles", static_cast<double>(out.cycles)},
       {"device_writes", static_cast<double>(out.device_writes)}});
  store.invalidate();
  return out;
}

ClassifiedConfusion evaluate_classified(const DetectionOutcome& out) {
  const auto same_shape = [&](const FaultMatrix& m) {
    return m.rows() == out.predicted.rows() && m.cols() == out.predicted.cols();
  };
  REFIT_CHECK_MSG(
      same_shape(out.truth_before) && same_shape(out.classified_soft),
      "evaluate_classified needs a classify_soft outcome");
  const std::vector<FaultKind>& pred = out.predicted.cells();
  const std::vector<FaultKind>& soft = out.classified_soft.cells();
  const std::vector<FaultKind>& truth = out.truth_before.cells();
  ClassifiedConfusion cc;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const bool pred_soft = soft[i] != FaultKind::kNone;
    const bool pred_hard = pred[i] != FaultKind::kNone && !pred_soft;
    cc.hard.add(fault_is_hard(truth[i]), pred_hard);
    cc.soft.add(fault_is_soft(truth[i]), pred_soft);
  }
  return cc;
}

ConfusionCounts evaluate_detection(const Crossbar& xbar,
                                   const FaultMatrix& predicted) {
  REFIT_CHECK(predicted.rows() == xbar.rows() &&
              predicted.cols() == xbar.cols());
  ConfusionCounts cc;
  for (std::size_t r = 0; r < xbar.rows(); ++r)
    for (std::size_t c = 0; c < xbar.cols(); ++c)
      cc.add(xbar.is_stuck(r, c), predicted.faulty(r, c));
  return cc;
}

ConfusionCounts evaluate_detection(const CrossbarWeightStore& store,
                                   const FaultMatrix& predicted) {
  REFIT_CHECK(predicted.rows() == store.rows() &&
              predicted.cols() == store.cols());
  ConfusionCounts cc;
  for (std::size_t r = 0; r < store.rows(); ++r)
    for (std::size_t c = 0; c < store.cols(); ++c)
      cc.add(store.true_fault(r, c) != FaultKind::kNone,
             predicted.faulty(r, c));
  return cc;
}

void randomize_crossbar_content(Crossbar& xbar, double p_low, double p_high,
                                Rng& rng) {
  REFIT_CHECK(p_low >= 0.0 && p_high >= 0.0 && p_low + p_high <= 1.0);
  const std::size_t levels = xbar.config().levels;
  const double gap = xbar.config().level_gap();
  for (std::size_t r = 0; r < xbar.rows(); ++r) {
    for (std::size_t c = 0; c < xbar.cols(); ++c) {
      const double u = rng.uniform();
      std::size_t level = 0;
      if (u < p_low) {
        level = 0;
      } else if (u < p_low + p_high) {
        level = levels - 1;
      } else if (levels > 2) {
        level = 1 + rng.uniform_index(levels - 2);
      }
      xbar.write(r, c, static_cast<double>(level) * gap);
    }
  }
}

}  // namespace refit
