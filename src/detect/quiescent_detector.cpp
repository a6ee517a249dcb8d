// On-line quiescent-voltage fault detector, paper §4 (see quiescent_detector.hpp).
#include "detect/quiescent_detector.hpp"

#include <algorithm>
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

/// Visit the lines whose CSR range [begin[i], begin[i+1]) is non-empty,
/// in ascending order, in groups of at most `per_cycle` — one group per
/// voltage-application cycle.
template <typename Cycle>
void for_each_group(const std::vector<std::uint32_t>& begin,
                    std::size_t per_cycle, std::vector<std::size_t>& group,
                    Cycle&& cycle) {
  group.clear();
  for (std::size_t i = 0; i + 1 < begin.size(); ++i) {
    if (begin[i + 1] == begin[i]) continue;
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
  // Per pass; run_pass rewrites each before reading it.
  std::vector<int> level;  ///< one row's read-out levels
  /// Reference contribution per cell: (read-out + pulse on candidates)
  /// × attenuation × level gap — what the controller expects it to add.
  std::vector<double> reference;
  std::vector<std::uint32_t> cand_col;   ///< candidate k's column
  std::vector<std::uint32_t> row_begin;  ///< row r's candidates: CSR offsets
  std::vector<std::uint32_t> col_begin;  ///< column c's slice of by_col
  std::vector<std::uint32_t> by_col;     ///< candidates by column, row-sorted
  std::vector<std::uint32_t> by_col_row; ///< by_col[j]'s row
  std::vector<std::uint32_t> cursor;     ///< per-line position while grouping
  std::vector<std::size_t> group;        ///< lines driven in the current cycle
  std::vector<double> expected;          ///< per output line: reference sum
  std::vector<double> measured;          ///< per output line: analog read-out
  DecodeInput din;                       ///< segments in candidate space
  SegmentDecoder decoder;
  // Per detect_into(); tile-shaped, row-major.
  std::vector<FaultKind> predicted;
  std::vector<FaultKind> soft;   ///< classify_soft only
  std::vector<FaultKind> truth;  ///< classify_soft only
};

QuiescentVoltageDetector::Workspace&
QuiescentVoltageDetector::lane_workspace() {
  // One per thread, like the GEMM panel buffers: detect_store's lanes each
  // reuse theirs across tiles and rounds, so a pass allocates nothing once
  // the buffers have grown to the tile size.
  thread_local Workspace ws;
  return ws;
}

void QuiescentVoltageDetector::run_pass(Crossbar& xbar, int stuck_level,
                                        int pulse, Workspace& ws,
                                        DetectionOutcome& out) const {
  const std::size_t rows = xbar.rows(), cols = xbar.cols();
  const int levels = static_cast<int>(xbar.config().levels);
  const double gap = xbar.config().level_gap();
  const auto lm1 = static_cast<double>(levels - 1);
  const double delta = pulse * gap;

  // Steps 1–2: read the crossbar into the off-chip reference and choose
  // the candidates in a branch-free sweep. A candidate's level lies in
  // [lo, hi]: the stuck level with §4.3's selected-cell testing; otherwise
  // any level the pulse can move — the controller knows the stored values,
  // so cells already saturated at the pulse's end of the range are
  // excluded (they cannot respond and would be guaranteed false
  // positives). Crossbar::kNoLevel lies below every range. A candidate's
  // reference already includes its pulse. Candidates are numbered k in
  // row-major order; row_begin indexes them by row.
  const int lo = cfg_.selected_cells_only ? stuck_level : (pulse > 0 ? 0 : 1);
  const int hi = cfg_.selected_cells_only
                     ? stuck_level
                     : (pulse > 0 ? levels - 2 : levels - 1);
  const auto width = static_cast<unsigned>(hi - lo);
  ws.level.resize(cols);
  ws.reference.resize(rows * cols);
  ws.cand_col.resize(rows * cols);
  ws.row_begin.resize(rows + 1);
  ws.col_begin.assign(cols + 1, 0);  // column counts first, offsets below
  std::uint32_t m = 0;
  std::uint32_t* cand_col = ws.cand_col.data();
  std::uint32_t* col_count = ws.col_begin.data() + 1;
  int* level = ws.level.data();
  for (std::size_t r = 0; r < rows; ++r) {
    ws.row_begin[r] = m;
    double* reference = ws.reference.data() + r * cols;
    xbar.read_levels(r, level);
    for (std::size_t c = 0; c < cols; ++c) {
      const bool cand = static_cast<unsigned>(level[c] - lo) <= width;
      const int probe = level[c] + pulse * static_cast<int>(cand);
      reference[c] = xbar.attenuation(r, c) * probe * gap;
      cand_col[m] = static_cast<std::uint32_t>(c);
      m += static_cast<std::uint32_t>(cand);
      col_count[c] += static_cast<std::uint32_t>(cand);
    }
  }
  ws.row_begin[rows] = m;
  if (m == 0) return;
  out.cells_tested += m;
  // Group the candidates by column as well (a counting sort keeps each
  // column's list in row order).
  for (std::size_t c = 0; c < cols; ++c) ws.col_begin[c + 1] += ws.col_begin[c];
  ws.cursor.assign(ws.col_begin.begin(), ws.col_begin.end() - 1);
  ws.by_col.resize(m);
  ws.by_col_row.resize(m);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::uint32_t k = ws.row_begin[r]; k < ws.row_begin[r + 1]; ++k) {
      const std::uint32_t j = ws.cursor[ws.cand_col[k]]++;
      ws.by_col[j] = k;
      ws.by_col_row[j] = static_cast<std::uint32_t>(r);
    }
  }

  // Step 3: write the ±δw pulse to every candidate, in row-major order
  // (each crossbar's RNG draws follow this order).
  const auto pulse_candidates = [&](double step) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::uint32_t k = ws.row_begin[r]; k < ws.row_begin[r + 1]; ++k) {
        const std::size_t c = ws.cand_col[k];
        xbar.write(r, c, xbar.conductance(r, c) + step);
      }
    }
    out.device_writes += m;
  };
  pulse_candidates(delta);

  // Step 4/5: measure both directions. The comparator works in analog
  // volts: the reference is computed from the stored levels (including
  // each cell's IR-drop attenuation, which the controller calibrates for),
  // digitized, and reduced modulo the divisor.
  const auto divisor = static_cast<long long>(cfg_.modulo_divisor);
  const auto residue_of = [&](double expected_analog,
                              double measured_analog) -> std::size_t {
    // SA0 pass (pulse +1): stuck cells create a deficit; SA1 pass: surplus.
    const double diff_levels =
        (pulse > 0 ? expected_analog - measured_analog
                   : measured_analog - expected_analog) *
        lm1;
    // A NaN cell makes its group's sums NaN. A difference that is not a
    // count at all reads as residue 0: no evidence of stuck cells.
    if (!(std::fabs(diff_levels) < 0x1p62)) return 0;
    long long diff =
        static_cast<long long>(round_half_away(diff_levels)) % divisor;
    if (diff < 0) diff += divisor;
    return static_cast<std::size_t>(diff);
  };
  // Each cycle reads every output line at once; the reference sums use
  // one accumulator per line too, adding the driven lines in order.
  const double* reference = ws.reference.data();
  ws.expected.resize(std::max(rows, cols));
  ws.measured.resize(std::max(rows, cols));
  double* expected = ws.expected.data();
  double* measured = ws.measured.data();

  // Row-direction: drive groups of rows, read all column outputs per cycle.
  // A column with no candidate in the group is not a segment (nothing
  // testable), so it is neither digitized nor decoded. Each column's
  // segment is the next run of its row-sorted candidate list.
  SegmentList& row_segs = ws.din.row_segments;
  row_segs.clear();
  ws.cursor.assign(ws.col_begin.begin(), ws.col_begin.end() - 1);
  for_each_group(ws.row_begin, cfg_.test_rows_per_cycle, ws.group,
                 [&](const std::vector<std::size_t>& group) {
    ++out.cycles;
    xbar.sum_conductance_rows(group, measured);
    std::fill_n(expected, cols, 0.0);
    for (std::size_t r : group) {
      for (std::size_t c = 0; c < cols; ++c) {
        expected[c] += reference[r * cols + c];
      }
    }
    const std::size_t last = group.back();
    for (std::size_t c = 0; c < cols; ++c) {
      const std::uint32_t j0 = ws.cursor[c], end = ws.col_begin[c + 1];
      std::uint32_t j = j0;
      while (j < end && ws.by_col_row[j] <= last) ++j;
      if (j == j0) continue;
      ws.cursor[c] = j;
      row_segs.cells.insert(row_segs.cells.end(), ws.by_col.begin() + j0,
                            ws.by_col.begin() + j);
      ++out.adc_reads;
      row_segs.close(residue_of(expected[c], measured[c]));
    }
  });

  // Column-direction (the crossbar works both ways, §4.1). A row's segment
  // is the next run of its candidates, which are column-sorted.
  SegmentList& col_segs = ws.din.col_segments;
  col_segs.clear();
  ws.cursor.assign(ws.row_begin.begin(), ws.row_begin.end() - 1);
  for_each_group(ws.col_begin, cfg_.tc(), ws.group,
                 [&](const std::vector<std::size_t>& group) {
    ++out.cycles;
    xbar.sum_conductance_cols(group, measured);
    for (std::size_t r = 0; r < rows; ++r) {
      double e = 0.0;
      for (std::size_t c : group) e += reference[r * cols + c];
      expected[r] = e;
    }
    const std::size_t last = group.back();
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint32_t k0 = ws.cursor[r], end = ws.row_begin[r + 1];
      std::uint32_t k = k0;
      while (k < end && ws.cand_col[k] <= last) ++k;
      if (k == k0) continue;
      ws.cursor[r] = k;
      for (std::uint32_t i = k0; i < k; ++i) col_segs.cells.push_back(i);
      ++out.adc_reads;
      col_segs.close(residue_of(expected[r], measured[r]));
    }
  });

  // Step 7: decode. The first pass to flag a cell names its kind.
  ws.din.cells = m;
  const std::vector<std::uint8_t>& flags = ws.decoder.decode(ws.din);
  const FaultKind kind =
      stuck_level == 0 ? FaultKind::kStuckAt0 : FaultKind::kStuckAt1;
  for (std::size_t r = 0; r < rows; ++r) {
    FaultKind* pred = ws.predicted.data() + r * cols;
    for (std::uint32_t k = ws.row_begin[r]; k < ws.row_begin[r + 1]; ++k) {
      FaultKind& p = pred[ws.cand_col[k]];
      p = flags[k] != 0 && p == FaultKind::kNone ? kind : p;
    }
  }

  // Step 6: restore the training weights with the opposite pulse.
  pulse_candidates(-delta);
}

void QuiescentVoltageDetector::detect_into(Crossbar& xbar, Workspace& ws,
                                           DetectionOutcome& counts) const {
  REFIT_CHECK(cfg_.test_rows_per_cycle > 0 && cfg_.modulo_divisor >= 2);
  const std::size_t rows = xbar.rows(), cols = xbar.cols();
  REFIT_CHECK_MSG(rows * cols < (std::size_t{1} << 32),
                  "detector numbers a crossbar's cells in 32 bits");
  DetectionOutcome out;
  ws.predicted.assign(rows * cols, FaultKind::kNone);

  if (cfg_.classify_soft) {
    // Snapshot truth before the first pulse: classification scrubs soft
    // faults, so this is the reference evaluate_classified scores against.
    ws.truth.resize(rows * cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        ws.truth[r * cols + c] = xbar.fault(r, c);
  }

  ws.din.divisor = cfg_.modulo_divisor;
  ws.din.use_constraint_propagation = cfg_.use_constraint_propagation;
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
    ws.soft.assign(rows * cols, FaultKind::kNone);
    std::size_t soft_found = 0;
    const double gap = xbar.config().level_gap();
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const FaultKind pk = ws.predicted[r * cols + c];
        if (pk == FaultKind::kNone) continue;
        ++out.cells_retested;
        ++out.cycles;
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
          ws.soft[r * cols + c] = pk == FaultKind::kStuckAt1
                                      ? FaultKind::kSoftStuck1
                                      : FaultKind::kSoftStuck0;
          ++soft_found;
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
    soft_metric.add(soft_found);
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
  add_counters(counts, out);
}

DetectionOutcome QuiescentVoltageDetector::detect(Crossbar& xbar) const {
  Workspace& ws = lane_workspace();
  DetectionOutcome out;
  detect_into(xbar, ws, out);
  const std::size_t rows = xbar.rows(), cols = xbar.cols();
  out.predicted = FaultMatrix(rows, cols, ws.predicted);
  if (cfg_.classify_soft) {
    out.classified_soft = FaultMatrix(rows, cols, ws.soft);
    out.truth_before = FaultMatrix(rows, cols, ws.truth);
  }
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
  // physical block, so one lane tests both serially: the G_p leg's
  // verdicts are copied into the block, then the G_n leg's merged in.
  const std::size_t legs = store.legs();
  const TileGrid& grid = store.grid();
  std::vector<DetectionOutcome> tile_counts(grid.tile_count());
  grid.for_each_tile(
      [&](const TileSpan& span) {
        Workspace& ws = lane_workspace();
        DetectionOutcome& counts = tile_counts[span.index];
        const std::size_t w = span.cols;
        const auto block = [&](FaultMatrix& m, std::size_t r) {
          return m.row(span.row0 + r) + span.col0;
        };
        detect_into(store.tile(span.ti, span.tj), ws, counts);
        for (std::size_t r = 0; r < span.rows; ++r) {
          std::copy_n(ws.predicted.data() + r * w, w, block(out.predicted, r));
          if (!classify) continue;
          std::copy_n(ws.truth.data() + r * w, w, block(out.truth_before, r));
          std::copy_n(ws.soft.data() + r * w, w, block(out.classified_soft, r));
        }
        if (legs == 1) return;
        detect_into(store.tile_n(span.ti, span.tj), ws, counts);
        for (std::size_t r = 0; r < span.rows; ++r) {
          FaultKind* pred = block(out.predicted, r);
          const FaultKind* pred_n = ws.predicted.data() + r * w;
          if (!classify) {
            for (std::size_t c = 0; c < w; ++c)
              pred[c] = pred[c] != FaultKind::kNone ? pred[c] : pred_n[c];
            continue;
          }
          FaultKind* truth = block(out.truth_before, r);
          FaultKind* soft = block(out.classified_soft, r);
          const FaultKind* truth_n = ws.truth.data() + r * w;
          const FaultKind* soft_n = ws.soft.data() + r * w;
          for (std::size_t c = 0; c < w; ++c) {
            // Truth merge mirrors CrossbarWeightStore::true_fault: hard >
            // soft > none, G_p leg breaks ties.
            const FaultKind truth_p = truth[c];
            truth[c] = fault_is_hard(truth_p)      ? truth_p
                       : fault_is_hard(truth_n[c]) ? truth_n[c]
                       : truth_p != FaultKind::kNone ? truth_p
                                                     : truth_n[c];
            // The weight is only transiently impaired if every leg that
            // tripped the detector was classified soft — one hard leg pins
            // it for good. A leg's soft verdicts are a subset of its
            // predictions.
            const bool p_pred = pred[c] != FaultKind::kNone;
            const bool n_pred = pred_n[c] != FaultKind::kNone;
            const bool p_soft = soft[c] != FaultKind::kNone;
            const bool n_soft = soft_n[c] != FaultKind::kNone;
            const bool all_soft = (p_pred || n_pred) && p_soft == p_pred &&
                                  n_soft == n_pred;
            soft[c] = !all_soft ? FaultKind::kNone
                      : p_pred  ? soft[c]
                                : soft_n[c];
            pred[c] = p_pred ? pred[c] : pred_n[c];
          }
        }
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
  // Branch-free totals per class — actual, predicted, both — from which
  // ConfusionCounts derives the four counts.
  std::uint64_t hard_actual = 0, hard_pred = 0, hard_both = 0;
  std::uint64_t soft_actual = 0, soft_pred = 0, soft_both = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const bool pred_soft = soft[i] != FaultKind::kNone;
    const bool pred_hard = pred[i] != FaultKind::kNone && !pred_soft;
    const bool is_hard = fault_is_hard(truth[i]);
    const bool is_soft = fault_is_soft(truth[i]);
    hard_actual += is_hard;
    hard_pred += pred_hard;
    hard_both += is_hard && pred_hard;
    soft_actual += is_soft;
    soft_pred += pred_soft;
    soft_both += is_soft && pred_soft;
  }
  ClassifiedConfusion cc;
  cc.hard = ConfusionCounts::from_totals(pred.size(), hard_actual, hard_pred,
                                         hard_both);
  cc.soft = ConfusionCounts::from_totals(pred.size(), soft_actual, soft_pred,
                                         soft_both);
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
