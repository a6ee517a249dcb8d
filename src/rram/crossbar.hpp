// RRAM crossbar array model (S4 in DESIGN.md).
//
// Each cell holds a normalized conductance g ∈ [0, 1] (0 = g_off / high
// resistance, 1 = g_on / low resistance). Writes snap the target to one of
// `levels` discrete resistance levels (multi-level cell per [17] of the
// paper, 8 by default) and then add a small Gaussian perturbation — the
// "write variance" soft-fault source.
//
// Hard faults: a cell may be stuck-at-0 (conductance pinned to 0) or
// stuck-at-1 (pinned to 1), either injected at fabrication
// (faults.hpp) or caused by endurance wear-out: each cell draws a write
// budget from a Gaussian endurance model [3]; a write beyond the budget
// leaves the cell permanently stuck.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace refit {

/// std::round, inline and bit-exact: halves round away from zero, and
/// −0.0, ±inf and NaN come back unchanged (so does any |x| ≥ 2⁵², which is
/// already integral). libm's round is an out-of-line call; this one
/// truncates |x| (only ever below 2⁵², so the conversion never overflows
/// and the fraction is exact) and adds the round-up bit as an integer, so
/// the data-dependent half test compiles to a flag, not a branch.
[[nodiscard]] inline double round_half_away(double x) {
  const double a = std::fabs(x);
  const bool small = a < 0x1p52;  // false for NaN and ±inf
  const double s = small ? a : 0.0;
  auto t = static_cast<std::int64_t>(s);
  t += static_cast<std::int64_t>(s - static_cast<double>(t) >= 0.5);
  return small ? std::copysign(static_cast<double>(t), x) : x;
}

/// Fault state of a cell. kStuckAt* are permanent (fabrication defects or
/// endurance wear-out); kSoftStuck* are transient pins with a TTL — the
/// cell reads stuck for a few device-time ticks and then recovers its
/// pre-fault conductance (see device/noise_model.hpp).
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kStuckAt0 = 1,
  kStuckAt1 = 2,
  kSoftStuck0 = 3,
  kSoftStuck1 = 4,
};

[[nodiscard]] constexpr bool fault_is_hard(FaultKind k) {
  return k == FaultKind::kStuckAt0 || k == FaultKind::kStuckAt1;
}
[[nodiscard]] constexpr bool fault_is_soft(FaultKind k) {
  return k == FaultKind::kSoftStuck0 || k == FaultKind::kSoftStuck1;
}

/// Geometry and write-physics knobs of a crossbar.
struct CrossbarConfig {
  std::size_t rows = 128;
  std::size_t cols = 128;
  /// Discrete resistance levels a write can target (≥ 2).
  std::size_t levels = 8;
  /// Stddev of the analog perturbation after a write (fraction of range).
  double write_noise_sigma = 0.02;
  /// Interconnect (IR-drop) loss per wire segment, as a fraction of the
  /// signal: a cell at row r / column c sees its contribution attenuated
  /// by 1 / (1 + ratio·(r + c + 2)). 0 disables the model. Larger arrays
  /// suffer more — the classic argument bounding practical crossbar sizes.
  double wire_resistance_ratio = 0.0;

  [[nodiscard]] double level_gap() const {
    return 1.0 / static_cast<double>(levels - 1);
  }
};

/// Per-cell write-endurance distribution (Gaussian, per the paper's §6.2.1).
/// mean == 0 disables wear-out.
struct EnduranceModel {
  double mean = 0.0;
  double stddev = 0.0;
  /// Probability an endurance failure leaves the cell SA0. Cycling failure
  /// in filamentary RRAM is dominated by permanent filament rupture (stuck
  /// high-resistance = SA0); stuck shorts are rare, so this defaults high.
  double sa0_probability = 0.9;

  static EnduranceModel unlimited() { return {}; }
  static EnduranceModel gaussian(double mean, double stddev) {
    return {mean, stddev, 0.9};
  }
  [[nodiscard]] bool limited() const { return mean > 0.0; }
};

/// A single RRAM crossbar tile.
class Crossbar {
 public:
  Crossbar(CrossbarConfig cfg, EnduranceModel endurance, Rng rng);

  [[nodiscard]] const CrossbarConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t rows() const { return cfg_.rows; }
  [[nodiscard]] std::size_t cols() const { return cfg_.cols; }

  /// Program a cell towards target conductance (clamped to [0,1], snapped
  /// to the nearest level). A write to a stuck cell is a no-op; a write to
  /// a healthy cell consumes endurance and may wear the cell out.
  void write(std::size_t r, std::size_t c, double target_g);

  // The per-cell accessors below are defined inline: the detector and the
  // fused-forward pack call them once per cell per pass.

  /// Actual analog conductance (stuck cells report their pinned value).
  [[nodiscard]] double conductance(std::size_t r, std::size_t c) const {
    return g_[idx(r, c)];
  }

  /// IR-drop attenuation factor of the cell's contribution to an analog
  /// read-out (1.0 when wire resistance modelling is disabled).
  [[nodiscard]] double attenuation(std::size_t r, std::size_t c) const {
    if (cfg_.wire_resistance_ratio <= 0.0) return 1.0;
    return 1.0 / (1.0 + cfg_.wire_resistance_ratio *
                            static_cast<double>(r + c + 2));
  }

  /// Conductance as seen by the analog compute/read-out path:
  /// conductance × attenuation.
  [[nodiscard]] double effective_conductance(std::size_t r,
                                             std::size_t c) const {
    return g_[idx(r, c)] * attenuation(r, c);
  }

  /// read_level() of a conductance outside [0, 1].
  static constexpr int kNoLevel = -1;

  /// ADC-quantized read: the nearest level index in [0, levels), rounding
  /// halves up (round_half_away). Every write clamps to [0, 1], so the only
  /// conductance outside that range is a NaN — programmed from a NaN target
  /// (or loaded from a corrupt checkpoint). It reads as kNoLevel: no level,
  /// so the detector never picks it as a candidate.
  [[nodiscard]] int read_level(std::size_t r, std::size_t c) const {
    return level_of(g_[idx(r, c)], static_cast<double>(cfg_.levels - 1));
  }
  /// read_level() of every cell of row r, into out[0, cols).
  void read_levels(std::size_t r, int* out) const {
    REFIT_DCHECK(r < cfg_.rows);
    const double levels_minus_1 = static_cast<double>(cfg_.levels - 1);
    const double* g = g_.data() + r * cfg_.cols;
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      out[c] = level_of(g[c], levels_minus_1);
    }
  }

  [[nodiscard]] FaultKind fault(std::size_t r, std::size_t c) const {
    return faults_[idx(r, c)];
  }
  [[nodiscard]] bool is_stuck(std::size_t r, std::size_t c) const {
    return fault(r, c) != FaultKind::kNone;
  }

  /// Pin a cell to a hard fault (used by fabrication-fault injection).
  /// Soft kinds are rejected — transient pins go through force_soft_fault
  /// so the recovery state is tracked.
  void force_fault(std::size_t r, std::size_t c, FaultKind kind);

  /// Pin a cell to a transient fault for `ttl` decay ticks (≥ 1). The
  /// pre-fault conductance is remembered and restored on recovery. A cell
  /// that is already faulty (hard or soft) keeps its existing fault.
  void force_soft_fault(std::size_t r, std::size_t c, FaultKind kind,
                        std::uint32_t ttl);

  /// One device-time tick of soft-fault decay: every transient fault's TTL
  /// drops by one; expired cells recover their pre-fault conductance.
  void decay_soft_faults();

  /// Conductance relaxation: every healthy cell moves toward `target` by
  /// `rate` of the remaining gap (g += rate·(target − g)). Analog — no
  /// level snap, no write cost, no RNG.
  void drift_toward(double target, double rate);

  /// A programming pulse strong enough to re-form a transiently pinned
  /// cell: clears any soft fault, then behaves exactly like write().
  /// Hard-stuck cells still suppress it. This is the detector's scrub
  /// primitive for cells its re-test pass classifies as soft.
  void strong_write(std::size_t r, std::size_t c, double target_g);

  /// Analog read-out of one row-direction test cycle (the quiescent-voltage
  /// test observable): the rows in `row_set` are driven together and every
  /// column output is read at once. col_sums[c], for each of the cols()
  /// columns, becomes the sum of the cells' effective conductances over
  /// row_set, added in row_set order.
  void sum_conductance_rows(const std::vector<std::size_t>& row_set,
                            double* col_sums) const;
  /// Transpose direction: row_sums[r], for each of the rows() rows, sums
  /// row r's effective conductances over col_set, in col_set order.
  void sum_conductance_cols(const std::vector<std::size_t>& col_set,
                            double* row_sums) const;

  [[nodiscard]] std::uint64_t write_count(std::size_t r, std::size_t c) const;
  [[nodiscard]] std::uint64_t total_writes() const { return total_writes_; }
  /// Writes that were suppressed because the cell is stuck.
  [[nodiscard]] std::uint64_t suppressed_writes() const {
    return suppressed_writes_;
  }

  [[nodiscard]] std::size_t fault_count() const { return fault_count_; }
  [[nodiscard]] double fault_fraction() const;
  /// Faults caused by endurance wear-out (subset of fault_count()).
  [[nodiscard]] std::size_t wearout_fault_count() const {
    return wearout_faults_;
  }
  /// Currently active transient faults (subset of fault_count()).
  [[nodiscard]] std::size_t soft_fault_count() const { return soft_faults_; }

  /// Checkpointing: serialize the full device state (conductances, faults,
  /// per-cell wear, RNG) so a simulation can resume bit-exactly.
  void save(std::ostream& os) const;
  static Crossbar load(std::istream& is);

 private:
  [[nodiscard]] std::size_t idx(std::size_t r, std::size_t c) const {
    REFIT_DCHECK(r < cfg_.rows && c < cfg_.cols);
    return r * cfg_.cols + c;
  }
  /// The read_level() rule for one conductance.
  [[nodiscard]] static int level_of(double g, double levels_minus_1) {
    const double level = round_half_away(g * levels_minus_1);  // NaN stays
    return g >= 0.0 && g <= 1.0 ? static_cast<int>(level) : kNoLevel;
  }
  /// Snap to the nearest discrete level (NaN stays NaN, −0.0 stays −0.0:
  /// std::clamp passes both through).
  [[nodiscard]] double snap(double g) const {
    const double levels_minus_1 = static_cast<double>(cfg_.levels - 1);
    return round_half_away(std::clamp(g, 0.0, 1.0) * levels_minus_1) /
           levels_minus_1;
  }

  CrossbarConfig cfg_;
  EnduranceModel endurance_;
  Rng rng_;
  std::vector<double> g_;                    ///< actual conductances
  std::vector<FaultKind> faults_;
  std::vector<std::uint32_t> writes_;        ///< per-cell write counters
  std::vector<std::uint32_t> endurance_limit_;
  std::uint64_t total_writes_ = 0;
  std::uint64_t suppressed_writes_ = 0;
  std::size_t fault_count_ = 0;
  std::size_t wearout_faults_ = 0;
  /// Transient-fault state: remaining decay ticks and the conductance to
  /// restore on recovery (valid only while the cell is soft-stuck).
  std::vector<std::uint32_t> soft_ttl_;
  std::vector<double> soft_restore_;
  std::size_t soft_faults_ = 0;
};

}  // namespace refit
