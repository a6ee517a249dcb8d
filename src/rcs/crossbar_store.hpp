// CrossbarWeightStore — a WeightStore backed by RRAM crossbar tiles (S5).
//
// Mapping model (DESIGN.md §5): a logical weight matrix W [fan_in, fan_out]
// is partitioned onto a grid of crossbar tiles (default 128×128). How a
// weight becomes conductance(s) is the CellEncoding seam
// (device/cell_encoding.hpp):
//   - kSingleCell (the paper's model, default): the magnitude as one
//     conductance scaled by the layer's weight_max; the sign lives in a
//     peripheral register (CMOS, never faulty). SA0 pins the effective
//     weight to 0 — which is why pruned (zero) weights can be re-mapped
//     onto SA0 cells for free; SA1 pins it to ±weight_max (sign
//     preserved). Bit-identical to the pre-seam store.
//   - kDifferentialPair: two tile planes (G_p and G_n legs, identical
//     geometry); w = (g_p − g_n)·weight_max, no sign register, a stuck-at
//     fault pins one leg.
// Time-dependent effects (drift, transient soft faults) come from the
// DeviceNoiseModel (device/noise_model.hpp) through tick_noise().
//
// The tile geometry lives in a TileGrid (rcs/tile_grid.hpp) and the
// logical↔physical permutations in a LogicalMapping
// (rcs/logical_mapping.hpp); the store owns the device state (tiles) and
// the off-chip copies, and composes the two. The re-mapping engine only
// installs permutations that correspond to neuron re-orderings (paper
// §5.2), so no extra routing is implied; changing the permutation
// rewrites the cells whose logical owner moved (a real write cost,
// counted against endurance).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "device/cell_encoding.hpp"
#include "device/noise_model.hpp"
#include "nn/weight_store.hpp"
#include "rcs/logical_mapping.hpp"
#include "rcs/tile_grid.hpp"
#include "rram/crossbar.hpp"
#include "rram/fault_map.hpp"
#include "rram/faults.hpp"

namespace refit {

/// Configuration for crossbar-backed weight storage.
struct RcsConfig {
  /// Tile geometry (edge tiles shrink to fit the matrix).
  std::size_t tile_rows = 128;
  std::size_t tile_cols = 128;
  /// Cell resistance levels (paper uses 8-level MLC, ref. [17]).
  std::size_t levels = 8;
  /// Analog write perturbation (fraction of the conductance range).
  double write_noise_sigma = 0.02;
  /// IR-drop wire-resistance ratio forwarded to every tile (see
  /// CrossbarConfig::wire_resistance_ratio); 0 disables the model.
  double wire_resistance_ratio = 0.0;
  /// Write-endurance distribution; unlimited() disables wear-out.
  EnduranceModel endurance = EnduranceModel::unlimited();
  /// Fabrication defects injected at construction when true.
  bool inject_fabrication = true;
  FaultInjectionConfig fabrication{};
  /// weight_max = multiplier × RMS(initial weights); weights clip there.
  double weight_clip_multiplier = 4.0;
  /// Weight→conductance mapping (device/cell_encoding.hpp).
  EncodingKind encoding = EncodingKind::kSingleCell;
  /// Time-dependent device effects (device/noise_model.hpp); the defaults
  /// disable them all, so tick_noise() is a no-op unless configured.
  DeviceNoiseConfig noise{};
};

/// Weight matrix on RRAM crossbar tiles.
class CrossbarWeightStore final : public WeightStore {
 public:
  CrossbarWeightStore(const RcsConfig& cfg, Tensor init, Rng rng);

  // ---- WeightStore interface -------------------------------------------
  [[nodiscard]] const Shape& shape() const override { return target_.shape(); }
  /// The chip's effective weights, unpacked from the packed panel cache
  /// (their only copy) on every call; the training flow never calls it.
  [[nodiscard]] const Tensor& effective() override;
  [[nodiscard]] const Tensor& target() const override { return target_; }
  /// Fused faulty forward: y = x · W_eff computed straight from crossbar
  /// conductances, sign registers, and the logical mapping through the
  /// packed panel cache. Stale tiles repack their cells into the GEMM panel
  /// layout (tile-parallel, disjoint scatter); the multiply then runs the
  /// same deterministic micro-kernel as matmul(x, effective()), so the
  /// result is bit-identical to it at any thread count and permutation.
  /// Inside a pool chunk the panel must already be current (throws
  /// CheckError otherwise): a repack there would race with other lanes.
  [[nodiscard]] Tensor forward_matmul(const Tensor& x) override;
  /// Repacks every stale tile on the caller (refresh_packed_effective).
  void prepare_concurrent_forward() override { refresh_packed_effective(); }
  void apply_delta(const Tensor& delta) override;
  void apply_delta_full(const Tensor& delta) override;
  void assign(const Tensor& w) override;
  [[nodiscard]] std::uint64_t write_count() const override {
    return writes_agg_;
  }
  /// Full device-state checkpointing through the WeightStore seam (the
  /// engine checkpoints stores without knowing the backend).
  void save_state(std::ostream& os) const override { save(os); }
  void restore_state(std::istream& is) override { restore(is); }

  // ---- Geometry ----------------------------------------------------------
  [[nodiscard]] std::size_t rows() const { return target_.dim(0); }
  [[nodiscard]] std::size_t cols() const { return target_.dim(1); }
  [[nodiscard]] const TileGrid& grid() const { return grid_; }
  [[nodiscard]] std::size_t tile_grid_rows() const {
    return grid_.grid_rows();
  }
  [[nodiscard]] std::size_t tile_grid_cols() const {
    return grid_.grid_cols();
  }
  [[nodiscard]] Crossbar& tile(std::size_t ti, std::size_t tj);
  [[nodiscard]] const Crossbar& tile(std::size_t ti, std::size_t tj) const;
  /// The second (G_n) tile plane; only valid when legs() == 2.
  [[nodiscard]] Crossbar& tile_n(std::size_t ti, std::size_t tj);
  [[nodiscard]] const Crossbar& tile_n(std::size_t ti, std::size_t tj) const;
  [[nodiscard]] const RcsConfig& config() const { return cfg_; }
  [[nodiscard]] double weight_max() const { return weight_max_; }
  [[nodiscard]] const CellEncoding& encoding() const { return *enc_; }
  /// Physical cells per logical weight (1 or 2).
  [[nodiscard]] std::size_t legs() const { return enc_->legs(); }

  // ---- Physical-space views (used by the on-line detector) --------------
  /// Conductance the store last targeted for the physical cell (r, c) on
  /// `leg` (0 = the single/G_p plane, 1 = the G_n plane).
  [[nodiscard]] double expected_g(std::size_t r, std::size_t c,
                                  std::size_t leg = 0) const;
  /// Ground-truth fault of the physical cell, merged across legs (for
  /// detector evaluation): a hard fault on either leg wins over a soft
  /// one, and the G_p leg breaks ties.
  [[nodiscard]] FaultKind true_fault(std::size_t r, std::size_t c) const;
  /// Assembled ground-truth fault matrix (physical space).
  [[nodiscard]] FaultMatrix true_fault_matrix() const;

  // ---- Permutations (re-mapping) ----------------------------------------
  /// Install logical→physical permutations; rewrites moved cells.
  void set_permutations(std::vector<std::size_t> row_perm,
                        std::vector<std::size_t> col_perm);
  [[nodiscard]] const LogicalMapping& mapping() const { return map_; }
  [[nodiscard]] const std::vector<std::size_t>& row_perm() const {
    return map_.row_perm();
  }
  [[nodiscard]] const std::vector<std::size_t>& col_perm() const {
    return map_.col_perm();
  }

  // ---- Bookkeeping -------------------------------------------------------
  /// Device writes issued so far for the *logical* cell (i, j) — i.e. the
  /// writes accumulated by whatever physical cell currently hosts it.
  [[nodiscard]] std::uint64_t cell_write_count(std::size_t i,
                                               std::size_t j) const;
  [[nodiscard]] double fault_fraction() const;
  /// write_count() / fault_count() / wearout_fault_count() are running
  /// aggregates maintained on every store-issued write — O(1) per call even
  /// inside training loops. Direct tile manipulation must be followed by
  /// invalidate(), which resynchronizes them from the tiles.
  [[nodiscard]] std::size_t fault_count() const { return faults_agg_; }
  [[nodiscard]] std::size_t wearout_fault_count() const {
    return wearout_agg_;
  }
  /// Currently active transient faults across all tile planes (subset of
  /// fault_count(); O(#tiles), not cached — callers poll it rarely).
  [[nodiscard]] std::size_t soft_fault_count() const;
  /// Logical weight count.
  [[nodiscard]] std::size_t cell_count() const { return rows() * cols(); }
  /// Physical device cells backing those weights (logical × legs()).
  [[nodiscard]] std::size_t physical_cell_count() const {
    return cell_count() * legs();
  }

  /// Mark the packed panel cache stale and resync the aggregate
  /// counters (call after any direct tile manipulation, e.g. a detection
  /// pass or fault injection through tile()).
  void invalidate() {
    mark_all_dirty();
    resync_counters();
  }

  /// The "read RRAM values, store off-chip" step of the paper's Fig. 3,
  /// for the logical weights currently hosted on cells flagged in
  /// `physical_faults`. Pure read — costs no device writes. Healthy
  /// weights keep their full-precision off-chip accumulation; fault-hosted
  /// weights collapse to what the device actually computes (0 for SA0,
  /// ±weight_max for SA1), so a later re-mapping relocates real values
  /// instead of stale garbage and magnitude pruning naturally reuses SA0
  /// cells as zeros. Decodes the flagged cells straight from the tiles and
  /// marks their tiles' panels stale: the new target is the read-out's
  /// sign hint, so a synced SA0 weight repacks as +0.0 where its old
  /// negative target read −0.0.
  void sync_targets_where(const FaultMatrix& physical_faults);

  /// Advance device time by one tick: soft faults decay, conductances
  /// drift, and new transient faults may strike (device/noise_model.hpp).
  /// No-op unless cfg().noise.active(). Tile-parallel with per-tile RNG
  /// streams salted by (tick, tile, leg) — deterministic at any thread
  /// count. Marks the packed panel cache stale.
  void tick_noise();
  /// Device-time ticks issued so far (serialized with the store).
  [[nodiscard]] std::uint64_t noise_ticks() const { return noise_ticks_; }

  /// Checkpointing: serialize the full store (off-chip targets, physical
  /// permutations, and every tile's device state).
  void save(std::ostream& os) const;
  static std::unique_ptr<CrossbarWeightStore> load(std::istream& is);
  /// In-place variant of load(): overwrite this store's state with a
  /// checkpoint of a same-shaped store (engine resume keeps the network's
  /// store pointers intact). Throws CheckError on a mismatched or corrupt
  /// checkpoint, leaving this store unchanged.
  void restore(std::istream& is);

 private:
  /// Uninitialized shell used by load().
  CrossbarWeightStore() = default;

  /// Body of load(): fill this (fresh) store from a checkpoint.
  void read_from(std::istream& is);

  /// Device-state change of one tile's writes, summed over its legs.
  struct WriteTotals {
    std::uint64_t writes = 0;
    std::size_t faults = 0;
    std::size_t wearout = 0;
  };
  /// The store's one writer, for one tile. Visits the tile's logical cells
  /// in logical row-major order (the band lists below), so each Crossbar
  /// draws its RNG in the order a serial logical sweep would, under any
  /// permutation. `cell(i, j)` updates target_(i, j) and returns whether
  /// the cell is programmed from it. A programmed cell's read-out is
  /// written through into a clean, finite panel; a write into any other
  /// tile, or one that reads out non-finite, marks the tile stale.
  /// Returns the tile's totals, diffed once around the whole visit.
  template <typename CellFn>
  WriteTotals write_tile(const TileSpan& span, const CellFn& cell);
  /// Run write_tile on every tile, one pool lane per tile, and fold the
  /// per-tile totals into the aggregates and metrics in tile order.
  template <typename CellFn>
  void write_cells(const CellFn& cell);
  /// Rebuild the band lists from map_ (after any permutation change).
  void rebuild_bands();
  /// The store's one read-out expression: the weight the analog compute
  /// path sees on cell (lr, lc) of a tile (`xn` is its G_n twin, null for
  /// single-leg encodings), decoded against `sign_hint`, the target the
  /// cell was last programmed from. Each leg's contribution includes its
  /// IR-drop attenuation.
  [[nodiscard]] float read_cell(const Crossbar& xb, const Crossbar* xn,
                                std::size_t lr, std::size_t lc,
                                float sign_hint) const;
  /// Re-read the tile covering `span` into the packed GEMM panels. Returns
  /// whether every value it packed is finite.
  bool pack_tile(const TileSpan& span);
  /// Bring packed_eff_ up to date, repacking only dirty tiles.
  void refresh_packed_effective();
  /// Mark every tile's panel stale.
  void mark_all_dirty();
  /// Re-derive the aggregate write/fault counters from the tiles' own
  /// running totals (O(#tiles), used after out-of-band tile mutation).
  void resync_counters();

  RcsConfig cfg_;
  /// The configured encoding singleton (device/cell_encoding.hpp); set in
  /// the ctor and in read_from(), never null afterwards.
  const CellEncoding* enc_ = nullptr;
  Tensor target_;
  double weight_max_ = 1.0;
  TileGrid grid_;
  LogicalMapping map_;
  /// Per tile-row band ti, the ascending logical rows hosted there:
  /// band_rows_[band_row_off_[ti] .. band_row_off_[ti + 1]); likewise per
  /// tile-column band. A tile's cells in logical row-major order are the
  /// product of its two bands.
  std::vector<std::size_t> band_rows_;
  std::vector<std::size_t> band_row_off_;
  std::vector<std::size_t> band_cols_;
  std::vector<std::size_t> band_col_off_;
  std::vector<std::unique_ptr<Crossbar>> tiles_;
  /// G_n tile plane, same geometry as tiles_; empty when legs() == 1.
  std::vector<std::unique_ptr<Crossbar>> tiles_n_;
  /// Device-time noise state (tick_noise); serialized for bit-exact resume.
  Rng noise_rng_{0};
  std::uint64_t noise_ticks_ = 0;
  /// The store's only copy of the effective weights, in the packed panel
  /// layout of tensor/gemm.hpp. Writes keep clean tiles current in place;
  /// tile-wide mutations (tick, detection, restore, sync) set the per-tile
  /// staleness flags (uint8_t, not vector<bool>: lanes set and clear flags
  /// for distinct tiles without sharing a word); any_pack_dirty_
  /// short-circuits the clean forward.
  std::vector<float> packed_eff_;
  std::vector<std::uint8_t> pack_dirty_;
  bool any_pack_dirty_ = true;
  /// effective()'s read-out buffer: a plain unpack of packed_eff_,
  /// overwritten on every call (no staleness state of its own).
  Tensor readout_;
  /// Per tile: its last pack held Inf/NaN. packed_finite_ folds them into
  /// gemm::run's bp_finite (finite panels skip zeros without a branch).
  std::vector<std::uint8_t> pack_nonfinite_;
  bool packed_finite_ = true;
  /// Running aggregates over all tiles (see fault_count() docs).
  std::uint64_t writes_agg_ = 0;
  std::size_t faults_agg_ = 0;
  std::size_t wearout_agg_ = 0;
};

}  // namespace refit
