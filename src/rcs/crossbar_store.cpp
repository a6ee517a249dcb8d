// Crossbar-tile-backed WeightStore (see crossbar_store.hpp).
#include "rcs/crossbar_store.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <utility>

#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"

namespace refit {

namespace {

// Process-global telemetry shared by every store instance (catalogue in
// docs/observability.md). The handles are function-local statics at the
// call sites; increments are relaxed atomics, safe from pool lanes.

/// Per-cell cost of one device tick in TileGrid grain units: soft-fault
/// decay, drift and a Bernoulli draw per cell, per leg. Sized so a store
/// of a few full tiles ticks on every pool lane.
constexpr std::size_t kTickWorkPerCell = 16;

/// Per-cell cost of the store's writer in TileGrid grain units: a delta
/// read per cell, plus an encode, a programming write (level snap, noise
/// draw) and a read-out per programmed cell. Sized so a store of a few
/// full tiles writes on every pool lane.
constexpr std::size_t kWriteWorkPerCell = 8;

double rms(const Tensor& t) {
  double s = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double v = t[i];
    s += v * v;
  }
  return std::sqrt(s / static_cast<double>(std::max<std::size_t>(1, t.numel())));
}

}  // namespace

CrossbarWeightStore::CrossbarWeightStore(const RcsConfig& cfg, Tensor init,
                                         Rng rng)
    : cfg_(cfg),
      enc_(&CellEncoding::of(cfg.encoding)),
      target_(std::move(init)) {
  REFIT_CHECK_MSG(target_.rank() == 2, "crossbar store needs a 2-D matrix");
  REFIT_CHECK(cfg_.tile_rows > 0 && cfg_.tile_cols > 0);
  const std::size_t r = rows(), c = cols();
  weight_max_ = std::max(1e-6, cfg_.weight_clip_multiplier * rms(target_));

  grid_ = TileGrid(r, c, cfg_.tile_rows, cfg_.tile_cols);
  const std::size_t tile_count = grid_.tile_count();
  const auto make_config = [&](const TileSpan& span) {
    CrossbarConfig xc;
    xc.rows = span.rows;
    xc.cols = span.cols;
    xc.levels = cfg_.levels;
    // Programming noise from the device model stacks on the intrinsic
    // write variance; both default-zero paths keep today's bits.
    xc.write_noise_sigma = cfg_.write_noise_sigma + cfg_.noise.program_sigma;
    xc.wire_resistance_ratio = cfg_.wire_resistance_ratio;
    return xc;
  };
  tiles_.resize(tile_count);
  // The G_n plane's seeds continue past the G_p plane's (split() is pure,
  // so the extra draws cannot perturb the single-leg stream).
  if (enc_->legs() == 2) tiles_n_.resize(tile_count);
  noise_rng_ = rng.split(0x6e6f6973ULL);  // "nois"
  const bool inject =
      cfg_.inject_fabrication && cfg_.fabrication.fraction > 0.0;
  const Rng fab_rng = rng.split(0xfabfabULL);

  map_ = LogicalMapping(r, c);
  rebuild_bands();
  pack_dirty_.assign(tile_count, 1);
  pack_nonfinite_.assign(tile_count, 0);
  any_pack_dirty_ = true;

  // Make, fault and program each tile on its own pool lane. Every tile
  // draws only from its own streams (device rng.split(t + 1), fabrication
  // fab_rng.split(t + 1), salted by tile index rather than the tile's heap
  // address), so the chip is bit-identical at any thread count.
  const auto program = [&](std::size_t i, std::size_t j) {
    target_.at(i, j) = std::clamp(target_.at(i, j),
                                  -static_cast<float>(weight_max_),
                                  static_cast<float>(weight_max_));
    return true;
  };
  grid_.for_each_tile(
      [&](const TileSpan& span) {
        const std::size_t t = span.index;
        tiles_[t] = std::make_unique<Crossbar>(
            make_config(span), cfg_.endurance, rng.split(t + 1));
        if (!tiles_n_.empty()) {
          tiles_n_[t] = std::make_unique<Crossbar>(
              make_config(span), cfg_.endurance,
              rng.split(tile_count + t + 1));
        }
        if (inject) {
          Rng tile_rng = fab_rng.split(t + 1);
          inject_fabrication_faults(*tiles_[t], cfg_.fabrication, tile_rng);
          if (!tiles_n_.empty()) {
            Rng tile_rng_n = fab_rng.split(tile_count + t + 1);
            inject_fabrication_faults(*tiles_n_[t], cfg_.fabrication,
                                      tile_rng_n);
          }
        }
        (void)write_tile(span, program);
      },
      kWriteWorkPerCell);
  resync_counters();
}

Crossbar& CrossbarWeightStore::tile(std::size_t ti, std::size_t tj) {
  REFIT_CHECK(ti < grid_.grid_rows() && tj < grid_.grid_cols());
  return *tiles_[grid_.index_of(ti, tj)];
}

const Crossbar& CrossbarWeightStore::tile(std::size_t ti,
                                          std::size_t tj) const {
  REFIT_CHECK(ti < grid_.grid_rows() && tj < grid_.grid_cols());
  return *tiles_[grid_.index_of(ti, tj)];
}

Crossbar& CrossbarWeightStore::tile_n(std::size_t ti, std::size_t tj) {
  REFIT_CHECK(ti < grid_.grid_rows() && tj < grid_.grid_cols());
  REFIT_CHECK_MSG(!tiles_n_.empty(), "tile_n(): encoding has a single leg");
  return *tiles_n_[grid_.index_of(ti, tj)];
}

const Crossbar& CrossbarWeightStore::tile_n(std::size_t ti,
                                            std::size_t tj) const {
  REFIT_CHECK(ti < grid_.grid_rows() && tj < grid_.grid_cols());
  REFIT_CHECK_MSG(!tiles_n_.empty(), "tile_n(): encoding has a single leg");
  return *tiles_n_[grid_.index_of(ti, tj)];
}

void CrossbarWeightStore::rebuild_bands() {
  // Counting sort of the logical indices by the band their physical
  // coordinate falls in; ascending within a band because i (j) ascends.
  const auto build = [](std::size_t n, std::size_t bands, std::size_t width,
                        const std::vector<std::size_t>& perm,
                        std::vector<std::size_t>& list,
                        std::vector<std::size_t>& off) {
    off.assign(bands + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++off[perm[i] / width + 1];
    std::partial_sum(off.begin(), off.end(), off.begin());
    list.resize(n);
    std::vector<std::size_t> next(off.begin(), off.end() - 1);
    for (std::size_t i = 0; i < n; ++i) list[next[perm[i] / width]++] = i;
  };
  build(rows(), grid_.grid_rows(), grid_.tile_rows(), map_.row_perm(),
        band_rows_, band_row_off_);
  build(cols(), grid_.grid_cols(), grid_.tile_cols(), map_.col_perm(),
        band_cols_, band_col_off_);
}

template <typename CellFn>
CrossbarWeightStore::WriteTotals CrossbarWeightStore::write_tile(
    const TileSpan& span, const CellFn& cell) {
  Crossbar& xb = *tiles_[span.index];
  Crossbar* xn = tiles_n_.empty() ? nullptr : tiles_n_[span.index].get();
  const auto totals = [&] {
    WriteTotals t{xb.total_writes(), xb.fault_count(),
                  xb.wearout_fault_count()};
    if (xn != nullptr) {
      t.writes += xn->total_writes();
      t.faults += xn->fault_count();
      t.wearout += xn->wearout_fault_count();
    }
    return t;
  };
  const WriteTotals before = totals();
  // A clean panel holding only finite values takes each new read-out in
  // place; otherwise the tile repacks on the next refresh, which keeps
  // pack_nonfinite_ (and so packed_finite_) exact.
  bool through = pack_dirty_[span.index] == 0 &&
                 pack_nonfinite_[span.index] == 0;
  const std::size_t k = rows();
  double g[kMaxEncodingLegs] = {0.0, 0.0};
  for (std::size_t a = band_row_off_[span.ti]; a < band_row_off_[span.ti + 1];
       ++a) {
    const std::size_t i = band_rows_[a];
    const std::size_t lr = map_.physical_row(i) - span.row0;
    for (std::size_t b = band_col_off_[span.tj];
         b < band_col_off_[span.tj + 1]; ++b) {
      const std::size_t j = band_cols_[b];
      if (!cell(i, j)) continue;
      const std::size_t lc = map_.physical_col(j) - span.col0;
      const float target = target_.at(i, j);
      enc_->encode(target, weight_max_, g);
      xb.write(lr, lc, g[0]);
      if (xn != nullptr) xn->write(lr, lc, g[1]);
      if (through) {
        const float w = read_cell(xb, xn, lr, lc, target);
        through = std::isfinite(w);
        if (through) packed_eff_[gemm::packed_index(k, i, j)] = w;
      }
      if (!through) pack_dirty_[span.index] = 1;
    }
  }
  const WriteTotals after = totals();
  return {after.writes - before.writes, after.faults - before.faults,
          after.wearout - before.wearout};
}

template <typename CellFn>
void CrossbarWeightStore::write_cells(const CellFn& cell) {
  std::vector<WriteTotals> per_tile(tiles_.size());
  grid_.for_each_tile(
      [&](const TileSpan& span) {
        per_tile[span.index] = write_tile(span, cell);
      },
      kWriteWorkPerCell);
  WriteTotals sum;
  for (const WriteTotals& t : per_tile) {
    sum.writes += t.writes;
    sum.faults += t.faults;
    sum.wearout += t.wearout;
  }
  static obs::Counter writes_metric =
      obs::MetricsRegistry::instance().counter("store.writes", "writes");
  static obs::Counter wearout_metric = obs::MetricsRegistry::instance().counter(
      "store.wearout_faults", "faults");
  writes_metric.add(sum.writes);
  wearout_metric.add(sum.wearout);
  writes_agg_ += sum.writes;
  faults_agg_ += sum.faults;
  wearout_agg_ += sum.wearout;
  any_pack_dirty_ = std::find(pack_dirty_.begin(), pack_dirty_.end(), 1) !=
                    pack_dirty_.end();
}

const Tensor& CrossbarWeightStore::effective() {
  refresh_packed_effective();
  const std::size_t k = rows(), n = cols();
  if (readout_.shape() != target_.shape()) readout_ = Tensor({k, n});
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      readout_.at(i, j) = packed_eff_[gemm::packed_index(k, i, j)];
    }
  }
  return readout_;
}

void CrossbarWeightStore::mark_all_dirty() {
  std::fill(pack_dirty_.begin(), pack_dirty_.end(), 1);
  any_pack_dirty_ = true;
}

void CrossbarWeightStore::resync_counters() {
  writes_agg_ = 0;
  faults_agg_ = 0;
  wearout_agg_ = 0;
  for (const auto& t : tiles_) {
    writes_agg_ += t->total_writes();
    faults_agg_ += t->fault_count();
    wearout_agg_ += t->wearout_fault_count();
  }
  for (const auto& t : tiles_n_) {
    writes_agg_ += t->total_writes();
    faults_agg_ += t->fault_count();
    wearout_agg_ += t->wearout_fault_count();
  }
}

std::size_t CrossbarWeightStore::soft_fault_count() const {
  std::size_t n = 0;
  for (const auto& t : tiles_) n += t->soft_fault_count();
  for (const auto& t : tiles_n_) n += t->soft_fault_count();
  return n;
}

void CrossbarWeightStore::tick_noise() {
  if (!cfg_.noise.active()) return;
  ++noise_ticks_;
  const DeviceNoiseModel model(cfg_.noise);
  // One child stream per (tick, tile, leg): split() is pure, so lanes can
  // tick tiles in any order and the device trajectory stays identical.
  const Rng tick_rng = noise_rng_.split(noise_ticks_);
  static obs::Counter ticks_metric =
      obs::MetricsRegistry::instance().counter("device.ticks", "ticks");
  ticks_metric.add();
  grid_.for_each_tile(
      [&](const TileSpan& span) {
        Rng leg_p = tick_rng.split(span.index * 2 + 1);
        model.tick_tile(*tiles_[span.index], leg_p);
        if (!tiles_n_.empty()) {
          Rng leg_n = tick_rng.split(span.index * 2 + 2);
          model.tick_tile(*tiles_n_[span.index], leg_n);
        }
      },
      kTickWorkPerCell);
  invalidate();
}

float CrossbarWeightStore::read_cell(const Crossbar& xb, const Crossbar* xn,
                                     std::size_t lr, std::size_t lc,
                                     float sign_hint) const {
  // The compute path is analog: each leg's contribution includes its
  // IR-drop attenuation (identity when the model is disabled). The decode
  // undoes the encoding — single-cell reapplies the peripheral sign
  // register (SA1 cells saturate at ±weight_max, SA0 read as 0);
  // differential subtracts the legs.
  double g[kMaxEncodingLegs] = {0.0, 0.0};
  g[0] = xb.effective_conductance(lr, lc);
  if (xn != nullptr) g[1] = xn->effective_conductance(lr, lc);
  return enc_->decode(g, sign_hint, weight_max_);
}

bool CrossbarWeightStore::pack_tile(const TileSpan& span) {
  const Crossbar& xb = *tiles_[span.index];
  const Crossbar* xn =
      tiles_n_.empty() ? nullptr : tiles_n_[span.index].get();
  const std::size_t k = rows();
  bool finite = true;
  for (std::size_t lr = 0; lr < span.rows; ++lr) {
    const std::size_t i = map_.logical_row(span.row0 + lr);
    for (std::size_t lc = 0; lc < span.cols; ++lc) {
      const std::size_t j = map_.logical_col(span.col0 + lc);
      // Scattered into the panel slot pack_b would have put W_eff(i, j) in,
      // so the fused path and matmul(x, effective()) feed the micro-kernel
      // identical bits.
      const float w = read_cell(xb, xn, lr, lc, target_.at(i, j));
      packed_eff_[gemm::packed_index(k, i, j)] = w;
      finite &= std::isfinite(w);
    }
  }
  return finite;
}

void CrossbarWeightStore::refresh_packed_effective() {
  const std::size_t needed = gemm::packed_size(rows(), cols());
  if (packed_eff_.size() != needed) {
    // Zero-fill once: tail panel lanes past the last column are never
    // touched by any tile and must stay zero for the micro-kernel.
    packed_eff_.assign(needed, 0.0f);
    std::fill(pack_dirty_.begin(), pack_dirty_.end(), 1);
    any_pack_dirty_ = true;
  }
  if (!any_pack_dirty_) return;
  std::vector<std::size_t> dirty;
  dirty.reserve(tiles_.size());
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    if (pack_dirty_[t] != 0) dirty.push_back(t);
  }
  static obs::Counter pack_tiles_metric = obs::MetricsRegistry::instance()
      .counter("store.fused_pack_tiles", "tiles");
  pack_tiles_metric.add(dirty.size());
  // Span recorded on the caller only (per-tile timing would land on pool
  // workers and make traces depend on the thread count — the pool's
  // busy_ns counters carry the per-lane breakdown instead).
  obs::TraceSpan span("fused_forward.pack", "rcs");
  grid_.for_each_tile(dirty, [&](const TileSpan& s) {
    pack_nonfinite_[s.index] = pack_tile(s) ? 0 : 1;
    pack_dirty_[s.index] = 0;
  });
  packed_finite_ = std::find(pack_nonfinite_.begin(), pack_nonfinite_.end(),
                             1) == pack_nonfinite_.end();
  any_pack_dirty_ = false;
}

Tensor CrossbarWeightStore::forward_matmul(const Tensor& x) {
  REFIT_CHECK_MSG(x.rank() == 2 && x.dim(1) == rows(),
                  "forward_matmul: bad input " << shape_to_string(x.shape()));
  static obs::Counter calls_metric = obs::MetricsRegistry::instance().counter(
      "store.fused_forward.calls", "calls");
  static obs::Counter flops_metric =
      obs::MetricsRegistry::instance().counter("tensor.gemm.flops", "flop");
  calls_metric.add();
  const std::size_t m = x.dim(0), k = rows(), n = cols();
  REFIT_CHECK_MSG(!ThreadPool::inside_chunk() ||
                      (!any_pack_dirty_ &&
                       packed_eff_.size() == gemm::packed_size(k, n)),
                  "forward_matmul would repack the panel on a pool lane; "
                  "call prepare_concurrent_forward() before the fan-out");
  refresh_packed_effective();
  flops_metric.add(2 * m * k * n);
  obs::TraceSpan span("fused_forward", "rcs");
  Tensor y({m, n});
  // Same zero-skip contract as matmul(): the comparison path the tests pin
  // this against, matmul(x, effective()), skips zero activations too, and
  // the panel's finiteness picks the same kernel pack_b's result would.
  gemm::run(m, k, n, x.data(), k, packed_eff_.data(), y.data(), n,
            /*zero_skip=*/true, packed_finite_);
  return y;
}

void CrossbarWeightStore::apply_delta(const Tensor& delta) {
  REFIT_CHECK_MSG(delta.shape() == target_.shape(),
                  "delta shape mismatch in CrossbarWeightStore");
  write_cells([&](std::size_t i, std::size_t j) {
    const float d = delta.at(i, j);
    if (d == 0.0f) return false;  // threshold training skips these writes
    target_.at(i, j) = std::clamp(target_.at(i, j) + d,
                                  -static_cast<float>(weight_max_),
                                  static_cast<float>(weight_max_));
    return true;
  });
}

void CrossbarWeightStore::apply_delta_full(const Tensor& delta) {
  REFIT_CHECK_MSG(delta.shape() == target_.shape(),
                  "delta shape mismatch in CrossbarWeightStore");
  write_cells([&](std::size_t i, std::size_t j) {
    const float d = delta.at(i, j);
    if (d != 0.0f) {
      target_.at(i, j) = std::clamp(target_.at(i, j) + d,
                                    -static_cast<float>(weight_max_),
                                    static_cast<float>(weight_max_));
    }
    return true;  // a zero delta still issues the programming pulse
  });
}

void CrossbarWeightStore::assign(const Tensor& w) {
  REFIT_CHECK_MSG(w.shape() == target_.shape(),
                  "assign shape mismatch in CrossbarWeightStore");
  write_cells([&](std::size_t i, std::size_t j) {
    const float nv = std::clamp(w.at(i, j), -static_cast<float>(weight_max_),
                                static_cast<float>(weight_max_));
    if (nv == target_.at(i, j)) return false;
    target_.at(i, j) = nv;
    return true;
  });
}

double CrossbarWeightStore::expected_g(std::size_t r, std::size_t c,
                                       std::size_t leg) const {
  REFIT_CHECK(leg < legs());
  const std::size_t i = map_.logical_row(r);
  const std::size_t j = map_.logical_col(c);
  double g[kMaxEncodingLegs];
  enc_->encode(target_.at(i, j), weight_max_, g);
  return g[leg];
}

FaultKind CrossbarWeightStore::true_fault(std::size_t r, std::size_t c) const {
  const TileGrid::Coord tc = grid_.locate(r, c);
  const FaultKind fp = tiles_[tc.tile]->fault(tc.lr, tc.lc);
  if (tiles_n_.empty()) return fp;
  const FaultKind fn = tiles_n_[tc.tile]->fault(tc.lr, tc.lc);
  // Merge for evaluation: hard > soft > none, G_p leg breaks ties.
  if (fault_is_hard(fp)) return fp;
  if (fault_is_hard(fn)) return fn;
  return fp != FaultKind::kNone ? fp : fn;
}

FaultMatrix CrossbarWeightStore::true_fault_matrix() const {
  FaultMatrix fm(rows(), cols());
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t c = 0; c < cols(); ++c) fm.set(r, c, true_fault(r, c));
  return fm;
}

void CrossbarWeightStore::sync_targets_where(
    const FaultMatrix& physical_faults) {
  REFIT_CHECK(physical_faults.rows() == rows() &&
              physical_faults.cols() == cols());
  for (std::size_t i = 0; i < rows(); ++i) {
    const std::size_t pr = map_.physical_row(i);
    for (std::size_t j = 0; j < cols(); ++j) {
      const std::size_t pc = map_.physical_col(j);
      if (!physical_faults.faulty(pr, pc)) continue;
      const TileGrid::Coord tc = grid_.locate(pr, pc);
      const Crossbar* xn =
          tiles_n_.empty() ? nullptr : tiles_n_[tc.tile].get();
      // The old target is the sign hint the cell was programmed from; the
      // new one is the hint its panel slot must be read out against.
      target_.at(i, j) =
          read_cell(*tiles_[tc.tile], xn, tc.lr, tc.lc, target_.at(i, j));
      pack_dirty_[tc.tile] = 1;
      any_pack_dirty_ = true;
    }
  }
}

void CrossbarWeightStore::set_permutations(std::vector<std::size_t> row_perm,
                                           std::vector<std::size_t> col_perm) {
  const std::size_t r = rows(), c = cols();
  const std::vector<std::size_t> old_rows = map_.row_perm();
  const std::vector<std::size_t> old_cols = map_.col_perm();
  map_.set(std::move(row_perm), std::move(col_perm));
  rebuild_bands();

  // Rewrite every cell whose logical owner moved. (Unmoved cells keep their
  // programmed conductance — no endurance is spent on them.) Bijectivity
  // means every physical cell with a new occupant is rewritten here, so
  // each moved weight's panel slot is written through (or its tile marked
  // stale) — no blanket invalidation needed.
  std::vector<std::uint8_t> row_moved(r), col_moved(c);
  std::size_t rows_kept = 0, cols_kept = 0;
  for (std::size_t i = 0; i < r; ++i) {
    row_moved[i] = old_rows[i] != map_.physical_row(i) ? 1 : 0;
    rows_kept += row_moved[i] == 0 ? 1 : 0;
  }
  for (std::size_t j = 0; j < c; ++j) {
    col_moved[j] = old_cols[j] != map_.physical_col(j) ? 1 : 0;
    cols_kept += col_moved[j] == 0 ? 1 : 0;
  }
  write_cells([&](std::size_t i, std::size_t j) {
    return row_moved[i] != 0 || col_moved[j] != 0;
  });
  const std::uint64_t rewritten = r * c - rows_kept * cols_kept;
  obs::EventLog::global().emit(
      obs::EventKind::kRemap, obs::EventSeverity::kInfo, "store",
      {{"rows", static_cast<double>(r)},
       {"cols", static_cast<double>(c)},
       {"cells_rewritten", static_cast<double>(rewritten)}});
}

namespace {
constexpr std::uint64_t kStoreTag = 0x5245464954535452ULL;  // "REFITSTR"

void write_tensor(std::ostream& os, const Tensor& t) {
  std::vector<std::uint64_t> shape(t.shape().begin(), t.shape().end());
  ser::write_vec(os, shape);
  ser::write_vec(os, t.vec());
}

Tensor read_tensor(std::istream& is) {
  const auto shape64 = ser::read_vec<std::uint64_t>(is);
  Shape shape(shape64.begin(), shape64.end());
  auto data = ser::read_vec<float>(is);
  return Tensor(shape, std::move(data));
}
}  // namespace

void CrossbarWeightStore::save(std::ostream& os) const {
  ser::write_tag(os, kStoreTag);
  ser::write_pod(os, cfg_);
  write_tensor(os, target_);
  ser::write_pod(os, weight_max_);
  ser::write_pod<std::uint64_t>(os, grid_.grid_rows());
  ser::write_pod<std::uint64_t>(os, grid_.grid_cols());
  map_.save(os);
  for (const auto& t : tiles_) t->save(os);
  // The G_n plane's presence is implied by cfg_.encoding (already written).
  for (const auto& t : tiles_n_) t->save(os);
  ser::write_pod(os, noise_rng_.state());
  ser::write_pod(os, noise_ticks_);
}

void CrossbarWeightStore::read_from(std::istream& is) {
  ser::expect_tag(is, kStoreTag);
  cfg_ = ser::read_pod<RcsConfig>(is);
  target_ = read_tensor(is);
  REFIT_CHECK_MSG(target_.rank() == 2, "corrupt store checkpoint");
  weight_max_ = ser::read_pod<double>(is);
  const auto grid_rows = ser::read_pod<std::uint64_t>(is);
  const auto grid_cols = ser::read_pod<std::uint64_t>(is);
  grid_ = TileGrid(rows(), cols(), cfg_.tile_rows, cfg_.tile_cols);
  REFIT_CHECK_MSG(grid_.grid_rows() == grid_rows && grid_.grid_cols() == grid_cols,
                  "corrupt store checkpoint (tile grid)");
  map_ = LogicalMapping::load(is);
  REFIT_CHECK_MSG(map_.rows() == rows() && map_.cols() == cols(),
                  "corrupt store checkpoint (permutations)");
  rebuild_bands();
  enc_ = &CellEncoding::of(cfg_.encoding);
  tiles_.clear();
  tiles_.reserve(grid_.tile_count());
  for (std::size_t t = 0; t < grid_.tile_count(); ++t) {
    tiles_.push_back(std::make_unique<Crossbar>(Crossbar::load(is)));
  }
  tiles_n_.clear();
  if (enc_->legs() == 2) {
    tiles_n_.reserve(grid_.tile_count());
    for (std::size_t t = 0; t < grid_.tile_count(); ++t) {
      tiles_n_.push_back(std::make_unique<Crossbar>(Crossbar::load(is)));
    }
  }
  noise_rng_.set_state(ser::read_pod<Rng::State>(is));
  noise_ticks_ = ser::read_pod<std::uint64_t>(is);
  packed_eff_.clear();
  pack_dirty_.assign(tiles_.size(), 1);
  pack_nonfinite_.assign(tiles_.size(), 0);
  any_pack_dirty_ = true;
  resync_counters();
}

std::unique_ptr<CrossbarWeightStore> CrossbarWeightStore::load(
    std::istream& is) {
  // NOLINTNEXTLINE(*-owning-memory): private ctor, make_unique unavailable
  std::unique_ptr<CrossbarWeightStore> store(new CrossbarWeightStore());
  store->read_from(is);
  return store;
}

void CrossbarWeightStore::restore(std::istream& is) {
  // Load into a temporary so a corrupt or mismatched checkpoint throws
  // before any of this store's state is replaced.
  std::unique_ptr<CrossbarWeightStore> loaded = load(is);
  REFIT_CHECK_MSG(loaded->shape() == shape(),
                  "restore() checkpoint shape mismatch");
  *this = std::move(*loaded);
}

std::uint64_t CrossbarWeightStore::cell_write_count(std::size_t i,
                                                    std::size_t j) const {
  const TileGrid::Coord tc =
      grid_.locate(map_.physical_row(i), map_.physical_col(j));
  return tiles_[tc.tile]->write_count(tc.lr, tc.lc);
}

double CrossbarWeightStore::fault_fraction() const {
  // faults_agg_ spans every tile plane, so normalize by physical cells
  // (identical to the logical count for single-leg encodings).
  return static_cast<double>(fault_count()) /
         static_cast<double>(physical_cell_count());
}

}  // namespace refit
