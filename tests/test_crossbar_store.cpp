// Tests for the crossbar-backed weight store (src/rcs/crossbar_store.hpp):
// weight↔conductance mapping, fault semantics, tiling, permutations,
// endurance bookkeeping, and the RcsSystem registry.
#include "rcs/crossbar_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/thread_pool.hpp"
#include "rcs/rcs_system.hpp"
#include "store_reference.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace refit {
namespace {

RcsConfig clean_config(std::size_t levels = 64) {
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.levels = levels;  // fine-grained to keep quantization error tiny
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  return cfg;
}

Tensor ramp(std::size_t r, std::size_t c, float scale = 0.01f) {
  Tensor t({r, c});
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = scale * (static_cast<float>(i % 17) - 8.0f);
  return t;
}

TEST(CrossbarStore, EffectiveApproximatesTarget) {
  const Tensor init = ramp(8, 8);
  CrossbarWeightStore store(clean_config(256), init, Rng(1));
  const Tensor& eff = store.effective();
  for (std::size_t i = 0; i < init.numel(); ++i)
    EXPECT_NEAR(eff[i], init[i], store.weight_max() / 255.0 + 1e-6);
}

TEST(CrossbarStore, QuantizationAtCoarseLevels) {
  const Tensor init = ramp(4, 4);
  CrossbarWeightStore store(clean_config(8), init, Rng(2));
  const Tensor& eff = store.effective();
  const double gap = store.weight_max() / 7.0;
  for (std::size_t i = 0; i < init.numel(); ++i) {
    // Effective = sign · (nearest of 8 magnitude levels) · w_max.
    EXPECT_NEAR(std::fabs(eff[i]),
                std::round(std::fabs(init[i]) / gap) * gap, 1e-5);
    if (eff[i] != 0.0f) {
      EXPECT_EQ(eff[i] > 0.0f, init[i] > 0.0f) << "sign preserved";
    }
  }
}

TEST(CrossbarStore, ApplyDeltaSkipsZeros) {
  const Tensor init = ramp(4, 4);
  CrossbarWeightStore store(clean_config(), init, Rng(3));
  const std::uint64_t w0 = store.write_count();
  Tensor delta({4, 4});
  delta.at(1, 1) = 0.01f;
  delta.at(2, 3) = -0.02f;
  store.apply_delta(delta);
  EXPECT_EQ(store.write_count(), w0 + 2);
  EXPECT_NEAR(store.target().at(1, 1), init.at(1, 1) + 0.01f, 1e-6);
}

TEST(CrossbarStore, TargetClipsAtWeightMax) {
  const Tensor init = ramp(4, 4);
  CrossbarWeightStore store(clean_config(), init, Rng(4));
  Tensor delta({4, 4});
  delta.at(0, 0) = 1e6f;
  store.apply_delta(delta);
  EXPECT_FLOAT_EQ(store.target().at(0, 0),
                  static_cast<float>(store.weight_max()));
}

TEST(CrossbarStore, Sa0ForcesZeroWeight) {
  const Tensor init = ramp(4, 4, 0.05f);
  CrossbarWeightStore store(clean_config(), init, Rng(5));
  store.tile(0, 0).force_fault(1, 1, FaultKind::kStuckAt0);
  store.invalidate();
  EXPECT_FLOAT_EQ(store.effective().at(1, 1), 0.0f);
}

TEST(CrossbarStore, Sa1ForcesMaxMagnitudeWithSign) {
  Tensor init = ramp(4, 4, 0.05f);
  init.at(2, 2) = -0.01f;
  CrossbarWeightStore store(clean_config(), init, Rng(6));
  store.tile(0, 0).force_fault(2, 2, FaultKind::kStuckAt1);
  store.invalidate();
  EXPECT_FLOAT_EQ(store.effective().at(2, 2),
                  -static_cast<float>(store.weight_max()));
}

TEST(CrossbarStore, TilingCoversMatrixExactly) {
  const Tensor init = ramp(40, 25);
  CrossbarWeightStore store(clean_config(), init, Rng(7));
  EXPECT_EQ(store.tile_grid_rows(), 3u);  // 16+16+8
  EXPECT_EQ(store.tile_grid_cols(), 2u);  // 16+9
  EXPECT_EQ(store.tile(2, 1).rows(), 8u);
  EXPECT_EQ(store.tile(2, 1).cols(), 9u);
  std::size_t cells = 0;
  for (std::size_t ti = 0; ti < 3; ++ti)
    for (std::size_t tj = 0; tj < 2; ++tj)
      cells += store.tile(ti, tj).rows() * store.tile(ti, tj).cols();
  EXPECT_EQ(cells, 40u * 25u);
}

TEST(CrossbarStore, FabricationFaultsRoughlyMatchFraction) {
  RcsConfig cfg = clean_config();
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.10;
  CrossbarWeightStore store(cfg, ramp(64, 64), Rng(8));
  EXPECT_NEAR(store.fault_fraction(), 0.10, 0.02);
}

TEST(CrossbarStore, PermutationRelocatesCells) {
  const Tensor init = ramp(6, 6, 0.05f);
  CrossbarWeightStore store(clean_config(256), init, Rng(9));
  // Make physical column 0 entirely SA0.
  for (std::size_t r = 0; r < 6; ++r)
    store.tile(0, 0).force_fault(r, 0, FaultKind::kStuckAt0);
  store.invalidate();
  // Initially logical column 0 reads zero.
  EXPECT_FLOAT_EQ(store.effective().at(2, 0), 0.0f);
  // Move logical column 0 to physical column 5 and vice versa.
  std::vector<std::size_t> rp(6), cp(6);
  std::iota(rp.begin(), rp.end(), 0);
  std::iota(cp.begin(), cp.end(), 0);
  std::swap(cp[0], cp[5]);
  store.set_permutations(rp, cp);
  // Logical column 0 now lives on healthy cells…
  EXPECT_NEAR(store.effective().at(2, 0), init.at(2, 0),
              store.weight_max() / 100.0);
  // …and logical column 5 absorbed the SA0 column.
  EXPECT_FLOAT_EQ(store.effective().at(2, 5), 0.0f);
}

TEST(CrossbarStore, PermutationValidation) {
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(10));
  std::vector<std::size_t> rp{0, 1, 2, 3};
  EXPECT_THROW(store.set_permutations(rp, {0, 0, 1, 2}), CheckError);
  EXPECT_THROW(store.set_permutations({0, 1, 2}, rp), CheckError);
}

TEST(CrossbarStore, IdentityPermutationCostsNoWrites) {
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(11));
  const std::uint64_t w0 = store.write_count();
  std::vector<std::size_t> id{0, 1, 2, 3};
  store.set_permutations(id, id);
  EXPECT_EQ(store.write_count(), w0);
}

TEST(CrossbarStore, PermutationRewritesMovedCellsOnly) {
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(12));
  const std::uint64_t w0 = store.write_count();
  std::vector<std::size_t> rp{0, 1, 2, 3}, cp{1, 0, 2, 3};
  store.set_permutations(rp, cp);
  EXPECT_EQ(store.write_count(), w0 + 8);  // two moved columns × 4 rows
}

TEST(CrossbarStore, ExpectedGFollowsPermutation) {
  Tensor init({2, 2}, std::vector<float>{0.1f, 0.0f, 0.0f, 0.0f});
  CrossbarWeightStore store(clean_config(256), init, Rng(13));
  EXPECT_GT(store.expected_g(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(store.expected_g(0, 1), 0.0);
  store.set_permutations({0, 1}, {1, 0});
  // Logical (0,0) now lives at physical (0,1).
  EXPECT_GT(store.expected_g(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(store.expected_g(0, 0), 0.0);
}

TEST(CrossbarStore, CellWriteCountTracksLogicalCell) {
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(14));
  Tensor delta({4, 4});
  delta.at(0, 0) = 0.01f;
  store.apply_delta(delta);
  store.apply_delta(delta);
  EXPECT_EQ(store.cell_write_count(0, 0), 3u);  // init + 2 updates
  EXPECT_EQ(store.cell_write_count(1, 1), 1u);  // init only
}

TEST(CrossbarStore, TrueFaultMatrixMatchesTiles) {
  RcsConfig cfg = clean_config();
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.2;
  CrossbarWeightStore store(cfg, ramp(20, 20), Rng(15));
  const FaultMatrix fm = store.true_fault_matrix();
  EXPECT_EQ(fm.count_faulty(), store.fault_count());
  for (std::size_t r = 0; r < 20; ++r)
    for (std::size_t c = 0; c < 20; ++c)
      EXPECT_EQ(fm.at(r, c), store.true_fault(r, c));
}

TEST(RcsSystem, FactoryRegistersStores) {
  RcsSystem sys(clean_config(), Rng(16));
  auto factory = sys.factory();
  auto s1 = factory("layer1", ramp(8, 8));
  auto s2 = factory("layer2", ramp(4, 4));
  EXPECT_EQ(sys.stores().size(), 2u);
  EXPECT_EQ(sys.cell_count(), 64u + 16u);
  EXPECT_GT(sys.total_device_writes(), 0u);
  EXPECT_DOUBLE_EQ(sys.fault_fraction(), 0.0);
}

TEST(RcsSystem, AggregateWriteStats) {
  RcsSystem sys(clean_config(), Rng(17));
  auto factory = sys.factory();
  auto s = factory("l", ramp(4, 4));
  const double before = sys.mean_writes_per_cell();
  Tensor delta({4, 4}, 0.01f);
  s->apply_delta(delta);
  EXPECT_GT(sys.mean_writes_per_cell(), before);
}

// ---- Fused faulty forward -------------------------------------------------

struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) == 0;
}

TEST(CrossbarStore, FusedForwardBitExactUnderInjectedFaults) {
  PoolGuard pool_guard;
  // 40×24 on 16×16 tiles: a 3×2 grid with shrunken edge tiles, so the
  // packed scatter crosses tile boundaries in both dimensions.
  const Tensor init = ramp(40, 24, 0.03f);
  CrossbarWeightStore store(clean_config(), init, Rng(21));
  store.tile(0, 0).force_fault(1, 2, FaultKind::kStuckAt0);
  store.tile(0, 1).force_fault(3, 3, FaultKind::kStuckAt1);
  store.tile(1, 0).force_fault(0, 0, FaultKind::kStuckAt1);
  store.tile(2, 1).force_fault(5, 7, FaultKind::kStuckAt0);
  store.invalidate();

  Rng rng(22);
  const Tensor x = Tensor::randn({5, 40}, rng);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    store.invalidate();  // repack every tile at this thread count
    EXPECT_TRUE(matches_reference(store, x)) << "threads=" << threads;
  }
}

TEST(CrossbarStore, FusedForwardOnPoolLaneNeedsCurrentPanel) {
  PoolGuard pool_guard;
  CrossbarWeightStore store(clean_config(), ramp(40, 24, 0.03f), Rng(27));
  Rng rng(28);
  const Tensor x = Tensor::randn({4, 40}, rng);
  const Tensor ref = store.forward_matmul(x);  // repacked on the caller
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    ThreadPool::set_global_threads(threads);
    store.invalidate();
    // Stale panel: a forward inside a pool chunk would repack it while
    // other lanes read it, so it throws instead (inline or pooled).
    EXPECT_THROW(parallel_for(4,
                              [&](std::size_t, std::size_t) {
                                (void)store.forward_matmul(x);
                              }),
                 CheckError);
    store.prepare_concurrent_forward();
    std::vector<Tensor> out(4);
    parallel_for(4, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) out[i] = store.forward_matmul(x);
    });
    for (const Tensor& y : out) EXPECT_TRUE(same_bits(y, ref));
  }
}

TEST(CrossbarStore, FusedForwardTracksWritesAndPermutations) {
  PoolGuard pool_guard;
  const Tensor init = ramp(32, 32, 0.02f);
  // IR drop on: attenuation depends on the physical cell, so a read-out
  // that loses it or reads the wrong cell under a permutation shows.
  RcsConfig cfg = clean_config();
  cfg.wire_resistance_ratio = 0.002;
  CrossbarWeightStore store(cfg, init, Rng(23));
  Rng rng(24);
  const Tensor x = Tensor::randn({3, 32}, rng);

  // Clean state first (primes the packed cache), then dirty one tile via a
  // delta — the incremental repack must track it.
  EXPECT_TRUE(matches_reference(store, x));
  Tensor delta({32, 32});
  delta.at(2, 3) = 0.05f;
  delta.at(20, 20) = -0.04f;
  store.apply_delta(delta);
  EXPECT_TRUE(matches_reference(store, x));

  // Non-identity permutations: the packed scatter must follow the logical
  // mapping.
  std::vector<std::size_t> rp(32), cp(32);
  std::iota(rp.begin(), rp.end(), 0);
  std::iota(cp.begin(), cp.end(), 0);
  std::reverse(rp.begin(), rp.end());
  std::swap(cp[0], cp[31]);
  std::swap(cp[5], cp[17]);
  store.set_permutations(rp, cp);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(matches_reference(store, x)) << "threads=" << threads;
    store.invalidate();  // the next thread count repacks every tile
  }
}

TEST(CrossbarStore, FusedForwardSurvivesCheckpointRestore) {
  const Tensor init = ramp(20, 20, 0.02f);
  CrossbarWeightStore store(clean_config(), init, Rng(25));
  store.tile(0, 0).force_fault(2, 2, FaultKind::kStuckAt1);
  store.invalidate();
  Rng rng(26);
  const Tensor x = Tensor::randn({2, 20}, rng);
  (void)store.forward_matmul(x);  // warm the packed cache

  std::stringstream ss;
  store.save(ss);
  CrossbarWeightStore restored(clean_config(), init, Rng(27));
  restored.restore(ss);
  EXPECT_TRUE(matches_reference(restored, x));
  EXPECT_TRUE(same_bits(restored.forward_matmul(x), store.forward_matmul(x)));
}

TEST(CrossbarStore, RestoreShapeMismatchLeavesStoreUntouched) {
  // A checkpoint of another shape must be rejected before any state is
  // replaced: the store keeps its target, write count and forward bits.
  CrossbarWeightStore other(clean_config(), ramp(20, 20, 0.02f), Rng(30));
  std::stringstream ss;
  other.save(ss);

  CrossbarWeightStore store(clean_config(), ramp(16, 16, 0.03f), Rng(31));
  store.tile(0, 0).force_fault(1, 1, FaultKind::kStuckAt1);
  store.invalidate();
  Rng rng(32);
  const Tensor x = Tensor::randn({3, 16}, rng);
  const Tensor target = store.target();
  const std::uint64_t writes = store.write_count();
  const Tensor out = store.forward_matmul(x);

  EXPECT_THROW(store.restore(ss), CheckError);
  EXPECT_TRUE(same_bits(store.target(), target));
  EXPECT_EQ(store.write_count(), writes);
  EXPECT_TRUE(same_bits(store.forward_matmul(x), out));
}

TEST(CrossbarStore, LoadRejectsCorruptLengthsBeforeAllocating) {
  // Layout: tag, RcsConfig, then target_ as a shape vector and a data
  // vector, each behind a u64 length. A corrupt length must throw
  // CheckError before any allocation of that size is attempted.
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(33));
  std::stringstream ss;
  store.save(ss);
  const std::string bytes = ss.str();
  const std::size_t shape_len_at = sizeof(std::uint64_t) + sizeof(RcsConfig);
  const std::size_t data_len_at = shape_len_at + 3 * sizeof(std::uint64_t);
  const auto load_with = [&](std::size_t at, std::uint64_t len) {
    std::string corrupt = bytes;
    std::memcpy(&corrupt[at], &len, sizeof(len));
    std::stringstream is(corrupt);
    (void)CrossbarWeightStore::load(is);
  };
  std::uint64_t lens[2];  // sanity: the offsets hold the two lengths
  std::memcpy(&lens[0], &bytes[shape_len_at], sizeof(lens[0]));
  std::memcpy(&lens[1], &bytes[data_len_at], sizeof(lens[1]));
  ASSERT_TRUE(lens[0] == 2 && lens[1] == 16);

  EXPECT_THROW(load_with(data_len_at, std::uint64_t{1} << 60), CheckError);
  // 2^61 + 1 u64 entries: n·8 wraps to 8 bytes, which the stream holds.
  EXPECT_THROW(load_with(shape_len_at, (std::uint64_t{1} << 61) + 1),
               CheckError);
}

TEST(CrossbarStore, FusedForwardBitExactOnNonFiniteWeights) {
  // A NaN target programs a NaN conductance, so the packed panel holds
  // non-finite weights: the fused kernel must fall back to the exact zero
  // skip (0·NaN would poison the output) on every ISA tier, and return to
  // the branch-free path once the tile is finite again.
  PoolGuard pool_guard;
  const Tensor init = ramp(40, 24, 0.03f);
  CrossbarWeightStore store(clean_config(), init, Rng(28));
  Tensor poisoned = init;
  poisoned.at(3, 5) = std::numeric_limits<float>::quiet_NaN();
  poisoned.at(33, 20) = std::numeric_limits<float>::quiet_NaN();
  store.assign(poisoned);
  ASSERT_TRUE(std::isnan(store.effective().at(3, 5)));

  Rng rng(29);
  Tensor x = Tensor::randn({9, 40}, rng);
  for (std::size_t r = 0; r < 4; ++r) x.at(r, 3) = r % 2 == 0 ? 0.0f : -0.0f;
  using gemm::detail::Isa;
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2}) {
    if (isa > gemm::detail::host_isa()) continue;
    const gemm::detail::IsaOverride tier(isa);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      store.invalidate();  // repack at this tier and thread count
      EXPECT_TRUE(matches_reference(store, x))
          << gemm::detail::isa_name(isa) << " @" << threads;
      const Tensor fused = store.forward_matmul(x);
      EXPECT_TRUE(std::isfinite(fused.at(0, 5)));  // skipped: x(0, 3) == +0
      EXPECT_TRUE(std::isfinite(fused.at(1, 5)));  // skipped: x(1, 3) == −0
      EXPECT_TRUE(std::isnan(fused.at(5, 5)));
    }
  }

  store.assign(init);
  EXPECT_TRUE(matches_reference(store, x));
  const Tensor healed = store.forward_matmul(x);
  for (std::size_t i = 0; i < healed.numel(); ++i)
    ASSERT_TRUE(std::isfinite(healed[i])) << "element " << i;
}

TEST(CrossbarStore, SyncedTargetsReadOutAsAfterALaterWrite) {
  // sync_targets_where rewrites targets, and a target is the sign hint its
  // panel slot is read out against: an SA0 weight whose old target was
  // negative must read the same bits right after the sync as after a later
  // write to another cell of its tile.
  for (const EncodingKind enc :
       {EncodingKind::kSingleCell, EncodingKind::kDifferentialPair}) {
    RcsConfig cfg = clean_config();
    cfg.encoding = enc;
    Tensor init = ramp(32, 32, 0.02f);
    init.at(0, 0) = -0.1f;
    CrossbarWeightStore store(cfg, init, Rng(34));
    store.tile(0, 0).force_fault(0, 0, FaultKind::kStuckAt0);
    store.invalidate();
    Rng rng(35);
    const Tensor x = Tensor::randn({2, 32}, rng);
    (void)store.forward_matmul(x);  // the panel holds the old sign hint

    FaultMatrix faults(32, 32);
    faults.set(0, 0, FaultKind::kStuckAt0);
    store.sync_targets_where(faults);
    EXPECT_TRUE(matches_reference(store, x));
    const Tensor synced = store.effective();

    Tensor delta({32, 32});
    delta.at(5, 5) = 0.05f;  // same tile (0,0), another cell
    store.apply_delta(delta);
    const Tensor later = store.effective();
    // Every weight but the written one reads the same bits, the synced
    // SA0 weight's zero included.
    Tensor expected = synced;
    expected.at(5, 5) = later.at(5, 5);
    EXPECT_TRUE(same_bits(expected, later));
    EXPECT_TRUE(matches_reference(store, x));
  }
}

}  // namespace
}  // namespace refit
