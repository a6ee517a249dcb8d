// Seeded model test of CrossbarWeightStore's one writer and its
// write-through panel: random sequences of every store operation, after
// each of which forward_matmul and effective() must be bit-identical to
// the independent reference of tests/store_reference.hpp. Covers both
// encodings, IR drop, NaN weights, wear-out during an update, active
// permutations, and 1 vs 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "detect/quiescent_detector.hpp"
#include "inline_call_probe.hpp"
#include "rcs/crossbar_store.hpp"
#include "store_reference.hpp"

namespace refit {
namespace {

/// Restores the default global pool when a test is done overriding it.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct ModelCase {
  EncodingKind encoding;
  double wire_resistance_ratio;
  bool limited_endurance;
};

std::string case_name(const ModelCase& mc) {
  return std::string(mc.encoding == EncodingKind::kSingleCell ? "single"
                                                              : "diff") +
         (mc.wire_resistance_ratio > 0.0 ? "+ir" : "") +
         (mc.limited_endurance ? "+wear" : "");
}

// 130×200 on 64×64 tiles: a 3×4 grid with 2-row and 8-column edge tiles,
// enough cells that the writer fans out at 4 threads.
constexpr std::size_t kRows = 130;
constexpr std::size_t kCols = 200;

RcsConfig model_config(const ModelCase& mc) {
  RcsConfig cfg;
  cfg.tile_rows = 64;
  cfg.tile_cols = 64;
  cfg.encoding = mc.encoding;
  cfg.wire_resistance_ratio = mc.wire_resistance_ratio;
  cfg.fabrication.fraction = 0.05;
  // A budget of a handful of writes wears cells out during the updates.
  if (mc.limited_endurance) cfg.endurance = EnduranceModel::gaussian(6, 2);
  cfg.noise.drift_rate = 0.05;
  cfg.noise.soft_fault_rate = 0.01;
  return cfg;
}

Tensor random_matrix(Rng& rng, double density, double sigma) {
  Tensor t({kRows, kCols});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (rng.bernoulli(density)) t[i] = static_cast<float>(rng.normal(0, sigma));
  }
  return t;
}

std::vector<std::size_t> random_perm(Rng& rng, std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.uniform_index(i)]);
  }
  return p;
}

/// One operation of the model, drawn from `rng`, applied to `store`.
/// `snapshot` holds the last save() for the restore operation.
void apply_random_op(CrossbarWeightStore& store, Rng& rng,
                     std::string& snapshot) {
  const QuiescentVoltageDetector detector{DetectorConfig{}};
  const std::size_t op = rng.uniform_index(9);
  switch (op) {
    case 0: {  // sparse delta, occasionally poisoned with NaN
      Tensor d = random_matrix(rng, 0.2, 0.02);
      if (rng.bernoulli(0.3)) {
        d[rng.uniform_index(d.numel())] =
            std::numeric_limits<float>::quiet_NaN();
      }
      store.apply_delta(d);
      break;
    }
    case 1:
      store.apply_delta_full(random_matrix(rng, 0.5, 0.02));
      break;
    case 2: {  // assign: a few new values, NaNs healed or introduced
      Tensor w = store.target();
      for (std::size_t n = 0; n < 200; ++n) {
        float& v = w[rng.uniform_index(w.numel())];
        v = rng.bernoulli(0.02) ? std::numeric_limits<float>::quiet_NaN()
                                : static_cast<float>(rng.normal(0, 0.05));
      }
      for (std::size_t i = 0; i < w.numel(); ++i) {
        if (std::isnan(w[i]) && rng.bernoulli(0.5)) w[i] = 0.01f;
      }
      store.assign(w);
      break;
    }
    case 3:
      store.tick_noise();
      break;
    case 4:
      (void)detector.detect_store(store);
      break;
    case 5:
      store.set_permutations(random_perm(rng, kRows), random_perm(rng, kCols));
      break;
    case 6:
      store.sync_targets_where(store.true_fault_matrix());
      break;
    case 7: {
      std::stringstream ss;
      store.save(ss);
      snapshot = ss.str();
      break;
    }
    default:
      if (!snapshot.empty()) {
        std::stringstream ss(snapshot);
        store.restore(ss);
      }
      break;
  }
}

struct ModelRun {
  Tensor effective;
  Tensor forward;
  std::uint64_t writes = 0;
  std::size_t faults = 0;
};

/// Runs one seeded sequence at `threads` on two stores built alike: one
/// checked after every operation (so every write lands in a clean panel)
/// and one checked only every third (so writes also land in stale tiles).
ModelRun run_model(const ModelCase& mc, std::size_t threads,
                   std::uint64_t seed, std::size_t ops) {
  ThreadPool::set_global_threads(threads);
  Rng wrng(seed);
  const Tensor init = random_matrix(wrng, 1.0, 0.05);
  CrossbarWeightStore eager(model_config(mc), init, Rng(seed + 1));
  CrossbarWeightStore lazy(model_config(mc), init, Rng(seed + 1));
  Rng xrng(seed + 2);
  Tensor x = Tensor::randn({4, kRows}, xrng);
  // An all-zero input row: the exact zero skip must hide every NaN weight
  // there, which only holds when the panel knows it is non-finite.
  for (std::size_t c = 0; c < kRows; ++c) x.at(0, c) = 0.0f;
  Rng op_eager(seed + 3), op_lazy(seed + 3);
  std::string snap_eager, snap_lazy;
  for (std::size_t n = 0; n < ops; ++n) {
    SCOPED_TRACE("op " + std::to_string(n));
    apply_random_op(eager, op_eager, snap_eager);
    EXPECT_TRUE(matches_reference(eager, x));
    apply_random_op(lazy, op_lazy, snap_lazy);
    if (n % 3 == 2) {
      EXPECT_TRUE(matches_reference(lazy, x));
      EXPECT_TRUE(same_bits(lazy.effective(), eager.effective()));
    }
  }
  EXPECT_EQ(lazy.write_count(), eager.write_count());
  return {eager.effective(), eager.forward_matmul(x), eager.write_count(),
          eager.fault_count()};
}

TEST(StoreModel, RandomOperationsMatchReference) {
  PoolGuard guard;
  const ModelCase cases[] = {
      {EncodingKind::kSingleCell, 0.0, false},
      {EncodingKind::kSingleCell, 0.002, true},
      {EncodingKind::kDifferentialPair, 0.0, true},
      {EncodingKind::kDifferentialPair, 0.002, false},
  };
  for (const ModelCase& mc : cases) {
    SCOPED_TRACE(case_name(mc));
    const ModelRun one = run_model(mc, 1, 101, 30);
    const ModelRun four = run_model(mc, 4, 101, 30);
    EXPECT_TRUE(same_bits(one.effective, four.effective));
    EXPECT_TRUE(same_bits(one.forward, four.forward));
    EXPECT_EQ(one.writes, four.writes);
    EXPECT_EQ(one.faults, four.faults);
  }
}

TEST(StoreModel, WriterVisitsCellsInLogicalOrderUnderPermutations) {
  // Each tile draws its write noise in the order its cells are visited.
  // Under a permutation that reverses the rows of a tile, a physical-order
  // visit would hand the noise draws to other cells; the store must match
  // a twin that programs the same weights one logical cell at a time.
  PoolGuard guard;
  ThreadPool::set_global_threads(4);
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.inject_fabrication = false;
  cfg.write_noise_sigma = 0.05;
  Rng wrng(7);
  Tensor init({32, 32});
  for (std::size_t i = 0; i < init.numel(); ++i)
    init[i] = static_cast<float>(wrng.normal(0, 0.05));
  CrossbarWeightStore bulk(cfg, init, Rng(8));
  CrossbarWeightStore single(cfg, init, Rng(8));
  std::vector<std::size_t> rp(32), cp(32);
  std::iota(rp.begin(), rp.end(), 0);
  std::iota(cp.begin(), cp.end(), 0);
  std::reverse(rp.begin(), rp.end());
  std::reverse(cp.begin(), cp.begin() + 16);
  bulk.set_permutations(rp, cp);
  single.set_permutations(rp, cp);

  Tensor delta({32, 32});
  for (std::size_t i = 0; i < delta.numel(); ++i)
    delta[i] = static_cast<float>(wrng.normal(0, 0.01));
  bulk.apply_delta(delta);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      Tensor one({32, 32});
      one.at(i, j) = delta.at(i, j);
      single.apply_delta(one);
    }
  }
  Rng xrng(9);
  const Tensor x = Tensor::randn({2, 32}, xrng);
  EXPECT_TRUE(matches_reference(bulk, x));
  EXPECT_TRUE(same_bits(bulk.effective(), single.effective()));
  for (std::size_t ti = 0; ti < 2; ++ti) {
    for (std::size_t tj = 0; tj < 2; ++tj) {
      for (std::size_t r = 0; r < 16; ++r) {
        for (std::size_t c = 0; c < 16; ++c) {
          ASSERT_EQ(bulk.tile(ti, tj).conductance(r, c),
                    single.tile(ti, tj).conductance(r, c))
              << "tile " << ti << "," << tj << " cell " << r << "," << c;
        }
      }
    }
  }
}

TEST(StoreModel, ApplyDeltaFansOutAcrossTiles) {
  // Four full 128×128 tiles: a pooled apply_delta must leave the caller's
  // lane, and still program exactly what the 1-thread run programs.
  PoolGuard guard;
  RcsConfig cfg;
  cfg.fabrication.fraction = 0.05;
  cfg.endurance = EnduranceModel::gaussian(3, 1);
  Rng wrng(31);
  Tensor init({256, 256});
  Tensor delta({256, 256});
  for (std::size_t i = 0; i < init.numel(); ++i) {
    init[i] = static_cast<float>(wrng.normal(0, 0.05));
    if (wrng.bernoulli(0.3)) {
      delta[i] = static_cast<float>(wrng.normal(0, 0.01));
    }
  }
  Rng xrng(32);
  const Tensor x = Tensor::randn({2, 256}, xrng);
  const auto run = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    CrossbarWeightStore store(cfg, init, Rng(33));
    (void)store.forward_matmul(x);  // clean panels: writes go through
    for (int step = 0; step < 4; ++step) {
      const InlineCallProbe probe;
      store.apply_delta(delta);
      if (threads > 1 && probe.available()) {
        EXPECT_GE(probe.calls(), 1u);
        EXPECT_EQ(probe.inline_calls(), 0u) << "apply_delta ran inline";
      }
    }
    EXPECT_TRUE(matches_reference(store, x)) << threads << " threads";
    return std::make_tuple(store.effective(), store.write_count(),
                           store.wearout_fault_count());
  };
  const auto [eff1, w1, wo1] = run(1);
  const auto [eff4, w4, wo4] = run(4);
  EXPECT_TRUE(same_bits(eff1, eff4));
  EXPECT_EQ(w1, w4);
  EXPECT_EQ(wo1, wo4);
  EXPECT_GT(wo1, 0u);  // the updates wore cells out
}

}  // namespace
}  // namespace refit
