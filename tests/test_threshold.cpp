// Tests for threshold training (src/core/threshold_trainer.hpp, Alg. 1).
#include "core/threshold_trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/remap.hpp"
#include "inline_call_probe.hpp"
#include "nn/dense.hpp"
#include "rcs/crossbar_store.hpp"
#include "rcs/rcs_system.hpp"

namespace refit {
namespace {

/// A dense layer with a controllable gradient.
struct Fixture {
  Rng rng{1};
  Dense layer{"fc", 4, 4, software_store_factory(), rng};
  std::vector<Param> params;

  Fixture() { layer.collect_params(params); }

  void set_grad(const Tensor& g) { *params[0].grad = g; }
};

TEST(Threshold, ZeroRatioAppliesEverything) {
  Fixture f;
  Tensor g({4, 4}, 0.001f);
  f.set_grad(g);
  const ThresholdTrainer t({0.0, 0.0, true}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(f.params, 0);
  EXPECT_EQ(st.writes_issued, 16u);
  EXPECT_EQ(st.writes_suppressed, 0u);
}

TEST(Threshold, SuppressesSmallUpdates) {
  Fixture f;
  Tensor g({4, 4}, 0.0001f);
  g.at(0, 0) = 1.0f;  // one dominant update
  f.set_grad(g);
  const Tensor before = f.params[0].store->target();
  const ThresholdTrainer t({0.01, 0.0, true}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(f.params, 0);
  EXPECT_EQ(st.writes_issued, 1u);
  EXPECT_EQ(st.writes_suppressed, 15u);
  EXPECT_NEAR(st.dw_max, 1.0, 1e-6);
  const Tensor& after = f.params[0].store->target();
  EXPECT_NEAR(after.at(0, 0), before.at(0, 0) - 1.0f, 1e-5);
  EXPECT_EQ(after.at(1, 1), before.at(1, 1));  // suppressed
}

TEST(Threshold, ThresholdIsRelativeToDwMax) {
  Fixture f;
  Tensor g({4, 4}, 0.0f);
  g.at(0, 0) = 1.0f;
  g.at(0, 1) = 0.02f;   // 2 % of max → kept at θ=0.01
  g.at(0, 2) = 0.005f;  // 0.5 % of max → suppressed
  f.set_grad(g);
  const ThresholdTrainer t({0.01, 0.0, true}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(f.params, 0);
  EXPECT_EQ(st.writes_issued, 2u);
  EXPECT_EQ(st.writes_suppressed, 1u);
}

TEST(Threshold, BiasAlwaysUpdated) {
  Fixture f;
  Tensor g({4, 4}, 0.0f);
  f.set_grad(g);
  (*f.params[1].grad)[0] = 1.0f;  // bias gradient
  const float b0 = (*f.params[1].value)[0];
  const ThresholdTrainer t({0.01, 0.0, true}, LrSchedule{0.5, 1.0, 0, 1e-4});
  t.step(f.params, 0);
  EXPECT_NEAR((*f.params[1].value)[0], b0 - 0.5f, 1e-6);
}

TEST(Threshold, PruneMaskBlocksUpdates) {
  Rng rng(2);
  Network net;  // minimal network wrapper to get a PruneState
  net.add(std::make_unique<Dense>("fc", 4, 4, software_store_factory(), rng));
  PruneConfig pcfg;
  pcfg.fc_sparsity = 0.5;
  const PruneState prune = PruneState::compute(net, pcfg);
  std::vector<Param> params = net.params();
  Tensor g({4, 4}, 1.0f);
  *params[0].grad = g;
  // Tiny nonzero ratio: threshold mode (zero-delta cells are skipped, not
  // refresh-written as in the original full-array scheme).
  const ThresholdTrainer t({1e-9, 0.0, true}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(params, 0, &prune);
  EXPECT_EQ(st.writes_issued, 8u);  // half masked away
}

TEST(Threshold, OriginalSchemeWritesWholeArray) {
  // With threshold_ratio == 0 (the paper's original on-line scheme) every
  // cell receives a programming pulse each step, zero deltas included.
  Fixture f;
  Tensor g({4, 4}, 0.0f);
  g.at(0, 0) = 1.0f;
  f.set_grad(g);
  const ThresholdTrainer t({0.0, 0.0, true}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(f.params, 0);
  EXPECT_EQ(st.writes_issued, 16u);
  EXPECT_EQ(st.updates_zero, 0u);
}

TEST(Threshold, DetectedFaultyCellsSkipWrites) {
  RcsConfig cfg;
  cfg.tile_rows = 8;
  cfg.tile_cols = 8;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  Rng rng(3);
  Network net;
  RcsSystem sys(cfg, Rng(4));
  net.add(std::make_unique<Dense>("fc", 4, 4, sys.factory(), rng));
  std::vector<Param> params = net.params();
  auto* store = dynamic_cast<CrossbarWeightStore*>(params[0].store);
  ASSERT_NE(store, nullptr);

  DetectedFaults detected;
  FaultMatrix fm(4, 4);
  fm.set(1, 1, FaultKind::kStuckAt0);
  detected.emplace(params[0].store, fm);

  Tensor g({4, 4}, 1.0f);
  *params[0].grad = g;
  const ThresholdTrainer t({0.0, 0.0, true}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(params, 0, nullptr, &detected);
  EXPECT_EQ(st.writes_issued, 15u);
  EXPECT_EQ(st.writes_suppressed, 1u);
}

TEST(Threshold, WearLevelingRaisesThresholdForHotCells) {
  RcsConfig cfg;
  cfg.tile_rows = 8;
  cfg.tile_cols = 8;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  Rng rng(5);
  Network net;
  RcsSystem sys(cfg, Rng(6));
  net.add(std::make_unique<Dense>("fc", 2, 2, sys.factory(), rng));
  std::vector<Param> params = net.params();
  auto* store = dynamic_cast<CrossbarWeightStore*>(params[0].store);
  // Make cell (0,0) much hotter than the rest.
  Tensor hot({2, 2});
  hot.at(0, 0) = 0.001f;
  for (int i = 0; i < 50; ++i) store->apply_delta(hot);

  // Gradient just above the flat threshold for every cell.
  Tensor g({2, 2}, 0.02f);
  g.at(1, 1) = 1.0f;
  *params[0].grad = g;
  const ThresholdTrainer flat({0.01, 0.0, true},
                              LrSchedule{1.0, 1.0, 0, 1e-4});
  const ThresholdTrainer leveled({0.01, 50.0, true},
                                 LrSchedule{1.0, 1.0, 0, 1e-4});
  auto p2 = params;
  const auto st_flat = flat.step(params, 0);
  EXPECT_EQ(st_flat.writes_issued, 4u);
  // Re-prime the gradient (step cleared nothing, grads persist, but the
  // weights moved; that is fine for counting).
  *p2[0].grad = g;
  const auto st_lvl = leveled.step(p2, 0);
  EXPECT_LT(st_lvl.writes_issued, 4u);  // the hot cell got filtered
}

TEST(Threshold, PerLayerMaxMode) {
  Rng rng(7);
  Network net;
  net.add(std::make_unique<Dense>("a", 2, 2, software_store_factory(), rng));
  net.add(std::make_unique<Dense>("b", 2, 2, software_store_factory(), rng));
  std::vector<Param> params = net.params();
  Tensor big({2, 2}, 1.0f);
  Tensor small({2, 2}, 0.005f);
  *params[0].grad = big;    // layer a
  *params[2].grad = small;  // layer b
  // Global max: layer b's 0.005 < 0.01·1.0 → all suppressed.
  const ThresholdTrainer global_t({0.01, 0.0, true},
                                  LrSchedule{1.0, 1.0, 0, 1e-4});
  auto pg = net.params();
  *pg[0].grad = big;
  *pg[2].grad = small;
  const auto st_g = global_t.step(pg, 0);
  EXPECT_EQ(st_g.writes_issued, 4u);
  // Per-layer max: layer b's max is 0.005, so its own threshold is tiny →
  // all 8 written.
  net.zero_grad();
  auto pl = net.params();
  *pl[0].grad = big;
  *pl[2].grad = small;
  const ThresholdTrainer local_t({0.01, 0.0, false},
                                 LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st_l = local_t.step(pl, 0);
  EXPECT_EQ(st_l.writes_issued, 8u);
}

TEST(Threshold, PooledStepMatchesSerial) {
  // A 784×100 crossbar layer, so both filter passes and the store's writer
  // fan out at 4 threads, with every per-cell option on: a prune mask,
  // detected-fault skipping and wear leveling.
  struct Result {
    ThresholdStepStats stats;
    Tensor target;
    std::uint64_t writes = 0;
  };
  const auto run = [](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    RcsConfig cfg;
    cfg.fabrication.fraction = 0.05;
    Rng rng(11);
    Network net;
    RcsSystem sys(cfg, Rng(12));
    net.add(std::make_unique<Dense>("fc", 784, 100, sys.factory(), rng));
    std::vector<Param> params = net.params();
    auto* store = dynamic_cast<CrossbarWeightStore*>(params[0].store);
    EXPECT_NE(store, nullptr);
    PruneConfig pcfg;
    pcfg.fc_sparsity = 0.3;
    const PruneState prune = PruneState::compute(net, pcfg);
    const PruneMask* mask = prune.mask_for(params[0].store);
    EXPECT_NE(mask, nullptr);

    // Hot cells in the first rows, so wear leveling raises their threshold.
    Tensor hot({784, 100});
    for (std::size_t j = 0; j < 100; ++j) hot.at(j % 8, j) = 0.001f;
    for (int i = 0; i < 6; ++i) store->apply_delta(hot);

    Rng grng(13);
    Tensor& g = *params[0].grad;
    for (std::size_t i = 0; i < g.numel(); ++i)
      g[i] = static_cast<float>(grng.normal(0.0, 0.1));
    // The step's largest update sits in a row led by a NaN update: the
    // row's max must start from 0, as Tensor::max_abs does, or it is lost.
    std::size_t r = 0;
    while (mask->at(r, 0) || mask->at(r, 5)) ++r;
    g.at(r, 0) = std::numeric_limits<float>::quiet_NaN();
    g.at(r, 5) = 10.0f;

    FaultMatrix fm(784, 100);
    for (std::size_t c = 0; c < 784 * 100; c += 37)
      fm.set(c / 100, c % 100, FaultKind::kStuckAt0);
    DetectedFaults detected;
    detected.emplace(params[0].store, fm);

    const ThresholdTrainer t({0.01, 2.0, true}, LrSchedule{1.0, 1.0, 0, 1e-4});
    const Tensor before = store->target();
    const InlineCallProbe probe;
    Result res;
    res.stats = t.step(params, 0, &prune, &detected);
    if (threads > 1 && probe.available()) {
      EXPECT_GE(probe.calls(), 3u);  // two filter passes and the writer
      EXPECT_EQ(probe.inline_calls(), 0u) << "the filter ran inline";
    }
    for (std::size_t e = 0; e < before.numel(); ++e) {
      if (mask->pruned[e]) {
        EXPECT_EQ(store->target()[e], before[e]) << e;
      }
    }
    res.target = store->target();
    res.writes = store->write_count();
    return res;
  };
  const Result one = run(1);
  const Result four = run(4);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(one.stats.dw_max, 10.0);
  EXPECT_GT(one.stats.writes_suppressed, 0u);
  EXPECT_EQ(one.stats.writes_issued, four.stats.writes_issued);
  EXPECT_EQ(one.stats.writes_suppressed, four.stats.writes_suppressed);
  EXPECT_EQ(one.stats.updates_zero, four.stats.updates_zero);
  EXPECT_EQ(one.stats.dw_max, four.stats.dw_max);
  EXPECT_EQ(one.writes, four.writes);
  ASSERT_EQ(one.target.numel(), four.target.numel());
  EXPECT_EQ(std::memcmp(one.target.data(), four.target.data(),
                        one.target.numel() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace refit
