// Tests for the parallel compute backend (common/thread_pool.hpp) and its
// consumers: pooled tensor kernels must be bit-identical to the serial
// path at any thread count, the crossbar store's writes must keep clean
// panels current without a repack, and the store's running write/fault
// counters must always match a fresh tile scan.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detect/quiescent_detector.hpp"
#include "inline_call_probe.hpp"
#include "obs/metrics.hpp"
#include "rcs/crossbar_store.hpp"
#include "store_reference.hpp"
#include "tensor/ops.hpp"

namespace refit {
namespace {

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Restores the default global pool when a test is done overriding it.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

TEST(Backend, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Backend, ParallelForHandlesSmallAndEmptyRanges) {
  ThreadPool pool(8);
  int calls = 0;
  // n == 0: the body never runs, so the shared increment is unreachable.
  // refit-audit: allow(pool-capture) refit-flow: allow(parallel-shared-write)
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<std::atomic<int>> hits(3);  // fewer items than lanes
  pool.parallel_for(3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Backend, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t b, std::size_t) {
                                   if (b > 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool survives a throwing job.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    n += static_cast<int>(e - b);  // refit-audit: allow(pool-capture) — atomic
  });
  EXPECT_EQ(n.load(), 10);
}

TEST(Backend, ThreadCountParserAcceptsOnlyWholeNumbersUpToTheCap) {
  // Parser only: no pool is ever built from these values.
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("12"), 12u);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxThreads).c_str()),
            kMaxThreads);
  for (const char* bad : {"12abc", "0", "-1", "", "+4", " 4", "4 ", "0x10",
                          "99999999999999999999999999"}) {
    EXPECT_THROW((void)parse_thread_count(bad), CheckError) << "'" << bad << "'";
  }
  EXPECT_THROW(
      (void)parse_thread_count(std::to_string(kMaxThreads + 1).c_str()),
      CheckError);
  EXPECT_THROW((void)parse_thread_count(nullptr), CheckError);
}

TEST(Backend, GemmVariantsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(42);
  // Odd sizes so chunk boundaries don't align with anything.
  const Tensor a = Tensor::randn({67, 45}, rng);
  const Tensor b = Tensor::randn({45, 53}, rng);
  const Tensor at = Tensor::randn({45, 67}, rng);
  const Tensor bt = Tensor::randn({53, 45}, rng);

  ThreadPool::set_global_threads(1);
  const Tensor mm = matmul(a, b);
  const Tensor tn = matmul_tn(at, b);
  const Tensor nt = matmul_nt(a, bt);
  for (const std::size_t threads : {2UL, 5UL}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(same_bits(mm, matmul(a, b))) << threads << " threads";
    EXPECT_TRUE(same_bits(tn, matmul_tn(at, b))) << threads << " threads";
    EXPECT_TRUE(same_bits(nt, matmul_nt(a, bt))) << threads << " threads";
  }
}

TEST(Backend, ConvKernelsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(43);
  const Tensor img = Tensor::randn({5, 3, 9, 9}, rng);
  ConvGeometry g;
  g.in_channels = 3;
  g.in_h = g.in_w = 9;
  g.kernel = 3;
  g.pad = 1;

  ThreadPool::set_global_threads(1);
  const Tensor cols = im2col(img, g);
  const Tensor folded = col2im(cols, 5, g);
  std::vector<std::size_t> argmax1;
  const Tensor pooled = maxpool2d(img, 2, 2, argmax1);
  for (const std::size_t threads : {2UL, 5UL}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(same_bits(cols, im2col(img, g)));
    EXPECT_TRUE(same_bits(folded, col2im(cols, 5, g)));
    std::vector<std::size_t> argmax;
    EXPECT_TRUE(same_bits(pooled, maxpool2d(img, 2, 2, argmax)));
    EXPECT_EQ(argmax, argmax1);
  }
}

RcsConfig noisy_config() {
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.write_noise_sigma = 0.02;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.1;
  cfg.endurance = EnduranceModel::gaussian(4.0, 2.0);
  return cfg;
}

Tensor random_weights(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn({r, c}, rng, 0.1f);
}

TEST(Backend, StoreRebuildBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // Construction, delta application, and repacking all draw per-tile RNG
  // or fan out per tile, so the whole store lifecycle must be invariant to
  // the pool size — and match the independent reference at every size.
  Rng xrng(12);
  const Tensor x = Tensor::randn({4, 50}, xrng);
  auto run = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    CrossbarWeightStore store(noisy_config(), random_weights(50, 60, 7),
                              Rng(9));
    EXPECT_TRUE(matches_reference(store, x)) << threads << " threads";
    Tensor first = store.effective();
    Tensor delta({50, 60});
    Rng drng(11);
    for (std::size_t i = 0; i < delta.numel(); ++i) {
      if (drng.bernoulli(0.05)) {
        delta[i] = static_cast<float>(drng.normal(0.0, 0.01));
      }
    }
    store.apply_delta(delta);
    EXPECT_TRUE(matches_reference(store, x)) << threads << " threads";
    Tensor second = store.effective();
    return std::make_tuple(std::move(first), std::move(second),
                           store.write_count(), store.fault_count());
  };
  const auto [eff1a, eff1b, w1, f1] = run(1);
  for (const std::size_t threads : {2UL, 5UL}) {
    const auto [effa, effb, w, f] = run(threads);
    EXPECT_TRUE(same_bits(eff1a, effa)) << threads << " threads";
    EXPECT_TRUE(same_bits(eff1b, effb)) << threads << " threads";
    EXPECT_EQ(w1, w) << threads << " threads";
    EXPECT_EQ(f1, f) << threads << " threads";
  }
}

TEST(Backend, IncrementalRepackSkipsCleanTiles) {
  PoolGuard guard;
  ThreadPool::set_global_threads(1);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  if (!registry.enabled()) GTEST_SKIP() << "metrics compiled out";
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  CrossbarWeightStore store(cfg, random_weights(32, 32, 3), Rng(4));
  Rng xrng(5);
  const Tensor x = Tensor::randn({2, 32}, xrng);
  // Tiles the next forward repacks, read off store.fused_pack_tiles.
  const auto repacked_by_forward = [&] {
    const auto packed = [&] {
      for (const auto& m : registry.snapshot())
        if (m.name == "store.fused_pack_tiles") return m.count;
      return std::uint64_t{0};
    };
    const std::uint64_t before = packed();
    (void)store.forward_matmul(x);
    return packed() - before;
  };
  EXPECT_EQ(repacked_by_forward(), 4u);  // a fresh store packs every tile

  Tensor delta({32, 32});
  delta.at(2, 3) = 0.05f;  // logical (2,3) lives on tile (0,0): identity perm
  store.apply_delta(delta);
  // The write's read-out went straight into the clean panel.
  EXPECT_EQ(repacked_by_forward(), 0u);
  EXPECT_TRUE(matches_reference(store, x));
  store.invalidate();
  EXPECT_EQ(repacked_by_forward(), 4u);
  // A write that reads out non-finite falls back to a repack of its tile.
  delta.at(2, 3) = std::numeric_limits<float>::quiet_NaN();
  store.apply_delta(delta);
  EXPECT_EQ(repacked_by_forward(), 1u);
  EXPECT_EQ(repacked_by_forward(), 0u);  // clean
  registry.set_enabled(was_enabled);
}

TEST(Backend, RunningCountersMatchFreshTileScan) {
  PoolGuard guard;
  ThreadPool::set_global_threads(3);
  CrossbarWeightStore store(noisy_config(), random_weights(48, 48, 5),
                            Rng(6));
  Rng drng(13);
  for (int round = 0; round < 5; ++round) {
    Tensor delta({48, 48});
    for (std::size_t i = 0; i < delta.numel(); ++i) {
      if (drng.bernoulli(0.3)) {
        delta[i] = static_cast<float>(drng.normal(0.0, 0.02));
      }
    }
    store.apply_delta(delta);  // endurance is tight: wear-out faults accrue
  }

  std::uint64_t writes = 0;
  std::size_t faults = 0, wearout = 0;
  for (std::size_t ti = 0; ti < store.tile_grid_rows(); ++ti) {
    for (std::size_t tj = 0; tj < store.tile_grid_cols(); ++tj) {
      writes += store.tile(ti, tj).total_writes();
      faults += store.tile(ti, tj).fault_count();
      wearout += store.tile(ti, tj).wearout_fault_count();
    }
  }
  EXPECT_GT(wearout, 0u) << "test should exercise wear-out accounting";
  EXPECT_EQ(store.write_count(), writes);
  EXPECT_EQ(store.fault_count(), faults);
  EXPECT_EQ(store.wearout_fault_count(), wearout);
}

TEST(Backend, DetectStoreBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  for (const bool classify : {false, true}) {
    SCOPED_TRACE(classify ? "classify_soft" : "hard only");
    DetectorConfig dcfg;
    dcfg.selected_cells_only = true;
    dcfg.classify_soft = classify;
    // Six 16x16 tiles: the detection grain must fan them out even though
    // the cheap visitors (pack, programming) keep stores this small inline.
    auto run = [&](std::size_t threads) {
      ThreadPool::set_global_threads(threads);
      RcsConfig cfg;
      cfg.tile_rows = 16;
      cfg.tile_cols = 16;
      cfg.inject_fabrication = true;
      cfg.fabrication.fraction = 0.1;
      CrossbarWeightStore store(cfg, random_weights(48, 32, 21), Rng(17));
      const QuiescentVoltageDetector det(dcfg);
      const InlineCallProbe probe;
      DetectionOutcome out = det.detect_store(store);
      if (threads > 1 && probe.available()) {
        EXPECT_GE(probe.calls(), 1u);
        EXPECT_EQ(probe.inline_calls(), 0u) << "detect_store ran inline";
      }
      return out;
    };
    const DetectionOutcome ref = run(1);
    for (const std::size_t threads : {2UL, 5UL}) {
      const DetectionOutcome out = run(threads);
      EXPECT_EQ(out.cycles, ref.cycles);
      EXPECT_EQ(out.cells_tested, ref.cells_tested);
      EXPECT_EQ(out.device_writes, ref.device_writes);
      EXPECT_EQ(out.adc_reads, ref.adc_reads);
      EXPECT_EQ(out.cells_retested, ref.cells_retested);
      EXPECT_EQ(out.predicted.cells(), ref.predicted.cells());
      EXPECT_EQ(out.classified_soft.cells(), ref.classified_soft.cells());
      EXPECT_EQ(out.truth_before.cells(), ref.truth_before.cells());
    }
  }
}

}  // namespace
}  // namespace refit
