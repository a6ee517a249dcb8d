// Network container + end-to-end software training tests: the MLP and the
// VGG-mini CNN must actually learn a separable task.
#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "inline_call_probe.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "rcs/rcs_system.hpp"

namespace refit {
namespace {

/// Tiny 2-class task: class = sign of the first input coordinate.
void make_toy(Rng& rng, std::size_t n, Tensor& x,
              std::vector<std::uint8_t>& y) {
  x = Tensor::randn({n, 4}, rng);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = x.at(i, 0) > 0.0f ? 1 : 0;
}

TEST(Network, ForwardOnEmptyThrows) {
  Network net;
  Tensor x({1, 2});
  EXPECT_THROW(net.forward(x), CheckError);
}

TEST(Network, ParamsCollectsAllLayers) {
  Rng rng(1);
  Network net = make_mlp({4, 8, 2}, software_store_factory(), rng);
  const auto params = net.params();
  EXPECT_EQ(params.size(), 4u);  // 2 dense layers × (W, b)
  EXPECT_EQ(net.matrix_layers().size(), 2u);
}

TEST(Network, WeightCount) {
  Rng rng(2);
  Network net = make_mlp({10, 5, 3}, software_store_factory(), rng);
  EXPECT_EQ(net.weight_count(), 10u * 5 + 5 * 3);
}

TEST(Network, MlpLearnsToyTask) {
  Rng rng(3);
  Network net = make_mlp({4, 16, 2}, software_store_factory(), rng);
  Tensor x;
  std::vector<std::uint8_t> y;
  make_toy(rng, 256, x, y);

  const Sgd sgd(LrSchedule{0.1, 1.0, 0, 1e-4});
  for (int iter = 0; iter < 300; ++iter) {
    Tensor logits = net.forward(x, true);
    const LossResult loss = softmax_cross_entropy(logits, y);
    net.backward(loss.grad_logits);
    auto params = net.params();
    sgd.step(params, static_cast<std::size_t>(iter));
    net.zero_grad();
  }
  EXPECT_GT(net.evaluate(x, y), 0.95);
}

TEST(Network, SgdReducesLoss) {
  Rng rng(4);
  Network net = make_mlp({4, 8, 2}, software_store_factory(), rng);
  Tensor x;
  std::vector<std::uint8_t> y;
  make_toy(rng, 64, x, y);
  const Sgd sgd(LrSchedule{0.05, 1.0, 0, 1e-4});
  const double loss0 =
      softmax_cross_entropy(net.forward(x, false), y).loss;
  for (int iter = 0; iter < 100; ++iter) {
    Tensor logits = net.forward(x, true);
    const LossResult loss = softmax_cross_entropy(logits, y);
    net.backward(loss.grad_logits);
    auto params = net.params();
    sgd.step(params, 0);
    net.zero_grad();
  }
  const double loss1 =
      softmax_cross_entropy(net.forward(x, false), y).loss;
  EXPECT_LT(loss1, loss0 * 0.5);
}

TEST(LrSchedule, StepDecay) {
  const LrSchedule s{0.1, 0.5, 100, 1e-4};
  EXPECT_DOUBLE_EQ(s.at(0), 0.1);
  EXPECT_DOUBLE_EQ(s.at(99), 0.1);
  EXPECT_DOUBLE_EQ(s.at(100), 0.05);
  EXPECT_DOUBLE_EQ(s.at(250), 0.025);
}

TEST(LrSchedule, Floor) {
  const LrSchedule s{0.1, 0.1, 1, 1e-3};
  EXPECT_DOUBLE_EQ(s.at(10), 1e-3);
}

TEST(LrSchedule, ConstantWhenDisabled) {
  const LrSchedule s{0.2, 0.5, 0, 1e-4};
  EXPECT_DOUBLE_EQ(s.at(1000000), 0.2);
}

TEST(Models, VggMiniShapes) {
  Rng rng(5);
  VggMiniConfig cfg;
  cfg.in_hw = 16;
  Network net = make_vgg_mini(cfg, software_store_factory(),
                              software_store_factory(), rng);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  Tensor logits = net.forward(x, false);
  EXPECT_EQ(logits.shape(), (Shape{2, 10}));
  // 4 conv + 3 fc matrix layers by default.
  EXPECT_EQ(net.matrix_layers().size(), 7u);
}

TEST(Models, VggMiniBackwardRuns) {
  Rng rng(6);
  VggMiniConfig cfg;
  cfg.in_hw = 8;
  cfg.conv_channels = {8, 8};
  cfg.pool_after = {0, 1};
  cfg.fc_hidden = {16};
  Network net = make_vgg_mini(cfg, software_store_factory(),
                              software_store_factory(), rng);
  Tensor x = Tensor::randn({4, 3, 8, 8}, rng);
  Tensor logits = net.forward(x, true);
  const LossResult loss = softmax_cross_entropy(logits, {0, 1, 2, 3});
  Tensor gx = net.backward(loss.grad_logits);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Models, MlpRequiresTwoDims) {
  Rng rng(7);
  EXPECT_THROW(make_mlp({5}, software_store_factory(), rng), CheckError);
}

TEST(Vgg11Preset, TopologyMatchesPaper) {
  const VggMiniConfig cfg = vgg11_config();
  EXPECT_EQ(cfg.conv_channels.size(), 8u);  // 8 Conv layers
  EXPECT_EQ(cfg.fc_hidden.size(), 2u);      // +1 output = 3 FC layers
  EXPECT_EQ(cfg.in_hw, 32u);
  // Weight count ≈ the paper's 7.66M ("total weight amount is 7.66M").
  std::size_t weights = 0;
  std::size_t ch = cfg.in_channels;
  std::size_t hw = cfg.in_hw;
  for (std::size_t i = 0; i < cfg.conv_channels.size(); ++i) {
    weights += ch * 9 * cfg.conv_channels[i];
    ch = cfg.conv_channels[i];
    for (std::size_t p : cfg.pool_after)
      if (p == i) hw /= 2;
  }
  std::size_t features = ch * hw * hw;
  for (std::size_t h : cfg.fc_hidden) {
    weights += features * h;
    features = h;
  }
  weights += features * cfg.num_classes;
  EXPECT_GT(weights, 7'000'000u);
  EXPECT_LT(weights, 11'000'000u);
}

TEST(Vgg11Preset, BuildsAndRunsForward) {
  // Construction programs ~9M cells; run a single tiny forward to verify
  // shapes end to end (software backend — this is a smoke test).
  Rng rng(1);
  const VggMiniConfig cfg = vgg11_config();
  Network net = make_vgg_mini(cfg, software_store_factory(),
                              software_store_factory(), rng);
  Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  const Tensor logits = net.forward(x, false);
  EXPECT_EQ(logits.shape(), (Shape{1, 10}));
  EXPECT_EQ(net.matrix_layers().size(), 11u);  // VGG-11
}

TEST(SliceBatch, Extracts) {
  Tensor d({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor s = slice_batch(d, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.at(1, 1), 6.0f);
}

TEST(Evaluate, MatchesAccuracy) {
  Rng rng(8);
  Network net = make_mlp({4, 2}, software_store_factory(), rng);
  Tensor x;
  std::vector<std::uint8_t> y;
  make_toy(rng, 50, x, y);
  const double e = net.evaluate(x, y);
  const double a = accuracy(net.forward(x, false), y);
  EXPECT_NEAR(e, a, 1e-12);
}

/// Argmax of each row of a [n, classes] logits tensor.
std::vector<std::uint8_t> row_argmax(const Tensor& logits) {
  std::vector<std::uint8_t> out(logits.dim(0));
  const std::size_t cols = logits.dim(1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float* row = logits.data() + i * cols;
    out[i] = static_cast<std::uint8_t>(std::max_element(row, row + cols) - row);
  }
  return out;
}

/// Restores the 1-lane global pool however the test exits.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

TEST(Network, ShardedEvaluateMatchesSerial) {
  const PoolGuard guard;
  // 61 samples: seven full shards and a 5-sample tail.
  constexpr std::size_t kSamples = 61;
  static_assert(kSamples % kEvalShard != 0);
  Rng drng(21);
  const Tensor x = Tensor::randn({kSamples, 3, 16, 16}, drng);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    ThreadPool::set_global_threads(threads);
    RcsConfig rc;
    rc.tile_rows = 32;
    rc.tile_cols = 32;
    rc.inject_fabrication = true;
    rc.fabrication.fraction = 0.2;
    RcsSystem rcs(rc, Rng(22));
    Rng nrng(23);
    Network net =
        make_vgg_mini(VggMiniConfig{}, software_store_factory(), rcs.factory(),
                      nrng);
    ASSERT_EQ(rcs.stores().size(), 3u);
    (void)net.forward(slice_batch(x, 0, 1));  // every panel packed
    // Pin a few more cells through tile(): the evaluation must see the new
    // read-out, repacked on the caller before the fan-out.
    for (CrossbarWeightStore* store : rcs.stores()) {
      for (std::size_t r = 0; r < 8; ++r)
        store->tile(0, 0).force_fault(r, r, FaultKind::kStuckAt1);
    }
    const auto stale_panels = [&rcs] {
      for (CrossbarWeightStore* store : rcs.stores()) store->invalidate();
    };
    stale_panels();
    // Reference: one sample at a time, on the caller.
    std::vector<std::uint8_t> ref(kSamples);
    std::vector<float> ref_logits;
    for (std::size_t i = 0; i < kSamples; ++i) {
      const Tensor logits = net.forward(slice_batch(x, i, i + 1));
      ref[i] = row_argmax(logits)[0];
      ref_logits.insert(ref_logits.end(), logits.data(),
                        logits.data() + logits.numel());
    }
    // A sample's logits do not depend on which samples share its batch.
    const Tensor whole = net.forward(x);
    ASSERT_EQ(whole.numel(), ref_logits.size());
    EXPECT_EQ(std::memcmp(whole.data(), ref_logits.data(),
                          ref_logits.size() * sizeof(float)),
              0);
    // Labels = the reference argmax: accuracy 1 iff every sample agrees.
    stale_panels();  // the reference forwards above repacked them
    EXPECT_EQ(net.evaluate(x, ref), 1.0);
    std::vector<std::uint8_t> labels(kSamples);
    for (std::size_t i = 0; i < kSamples; ++i)
      labels[i] = static_cast<std::uint8_t>(i % 10);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < kSamples; ++i) hits += ref[i] == labels[i];
    const InlineCallProbe probe;  // panels current: no repack fan-out
    EXPECT_EQ(net.evaluate(x, labels),
              static_cast<double>(hits) / static_cast<double>(kSamples));
    // One fork-join per evaluation: nested ops run inline on the lanes.
    if (probe.available()) {
      EXPECT_EQ(probe.calls(), 1u);
      EXPECT_EQ(probe.inline_calls(), threads == 1 ? 1u : 0u);
    }
  }
}

}  // namespace
}  // namespace refit
