// Sequential network container.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"

namespace refit {

/// A feed-forward stack of layers trained with backpropagation.
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Append a layer; returns a reference for convenient chaining/config.
  Layer& add(std::unique_ptr<Layer> layer);

  /// Run the stack. `train` makes layers cache activations for backward().
  /// forward(x, false) writes no layer state (Layer::forward's contract),
  /// so concurrent inference forwards are safe once every store's read-out
  /// is current (WeightStore::prepare_concurrent_forward).
  Tensor forward(const Tensor& x, bool train = false);

  /// Backpropagate the loss gradient; parameter gradients accumulate into
  /// each layer. Returns the gradient w.r.t. the network input.
  Tensor backward(const Tensor& grad_logits);

  /// References to every trainable parameter (rebuilt on each call).
  [[nodiscard]] std::vector<Param> params();

  /// The crossbar-mappable layers in network order.
  [[nodiscard]] std::vector<MatrixLayer*> matrix_layers();

  void zero_grad();

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i);

  /// Mean classification accuracy over a sample set. The set is split
  /// into kEvalShard-sample shards that run forward(train=false) on the
  /// pool lanes, one shard at a time per lane, with every nested op inline
  /// on its lane. A sample's logits do not depend on which samples share
  /// its shard (each GEMM row is an independent k-ascending dot product
  /// and no layer uses batch statistics), so the result is the same as a
  /// one-sample-at-a-time loop at any thread count.
  double evaluate(const Tensor& inputs,
                  const std::vector<std::uint8_t>& labels);

  /// Total number of weight-matrix elements (paper's "weight amount").
  [[nodiscard]] std::size_t weight_count();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Samples per Network::evaluate shard. Fixed, so the work each shard
/// does (and every counter it bumps) is the same at any thread count;
/// small, so each lane's activations stay a few hundred kilobytes.
inline constexpr std::size_t kEvalShard = 8;

/// Slice rows [begin, end) of a [N, ...] tensor into a new tensor.
Tensor slice_batch(const Tensor& data, std::size_t begin, std::size_t end);

}  // namespace refit
