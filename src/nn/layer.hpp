// Layer interfaces for the REFIT neural-network training framework (S2).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/weight_store.hpp"
#include "tensor/tensor.hpp"

namespace refit {

/// Reference to one trainable parameter of a layer.
///
/// Weight matrices live behind a WeightStore (possibly on crossbars);
/// biases are plain tensors held in the peripheral neuron circuitry, so
/// they never suffer RRAM faults (matching the paper's model, where only
/// the matrices are on the crossbar).
struct Param {
  std::string name;
  WeightStore* store = nullptr;  ///< non-null for crossbar-capable matrices
  Tensor* value = nullptr;       ///< non-null for plain (peripheral) params
  Tensor* grad = nullptr;        ///< accumulated gradient, same shape
};

/// Base class for all layers. forward() must be called before backward();
/// layers cache whatever they need for the backward pass.
class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Compute the layer output. `train` enables training-only behaviour:
  /// caching what backward() needs. forward(x, false) must write no layer
  /// state — Network::evaluate runs it concurrently on the pool lanes.
  virtual Tensor forward(const Tensor& x, bool train) = 0;
  /// Propagate the output gradient; accumulates parameter gradients and
  /// returns the input gradient.
  virtual Tensor backward(const Tensor& grad_out) = 0;
  /// Append references to this layer's trainable parameters.
  virtual void collect_params(std::vector<Param>& out) { (void)out; }
  /// Zero all accumulated parameter gradients.
  virtual void zero_grad() {}
  /// Short kind tag ("dense", "conv", "relu", ...).
  [[nodiscard]] virtual const char* kind() const = 0;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// A layer whose weights form a 2-D matrix mapped onto crossbars
/// ([fan_in, fan_out]); Dense and Conv2D implement this. The re-mapping
/// engine operates on these layers only.
class MatrixLayer : public Layer {
 public:
  using Layer::Layer;

  [[nodiscard]] virtual WeightStore& weights() = 0;
  [[nodiscard]] virtual const WeightStore& weights() const = 0;

  /// Logical output-neuron count (= matrix columns).
  [[nodiscard]] virtual std::size_t out_neurons() const = 0;
  /// Logical input-neuron count. For Dense this equals the matrix rows;
  /// for Conv2D it is the number of input channels (each spanning a block
  /// of kernel² rows).
  [[nodiscard]] virtual std::size_t in_neurons() const = 0;
  /// Matrix rows contributed by each input neuron (1 for Dense,
  /// kernel² for Conv2D).
  [[nodiscard]] virtual std::size_t rows_per_in_neuron() const = 0;
};

}  // namespace refit
