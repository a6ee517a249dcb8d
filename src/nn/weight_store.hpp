// WeightStore — the seam between the training algorithm and the hardware.
//
// A layer's weight matrix lives behind this interface. The software backend
// stores plain floats (the paper's "ideal case"); the RCS backend
// (src/rcs/crossbar_store.hpp) maps the matrix onto RRAM crossbar tiles so
// that forward propagation sees quantization, write variation and stuck-at
// faults, and every weight update consumes cell endurance.
//
// The convention throughout REFIT: a weight matrix has shape
// [fan_in, fan_out]; crossbar rows correspond to inputs and columns to
// output neurons, matching the paper's Fig. 5.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "tensor/tensor.hpp"

namespace refit {

/// Abstract storage for one layer's weight matrix.
class WeightStore {
 public:
  virtual ~WeightStore() = default;

  [[nodiscard]] virtual const Shape& shape() const = 0;

  /// The weights forward propagation actually computes with. For an RCS
  /// backend this includes faults / quantization / write noise.
  [[nodiscard]] virtual const Tensor& effective() = 0;

  /// The ideal target weights the optimizer believes it has written.
  [[nodiscard]] virtual const Tensor& target() const = 0;

  /// Forward propagation through the store: y = x · W_eff for a batch
  /// x [batch, fan_in]. The default materializes effective() and multiplies;
  /// hardware backends override with a fused kernel that computes straight
  /// from device state (bit-identical to the default — layers call this
  /// instead of matmul(x, effective()) purely for speed).
  [[nodiscard]] virtual Tensor forward_matmul(const Tensor& x);

  /// Bring whatever forward_matmul reads up to date, so concurrent
  /// forward_matmul calls from pool lanes (Network::evaluate's shards)
  /// only read the store. Call on the caller before such a fan-out; a
  /// no-op for backends that keep no read-out cache.
  virtual void prepare_concurrent_forward() {}

  /// target += delta; entries with delta == 0 are *not* written to the
  /// device (this is what threshold training exploits to save endurance).
  virtual void apply_delta(const Tensor& delta) = 0;

  /// target += delta, programming EVERY cell — zero deltas included. This
  /// is the paper's "original" on-line update: each step re-programs the
  /// whole array, which is why repeated training wears out most cells.
  /// Defaults to apply_delta (no distinction without a device).
  virtual void apply_delta_full(const Tensor& delta) { apply_delta(delta); }

  /// Overwrite the full target (counts as a write to every changed cell).
  virtual void assign(const Tensor& w) = 0;

  /// Total device write operations issued so far (0 for software).
  [[nodiscard]] virtual std::uint64_t write_count() const { return 0; }

  /// Serialize the store's complete state: the target tensor for the
  /// software backend, the full device state (tiles, permutations,
  /// endurance, RNG) for a hardware backend. restore_state() into a
  /// same-shaped store must reproduce the exact compute behavior — this
  /// is the seam the engine checkpoints through without knowing which
  /// backend a layer uses.
  virtual void save_state(std::ostream& os) const = 0;
  virtual void restore_state(std::istream& is) = 0;
};

/// Pure-software backend: effective() == target(), no endurance, no faults.
class SoftwareWeightStore final : public WeightStore {
 public:
  explicit SoftwareWeightStore(Tensor init);

  [[nodiscard]] const Shape& shape() const override { return w_.shape(); }
  [[nodiscard]] const Tensor& effective() override { return w_; }
  [[nodiscard]] const Tensor& target() const override { return w_; }
  void apply_delta(const Tensor& delta) override;
  void assign(const Tensor& w) override;
  void save_state(std::ostream& os) const override;
  void restore_state(std::istream& is) override;

 private:
  Tensor w_;
};

/// Factory used by layers to create their weight backend; experiments swap
/// in an RCS-backed factory to put layers "on chip".
using StoreFactory = std::function<std::unique_ptr<WeightStore>(
    const std::string& layer_name, Tensor init)>;

/// Factory producing SoftwareWeightStore (the default backend).
StoreFactory software_store_factory();

}  // namespace refit
