// Activation functions and derivatives (see activations.hpp).
#include "nn/activations.hpp"

#include <bit>
#include <cstdint>

#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace refit {

namespace {

// ReLU touches each element once: fan out only past the pool grain.
constexpr std::size_t kReluWorkPerElement = 1;

// Branch-free select: v's bits where keep is set, else +0 (all bits
// clear). Written as a mask because compilers turn `keep ? v : 0.0f` into
// a branch, which mispredicts on every other post-conv activation.
float keep_or_zero(float v, bool keep) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) &
                              (0u - static_cast<std::uint32_t>(keep)));
}

// y = x > 0 ? x : +0 over n elements, and mask = x > 0 when given. The
// pointers are parameters, so the byte stores cannot make the compiler
// reload them each element.
void relu_forward_range(const float* x, float* y, std::uint8_t* mask,
                        std::size_t n) {
  // NaN > 0 and −0 > 0 are both false → +0.
  for (std::size_t i = 0; i < n; ++i) y[i] = keep_or_zero(x[i], x[i] > 0.0f);
  if (mask == nullptr) return;
  for (std::size_t i = 0; i < n; ++i)
    mask[i] = static_cast<std::uint8_t>(x[i] > 0.0f);
}

void relu_backward_range(const float* g, const std::uint8_t* mask, float* out,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = keep_or_zero(g[i], mask[i] != 0);
}

}  // namespace

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y(x.shape());
  if (train) mask_.resize(x.numel());
  const float* xp = x.data();
  float* yp = y.data();
  std::uint8_t* mp = train ? mask_.data() : nullptr;
  parallel_for_grained(x.numel(), kReluWorkPerElement,
                       [&](std::size_t i0, std::size_t i1) {
    relu_forward_range(xp + i0, yp + i0, mp != nullptr ? mp + i0 : nullptr,
                       i1 - i0);
  });
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  REFIT_CHECK_MSG(mask_.size() == grad_out.numel(),
                  "ReLU " << name() << ": backward/forward shape mismatch");
  Tensor gx(grad_out.shape());
  const float* gp = grad_out.data();
  const std::uint8_t* mp = mask_.data();
  float* op = gx.data();
  parallel_for_grained(gx.numel(), kReluWorkPerElement,
                       [&](std::size_t i0, std::size_t i1) {
    relu_backward_range(gp + i0, mp + i0, op + i0, i1 - i0);
  });
  return gx;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  REFIT_CHECK(x.rank() >= 2);
  if (train) input_shape_ = x.shape();
  const std::size_t batch = x.dim(0);
  return x.reshaped({batch, x.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  REFIT_CHECK_MSG(!input_shape_.empty(),
                  "Flatten " << name() << ": backward before forward(train)");
  return grad_out.reshaped(input_shape_);
}

Tensor MaxPool2D::forward(const Tensor& x, bool train) {
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d(x, window_, stride_, argmax);
  if (train) {
    input_shape_ = x.shape();
    argmax_ = std::move(argmax);
  }
  return y;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  REFIT_CHECK_MSG(!argmax_.empty(),
                  "MaxPool2D " << name()
                               << ": backward before forward(train)");
  return maxpool2d_backward(grad_out, input_shape_, argmax_);
}

}  // namespace refit
