// 2-D convolution layer (see conv2d.hpp).
#include "nn/conv2d.hpp"

#include <cmath>
#include <utility>

#include "common/rng.hpp"

namespace refit {

Conv2D::Conv2D(std::string name, std::size_t in_channels, std::size_t in_h,
               std::size_t in_w, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, const StoreFactory& factory,
               Rng& rng)
    : MatrixLayer(std::move(name)),
      geom_{in_channels, in_h, in_w, kernel, stride, pad},
      oc_(out_channels),
      bias_({out_channels}),
      wgrad_({geom_.patch_len(), out_channels}),
      bgrad_({out_channels}) {
  REFIT_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
  const float fan_in = static_cast<float>(geom_.patch_len());
  const float stddev = std::sqrt(2.0f / fan_in);
  store_ = factory(this->name(),
                   Tensor::randn({geom_.patch_len(), out_channels}, rng,
                                 stddev));
  REFIT_CHECK(store_ != nullptr);
}

Tensor Conv2D::forward(const Tensor& x, bool train) {
  REFIT_CHECK_MSG(x.rank() == 4 && x.dim(1) == geom_.in_channels &&
                      x.dim(2) == geom_.in_h && x.dim(3) == geom_.in_w,
                  "Conv2D " << name() << ": bad input "
                            << shape_to_string(x.shape()));
  const std::size_t batch = x.dim(0);
  Tensor cols = im2col(x, geom_);
  const Tensor rows = store_->forward_matmul(cols);  // [N·OH·OW, OC]
  if (train) {
    cached_cols_ = std::move(cols);
    cached_batch_ = batch;
  }
  return rows_to_nchw(rows, batch, oc_, geom_.out_h(), geom_.out_w(), &bias_);
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  REFIT_CHECK_MSG(cached_batch_ > 0,
                  "Conv2D " << name() << ": backward before forward(train)");
  REFIT_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == cached_batch_ &&
              grad_out.dim(1) == oc_);
  Tensor gy_rows = nchw_to_rows(grad_out);           // [N·OH·OW, OC]
  wgrad_ += matmul_tn(cached_cols_, gy_rows);        // [CKK, OC]
  bgrad_ += column_sums(gy_rows);
  // Digital-domain backprop on the stored weight copy (see Dense::backward
  // for the architectural rationale).
  Tensor gcols = matmul_nt(gy_rows, store_->target());  // [N·OH·OW, CKK]
  return col2im(gcols, cached_batch_, geom_);
}

void Conv2D::collect_params(std::vector<Param>& out) {
  out.push_back(Param{name() + ".W", store_.get(), nullptr, &wgrad_});
  out.push_back(Param{name() + ".b", nullptr, &bias_, &bgrad_});
}

void Conv2D::zero_grad() {
  wgrad_.zero();
  bgrad_.zero();
}

}  // namespace refit
