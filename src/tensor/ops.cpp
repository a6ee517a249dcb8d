// Tensor kernels — GEMM / conv fan-out over the thread pool (see ops.hpp).
#include "tensor/ops.hpp"

#include <algorithm>
#include <limits>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"

namespace refit {

namespace {

void check_rank2(const Tensor& t, const char* name) {
  REFIT_CHECK_MSG(t.rank() == 2,
                  name << " must be rank-2, got " << shape_to_string(t.shape()));
}

void count_gemm_flops(std::size_t m, std::size_t k, std::size_t n) {
  static obs::Counter flops =
      obs::MetricsRegistry::instance().counter("tensor.gemm.flops", "flop");
  flops.add(2 * m * k * n);
}

/// im2col for output row y of one image `img` ([C, H, W]): fills the ow
/// patch rows at `block` (columns in (c, kh, kw) order), which must be
/// zero-filled — padded taps are skipped, not written. K is the kernel
/// size when fixed at compile time (0: read g.kernel), so the common 3×3
/// case copies its three floats inline instead of calling memmove.
template <std::size_t K>
void im2col_row(const float* img, const ConvGeometry& g, std::size_t y,
                std::size_t ow, float* block) {
  const std::size_t k = K != 0 ? K : g.kernel;
  const std::size_t stride = g.stride, pad = g.pad, ih = g.in_h, iw = g.in_w;
  const std::size_t plen = g.patch_len();
  // Output columns [x_lo, x_hi) read a window wholly inside the input row:
  // x·stride ≥ pad and x·stride − pad + k ≤ in_w. Only the edges test kw.
  const std::size_t x_lo = std::min(ow, (pad + stride - 1) / stride);
  const std::size_t x_hi = std::max(
      x_lo, iw + pad >= k ? std::min(ow, (iw + pad - k) / stride + 1) : 0);
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < k; ++kh) {
      const std::size_t yy = y * stride + kh;  // in_y + pad
      if (yy < pad || yy - pad >= ih) continue;
      const float* src = img + (c * ih + yy - pad) * iw;
      float* dst = block + (c * k + kh) * k;
      const auto edge = [&](std::size_t x) {
        for (std::size_t kw = 0; kw < k; ++kw) {
          const std::size_t xx = x * stride + kw;  // in_x + pad
          if (xx >= pad && xx - pad < iw) dst[x * plen + kw] = src[xx - pad];
        }
      };
      for (std::size_t x = 0; x < x_lo; ++x) edge(x);
      for (std::size_t x = x_lo; x < x_hi; ++x) {
        const float* s = src + x * stride - pad;
        for (std::size_t kw = 0; kw < k; ++kw) dst[x * plen + kw] = s[kw];
      }
      for (std::size_t x = x_hi; x < ow; ++x) edge(x);
    }
  }
}

/// dst[j, i] = src[i, j] (+ add[j] when given) for a row-major src[r, c]:
/// one image of the conv reorders. Writes are contiguous. With `add` each
/// element takes the one float add add_row_vector did; without it values
/// are copied, so −0 and NaN payloads survive.
void transpose_image(const float* src, std::size_t r, std::size_t c,
                     const float* add, float* dst) {
  for (std::size_t j = 0; j < c; ++j, dst += r) {
    if (add != nullptr) {
      const float b = add[j];
      for (std::size_t i = 0; i < r; ++i) dst[i] = src[i * c + j] + b;
    } else {
      for (std::size_t i = 0; i < r; ++i) dst[i] = src[i * c + j];
    }
  }
}

}  // namespace

// All three GEMMs run on the packed-panel core in tensor/gemm.hpp: the
// right-hand side is packed into kNR-wide column strips once per call, then
// a register-blocked micro-kernel (row block per ISA tier × kNR) streams
// each strip against blocks of A rows. Lanes own contiguous C row blocks
// and every element keeps its serial k-ascending accumulation order, so
// results are bit-identical to the pre-blocking kernels at any thread count
// and ISA tier (docs/kernels.md).

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  REFIT_CHECK_MSG(b.dim(0) == k, "inner dims mismatch: " << k << " vs "
                                                         << b.dim(0));
  Tensor c({m, n});
  count_gemm_flops(m, k, n);
  std::vector<float>& panels = gemm::scratch(0);
  panels.resize(gemm::packed_size(k, n));
  const bool finite = gemm::pack_b(b.data(), k, n, panels.data());
  // Zero-skip semantics (post-ReLU activations are sparse); on a finite
  // panel the kernel gets them without a branch.
  gemm::run(m, k, n, a.data(), k, panels.data(), c.data(), n,
            /*zero_skip=*/true, finite);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  REFIT_CHECK_MSG(b.dim(0) == k, "inner dims mismatch in matmul_tn");
  Tensor c({m, n});
  count_gemm_flops(m, k, n);
  // Transpose-pack A so the micro-kernel reads it row-major instead of
  // walking columns at stride m.
  std::vector<float>& arows = gemm::scratch(1);
  arows.resize(m * k);
  gemm::pack_at(a.data(), k, m, arows.data());
  std::vector<float>& panels = gemm::scratch(0);
  panels.resize(gemm::packed_size(k, n));
  const bool finite = gemm::pack_b(b.data(), k, n, panels.data());
  gemm::run(m, k, n, arows.data(), k, panels.data(), c.data(), n,
            /*zero_skip=*/true, finite);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  REFIT_CHECK_MSG(b.dim(1) == k, "inner dims mismatch in matmul_nt");
  Tensor c({m, n});
  count_gemm_flops(m, k, n);
  std::vector<float>& panels = gemm::scratch(0);
  panels.resize(gemm::packed_size(k, n));
  const bool finite = gemm::pack_bt(b.data(), n, k, panels.data());
  // The pre-blocking nt kernel had no zero skip; keep its exact FP path.
  gemm::run(m, k, n, a.data(), k, panels.data(), c.data(), n,
            /*zero_skip=*/false, finite);
  return c;
}

Tensor transpose(const Tensor& m) {
  check_rank2(m, "m");
  const std::size_t r = m.dim(0), c = m.dim(1);
  Tensor t({c, r});
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) t.at(j, i) = m.at(i, j);
  return t;
}

void add_row_vector(Tensor& m, const Tensor& bias) {
  check_rank2(m, "m");
  REFIT_CHECK(bias.rank() == 1 && bias.dim(0) == m.dim(1));
  const std::size_t rows = m.dim(0), cols = m.dim(1);
  float* mp = m.data();
  const float* bp = bias.data();
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = mp + i * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] += bp[j];
  }
}

Tensor column_sums(const Tensor& m) {
  check_rank2(m, "m");
  const std::size_t rows = m.dim(0), cols = m.dim(1);
  Tensor s({cols});
  const float* mp = m.data();
  float* sp = s.data();
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = mp + i * cols;
    for (std::size_t j = 0; j < cols; ++j) sp[j] += row[j];
  }
  return s;
}

Tensor im2col(const Tensor& input, const ConvGeometry& g) {
  REFIT_CHECK(input.rank() == 4);
  const std::size_t batch = input.dim(0);
  REFIT_CHECK(input.dim(1) == g.in_channels && input.dim(2) == g.in_h &&
              input.dim(3) == g.in_w);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plen = g.patch_len();
  const std::size_t image = g.in_channels * g.in_h * g.in_w;
  Tensor cols({batch * oh * ow, plen});  // zero-filled: padding stays +0
  const float* ip = input.data();
  float* cp = cols.data();
  // Each (image, output row) owns a disjoint block of ow patch rows.
  parallel_for_grained(batch * oh, ow * plen,
                       [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const float* img = ip + (r / oh) * image;
      float* block = cp + r * ow * plen;
      if (g.kernel == 3) {
        im2col_row<3>(img, g, r % oh, ow, block);
      } else {
        im2col_row<0>(img, g, r % oh, ow, block);
      }
    }
  });
  return cols;
}

Tensor col2im(const Tensor& cols, std::size_t batch, const ConvGeometry& g) {
  REFIT_CHECK(cols.rank() == 2);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plen = g.patch_len();
  REFIT_CHECK(cols.dim(0) == batch * oh * ow && cols.dim(1) == plen);
  Tensor input({batch, g.in_channels, g.in_h, g.in_w});
  const float* cp = cols.data();
  // Overlapping windows only collide within one image; images are disjoint,
  // so the scatter-accumulate is batch-parallel and keeps its serial order.
  parallel_for_grained(batch, oh * ow * plen,
                       [&](std::size_t n0, std::size_t n1) {
  for (std::size_t n = n0; n < n1; ++n) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        const float* src = cp + ((n * oh + y) * ow + x) * plen;
        std::size_t idx = 0;
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t kh = 0; kh < g.kernel; ++kh) {
            const std::ptrdiff_t in_y =
                static_cast<std::ptrdiff_t>(y * g.stride + kh) -
                static_cast<std::ptrdiff_t>(g.pad);
            for (std::size_t kw = 0; kw < g.kernel; ++kw, ++idx) {
              const std::ptrdiff_t in_x =
                  static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                  static_cast<std::ptrdiff_t>(g.pad);
              if (in_y >= 0 && in_x >= 0 &&
                  in_y < static_cast<std::ptrdiff_t>(g.in_h) &&
                  in_x < static_cast<std::ptrdiff_t>(g.in_w)) {
                input.at4(n, c, static_cast<std::size_t>(in_y),
                          static_cast<std::size_t>(in_x)) += src[idx];
              }
            }
          }
        }
      }
    }
  }
  });
  return input;
}

Tensor rows_to_nchw(const Tensor& rows, std::size_t batch, std::size_t oc,
                    std::size_t oh, std::size_t ow, const Tensor* bias) {
  REFIT_CHECK(rows.rank() == 2 && rows.dim(0) == batch * oh * ow &&
              rows.dim(1) == oc);
  REFIT_CHECK(bias == nullptr || (bias->rank() == 1 && bias->dim(0) == oc));
  Tensor out({batch, oc, oh, ow});
  const std::size_t plane = oh * ow;
  const float* rp = rows.data();
  const float* bp = bias != nullptr ? bias->data() : nullptr;
  float* op = out.data();
  // Per image: [plane, oc] → [oc, plane]. Images are disjoint.
  parallel_for_grained(batch, plane * oc, [&](std::size_t n0, std::size_t n1) {
    for (std::size_t n = n0; n < n1; ++n)
      transpose_image(rp + n * plane * oc, plane, oc, bp, op + n * plane * oc);
  });
  return out;
}

Tensor nchw_to_rows(const Tensor& t) {
  REFIT_CHECK(t.rank() == 4);
  const std::size_t batch = t.dim(0), oc = t.dim(1);
  const std::size_t plane = t.dim(2) * t.dim(3);
  Tensor rows({batch * plane, oc});
  const float* tp = t.data();
  float* rp = rows.data();
  // Per image: [oc, plane] → [plane, oc]. Images are disjoint.
  parallel_for_grained(batch, plane * oc, [&](std::size_t n0, std::size_t n1) {
    for (std::size_t n = n0; n < n1; ++n)
      transpose_image(tp + n * plane * oc, oc, plane, nullptr,
                      rp + n * plane * oc);
  });
  return rows;
}

Tensor maxpool2d(const Tensor& input, std::size_t window, std::size_t stride,
                 std::vector<std::size_t>& argmax) {
  REFIT_CHECK(input.rank() == 4);
  const std::size_t batch = input.dim(0), ch = input.dim(1),
                    ih = input.dim(2), iw = input.dim(3);
  REFIT_CHECK(ih >= window && iw >= window);
  const std::size_t oh = (ih - window) / stride + 1;
  const std::size_t ow = (iw - window) / stride + 1;
  Tensor out({batch, ch, oh, ow});
  argmax.assign(out.numel(), 0);
  // Output index derived from (n, c, y, x) instead of a running counter so
  // each image's windows can run on a separate lane; grained so small pools
  // stay inline.
  parallel_for_grained(batch, ch * oh * ow * window * window,
                       [&](std::size_t n0, std::size_t n1) {
  for (std::size_t n = n0; n < n1; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          const std::size_t oi = ((n * ch + c) * oh + y) * ow + x;
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t wy = 0; wy < window; ++wy) {
            for (std::size_t wx = 0; wx < window; ++wx) {
              const std::size_t yy = y * stride + wy;
              const std::size_t xx = x * stride + wx;
              const std::size_t flat =
                  ((n * ch + c) * ih + yy) * iw + xx;
              const float v = input[flat];
              if (v > best) {
                best = v;
                best_idx = flat;
              }
            }
          }
          out[oi] = best;
          argmax[oi] = best_idx;
        }
      }
    }
  }
  });
  return out;
}

Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          const std::vector<std::size_t>& argmax) {
  REFIT_CHECK(grad_out.numel() == argmax.size());
  Tensor grad_in(input_shape);
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    REFIT_DCHECK(argmax[i] < grad_in.numel());
    grad_in[argmax[i]] += grad_out[i];
  }
  return grad_in;
}

}  // namespace refit
