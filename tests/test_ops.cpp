// Unit tests for tensor kernels (src/tensor/ops.hpp): GEMM variants,
// im2col/col2im adjointness, pooling, and the conv glue kernels (im2col,
// the reorders, ReLU) against naive loops.
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/activations.hpp"
#include "tensor/gemm.hpp"

namespace refit {
namespace {

TEST(Matmul, Known2x2) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<float>{5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matmul, RectangularShapes) {
  Tensor a({1, 3}, std::vector<float>{1, 2, 3});
  Tensor b({3, 2}, std::vector<float>{1, 0, 0, 1, 1, 1});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 5.0f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a({2, 3}), b({2, 3});
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(Matmul, TransposeVariantsAgree) {
  Rng rng(1);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({6, 5}, rng);
  Tensor ref = matmul(a, b);
  // matmul_tn(Aᵀstored, B): store A as [6,4] = aᵀ.
  Tensor at = transpose(a);
  Tensor c1 = matmul_tn(at, b);
  // matmul_nt(A, Bᵀstored): store B as [5,6] = bᵀ.
  Tensor bt = transpose(b);
  Tensor c2 = matmul_nt(a, bt);
  ASSERT_EQ(c1.shape(), ref.shape());
  ASSERT_EQ(c2.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(c1[i], ref[i], 1e-4);
    EXPECT_NEAR(c2[i], ref[i], 1e-4);
  }
}

TEST(Transpose, Involution) {
  Rng rng(2);
  Tensor a = Tensor::randn({3, 7}, rng);
  Tensor att = transpose(transpose(a));
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], att[i]);
}

TEST(AddRowVector, Broadcasts) {
  Tensor m({2, 3}, 1.0f);
  Tensor b({3}, std::vector<float>{1, 2, 3});
  add_row_vector(m, b);
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 4.0f);
}

TEST(ColumnSums, Basics) {
  Tensor m({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor s = column_sums(m);
  EXPECT_FLOAT_EQ(s[0], 5.0f);
  EXPECT_FLOAT_EQ(s[1], 7.0f);
  EXPECT_FLOAT_EQ(s[2], 9.0f);
}

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{3, 16, 16, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 16u);
  EXPECT_EQ(g.out_w(), 16u);
  EXPECT_EQ(g.patch_len(), 27u);
  ConvGeometry g2{1, 8, 8, 2, 2, 0};
  EXPECT_EQ(g2.out_h(), 4u);
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1×1 kernel, no pad: im2col is a pure reshape.
  Rng rng(3);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  ConvGeometry g{3, 4, 4, 1, 1, 0};
  Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), (Shape{2 * 16, 3}));
  // Row (n=0, y=1, x=2), channel 2 must equal x[0,2,1,2].
  EXPECT_FLOAT_EQ(cols.at(1 * 4 + 2, 2), x.at4(0, 2, 1, 2));
}

TEST(Im2col, ZeroPadding) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  ConvGeometry g{1, 2, 2, 3, 1, 1};
  Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), (Shape{4, 9}));
  // Output location (0,0): top-left patch has the corner value at its
  // center-bottom-right region; the top-left patch element is padding.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);   // padded
  EXPECT_FLOAT_EQ(cols.at(0, 4), 1.0f);   // center = x(0,0)
  EXPECT_FLOAT_EQ(cols.at(0, 8), 4.0f);   // bottom-right = x(1,1)
}

TEST(Col2im, AdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property that
  // makes the convolution backward pass correct.
  Rng rng(4);
  const ConvGeometry g{2, 5, 5, 3, 2, 1};
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  Tensor cols = im2col(x, g);
  Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back = col2im(y, 2, g);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(RowsNchw, RoundTrip) {
  Rng rng(5);
  Tensor t = Tensor::randn({2, 3, 4, 5}, rng);
  Tensor rows = nchw_to_rows(t);
  EXPECT_EQ(rows.shape(), (Shape{2 * 4 * 5, 3}));
  Tensor back = rows_to_nchw(rows, 2, 3, 4, 5);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], back[i]);
}

TEST(MaxPool, ForwardValues) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d(x, 2, 2, argmax);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_EQ(argmax[0], 1u);
}

TEST(MaxPool, BackwardScattersToArgmax) {
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d(x, 2, 2, argmax);
  Tensor gy(y.shape(), 1.0f);
  Tensor gx = maxpool2d_backward(gy, x.shape(), argmax);
  // Max of each 2×2 window is its bottom-right element.
  EXPECT_FLOAT_EQ(gx[5], 1.0f);
  EXPECT_FLOAT_EQ(gx[7], 1.0f);
  EXPECT_FLOAT_EQ(gx[13], 1.0f);
  EXPECT_FLOAT_EQ(gx[15], 1.0f);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx.sum(), 4.0f);
}

TEST(MaxPool, OverlappingWindows) {
  Tensor x({1, 1, 3, 3});
  x.at4(0, 0, 1, 1) = 10.0f;  // center wins every window
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d(x, 2, 1, argmax);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], 10.0f);
  Tensor gy(y.shape(), 1.0f);
  Tensor gx = maxpool2d_backward(gy, x.shape(), argmax);
  EXPECT_FLOAT_EQ(gx.at4(0, 0, 1, 1), 4.0f);  // all four windows accumulate
}

TEST(MatmulProperty, ZeroSkipsDoNotChangeResult) {
  // The GEMM kernels skip zero multipliers; a sparse A must give the same
  // result as a dense reference computed elementwise.
  Rng rng(6);
  Tensor a = Tensor::randn({8, 8}, rng);
  for (std::size_t i = 0; i < a.numel(); i += 3) a[i] = 0.0f;
  Tensor b = Tensor::randn({8, 8}, rng);
  Tensor c = matmul(a, b);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 8; ++k)
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-4);
    }
}

// ---- Blocked GEMM vs the pre-blocking kernels -----------------------------

// Serial copies of the exact pre-blocking loop bodies (i-k-j with zero skip
// for matmul / matmul_tn, 4-wide j-register blocking without skip for
// matmul_nt). Deterministic mode must reproduce their results bit for bit.

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor naive_matmul_tn(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a.data()[kk * m + i];
      if (av == 0.0f) continue;
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor naive_matmul_nt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b.data() + j * k;
      const float* b1 = b.data() + (j + 1) * k;
      const float* b2 = b.data() + (j + 2) * k;
      const float* b3 = b.data() + (j + 3) * k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        acc0 += av * b0[kk];
        acc1 += av * b1[kk];
        acc2 += av * b2[kk];
        acc3 += av * b3[kk];
      }
      crow[j] = acc0;
      crow[j + 1] = acc1;
      crow[j + 2] = acc2;
      crow[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
  return c;
}

struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) == 0;
}

/// Random matrix with zeros sprinkled in (every 5th element) so the
/// zero-skip path is exercised.
Tensor sparse_randn(Shape shape, Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (std::size_t i = 0; i < t.numel(); i += 5) t[i] = 0.0f;
  return t;
}

// Odd shapes: non-multiples of the register blocks (4 or 8 rows × kNR) and
// the row block, degenerate m=1 / k=1 / n=1, and exact-multiple controls.
struct GemmShape {
  std::size_t m, k, n;
};
const GemmShape kOddShapes[] = {
    {1, 1, 1},    {1, 7, 1},   {3, 5, 2},    {4, 8, 8},    {5, 9, 11},
    {1, 64, 9},   {31, 1, 8},  {33, 17, 31}, {64, 64, 64}, {127, 129, 63},
};

// Every micro-kernel tier this host can run, forced through the
// gemm::detail::IsaOverride seam: the baseline (SSE2) tier always, the
// AVX2 tier where the CPU has it. Each must reproduce the naive kernels
// bit for bit on its own.

std::vector<gemm::detail::Isa> host_tiers() {
  using gemm::detail::Isa;
  std::vector<Isa> tiers;
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2})
    if (isa <= gemm::detail::host_isa()) tiers.push_back(isa);
  return tiers;
}

/// kOddShapes plus row tails m = 1…9, which cross both the 4-row baseline
/// and the 8-row AVX2 register blocks (n = 19: two full strips + a tail).
std::vector<GemmShape> tier_shapes() {
  std::vector<GemmShape> shapes(std::begin(kOddShapes), std::end(kOddShapes));
  for (std::size_t m = 1; m <= 9; ++m) shapes.push_back({m, 13, 19});
  return shapes;
}

/// Checks matmul / matmul_tn / matmul_nt against the naive kernels on
/// every tier at 1 and 4 threads.
void expect_all_tiers_match_naive(const Tensor& a, const Tensor& b,
                                  const char* what) {
  const Tensor at = transpose(a);
  const Tensor bt = transpose(b);
  const Tensor ref = naive_matmul(a, b);
  const Tensor ref_tn = naive_matmul_tn(at, b);
  const Tensor ref_nt = naive_matmul_nt(a, bt);
  for (const auto isa : host_tiers()) {
    const gemm::detail::IsaOverride tier(isa);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      const std::string ctx = std::string(what) + " " +
                              std::to_string(a.dim(0)) + "x" +
                              std::to_string(a.dim(1)) + "x" +
                              std::to_string(b.dim(1)) + " " +
                              gemm::detail::isa_name(isa) + " @" +
                              std::to_string(threads);
      EXPECT_TRUE(same_bits(matmul(a, b), ref)) << ctx;
      EXPECT_TRUE(same_bits(matmul_tn(at, b), ref_tn)) << "tn " << ctx;
      EXPECT_TRUE(same_bits(matmul_nt(a, bt), ref_nt)) << "nt " << ctx;
    }
  }
}

TEST(GemmBlocked, DeterministicBitIdenticalToNaiveAcrossShapes) {
  PoolGuard pool_guard;
  Rng rng(11);
  for (const auto& sh : tier_shapes()) {
    const Tensor a = sparse_randn({sh.m, sh.k}, rng);
    const Tensor b = sparse_randn({sh.k, sh.n}, rng);
    expect_all_tiers_match_naive(a, b, "sparse");
  }
}

TEST(GemmBlocked, PackedIndexMatchesPackB) {
  // packed_index is the scatter contract used by the fused faulty-forward
  // producer; it must agree with pack_b's layout element for element.
  Rng rng(13);
  const std::size_t k = 9, n = 19;
  const Tensor b = Tensor::randn({k, n}, rng);
  std::vector<float> bp(gemm::packed_size(k, n), -1.0f);
  gemm::pack_b(b.data(), k, n, bp.data());
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(bp[gemm::packed_index(k, kk, j)], b.at(kk, j));
}

TEST(GemmIsa, SignedZerosAndDenormalsBitIdentical) {
  // −0 activations are skipped by the naive kernels (−0 == 0); the
  // branch-free finite-panel path adds their ±0 products instead, which
  // must leave every accumulator's bits alone. Denormal operands and
  // products must round identically on every tier.
  PoolGuard pool_guard;
  const float denorm = std::numeric_limits<float>::denorm_min() * 1000.0f;
  Rng rng(15);
  for (const auto& sh : tier_shapes()) {
    Tensor a = Tensor::randn({sh.m, sh.k}, rng);
    Tensor b = Tensor::randn({sh.k, sh.n}, rng);
    for (std::size_t i = 0; i < a.numel(); ++i) {
      if (i % 3 == 0) a[i] = -0.0f;
      if (i % 3 == 1 && i % 2 == 0) a[i] = 0.0f;
      if (i % 7 == 5) a[i] = (i % 2 == 0 ? denorm : -denorm);
    }
    for (std::size_t i = 0; i < b.numel(); i += 4) b[i] = -0.0f;
    for (std::size_t i = 2; i < b.numel(); i += 9) b[i] = denorm * 7.0f;
    std::vector<float> bp(gemm::packed_size(sh.k, sh.n));
    EXPECT_TRUE(gemm::pack_b(b.data(), sh.k, sh.n, bp.data()));
    expect_all_tiers_match_naive(a, b, "signed-zero/denormal");
  }
}

TEST(GemmIsa, NonFinitePanelsKeepExactZeroSkip) {
  // 0·Inf and 0·NaN are NaN: a panel holding them must keep the naive
  // kernels' exact skip, or zero activations would poison their rows.
  // One non-finite kind per case, so every NaN in flight has one payload.
  PoolGuard pool_guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(16);
  for (const auto& sh : tier_shapes()) {
    for (const float bad : {inf, -inf, nan}) {
      Tensor a = sparse_randn({sh.m, sh.k}, rng);
      Tensor b = Tensor::randn({sh.k, sh.n}, rng);
      // Row 0 of A is zero at kk = 0, where B holds the non-finite value:
      // only the exact skip keeps C(0, 0) finite.
      a.at(0, 0) = 0.0f;
      b.at(0, 0) = bad;
      b.at(sh.k - 1, sh.n - 1) = bad;
      std::vector<float> bp(gemm::packed_size(sh.k, sh.n));
      EXPECT_FALSE(gemm::pack_b(b.data(), sh.k, sh.n, bp.data()));
      EXPECT_FALSE(
          gemm::pack_bt(transpose(b).data(), sh.n, sh.k, bp.data()));
      const Tensor ref = naive_matmul(a, b);
      if (sh.n > 1 || sh.k == 1) {  // else column 0 also holds B(k-1, n-1)
        EXPECT_TRUE(std::isfinite(ref.at(0, 0)));
      }
      expect_all_tiers_match_naive(a, b, "non-finite");
    }
  }
}

TEST(GemmIsa, OverrideRestoresDispatch) {
  using gemm::detail::Isa;
  const auto tiers = host_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.back(), gemm::detail::host_isa());
  EXPECT_STREQ(gemm::dispatched_isa(),
               gemm::detail::isa_name(gemm::detail::host_isa()));
  // Nested overrides must unwind to the host tier.
  EXPECT_EQ(gemm::detail::active_isa(), gemm::detail::host_isa());
  {
    const gemm::detail::IsaOverride outer(Isa::kBaseline);
    EXPECT_EQ(gemm::detail::active_isa(), Isa::kBaseline);
    {
      const gemm::detail::IsaOverride inner(gemm::detail::host_isa());
      EXPECT_EQ(gemm::detail::active_isa(), gemm::detail::host_isa());
    }
    EXPECT_EQ(gemm::detail::active_isa(), Isa::kBaseline);
  }
  EXPECT_EQ(gemm::detail::active_isa(), gemm::detail::host_isa());
}

// ---- Conv glue kernels against naive loops --------------------------------

/// Random values with NaN, −0.0 and +0.0 sprinkled in.
Tensor glue_input(const Shape& shape, Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  const float special[] = {std::numeric_limits<float>::quiet_NaN(), -0.0f,
                           0.0f};
  for (std::size_t i = 0; i < t.numel(); i += 7) t[i] = special[i % 3];
  return t;
}

/// The textbook unfold: one bounds test per patch element.
Tensor naive_im2col(const Tensor& in, const ConvGeometry& g) {
  const std::size_t batch = in.dim(0), oh = g.out_h(), ow = g.out_w();
  Tensor cols({batch * oh * ow, g.patch_len()});
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t y = 0; y < oh; ++y)
      for (std::size_t x = 0; x < ow; ++x) {
        std::size_t idx = 0;
        for (std::size_t c = 0; c < g.in_channels; ++c)
          for (std::size_t kh = 0; kh < g.kernel; ++kh)
            for (std::size_t kw = 0; kw < g.kernel; ++kw, ++idx) {
              const long iy = static_cast<long>(y * g.stride + kh) -
                              static_cast<long>(g.pad);
              const long ix = static_cast<long>(x * g.stride + kw) -
                              static_cast<long>(g.pad);
              const bool inside = iy >= 0 && ix >= 0 &&
                                  iy < static_cast<long>(g.in_h) &&
                                  ix < static_cast<long>(g.in_w);
              cols.at((n * oh + y) * ow + x, idx) =
                  inside ? in.at4(n, c, static_cast<std::size_t>(iy),
                                  static_cast<std::size_t>(ix))
                         : 0.0f;
            }
      }
  return cols;
}

TEST(Ops, ConvGlueMatchesNaive) {
  PoolGuard pool_guard;
  struct Case {
    std::size_t batch, c, h, w, k, stride, pad, oc;
  };
  const Case cases[] = {
      {16, 8, 20, 17, 3, 1, 1, 48},  // every kernel fans out at 4 threads
      {5, 3, 11, 7, 3, 2, 0, 6},     // stride 2, no pad, in_h != in_w
      {3, 2, 9, 13, 5, 2, 2, 6},     // stride 2, pad 2
      {2, 3, 3, 4, 5, 1, 2, 6},      // kernel wider than the input
      {4, 1, 6, 5, 1, 1, 0, 6},      // 1×1 kernel
  };
  Rng rng(31);
  for (const Case& cs : cases) {
    const ConvGeometry g{cs.c, cs.h, cs.w, cs.k, cs.stride, cs.pad};
    const Tensor in = glue_input({cs.batch, cs.c, cs.h, cs.w}, rng);
    const std::size_t oh = g.out_h(), ow = g.out_w(), oc = cs.oc;
    const Tensor rows = glue_input({cs.batch * oh * ow, oc}, rng);
    Tensor bias = glue_input({oc}, rng);
    bias[1] = 0.0f;  // bias +0 must still turn −0 into +0, as an add does
    // rows_to_nchw / nchw_to_rows reference: add_row_vector, then at4.
    Tensor biased = rows;
    add_row_vector(biased, bias);
    Tensor nchw({cs.batch, oc, oh, ow}), nchw_biased({cs.batch, oc, oh, ow});
    for (std::size_t n = 0; n < cs.batch; ++n)
      for (std::size_t y = 0; y < oh; ++y)
        for (std::size_t x = 0; x < ow; ++x)
          for (std::size_t c = 0; c < oc; ++c) {
            const std::size_t r = (n * oh + y) * ow + x;
            nchw.at4(n, c, y, x) = rows.at(r, c);
            nchw_biased.at4(n, c, y, x) = biased.at(r, c);
          }
    const Tensor cols_ref = naive_im2col(in, g);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "case " << cs.h << "x" << cs.w
                                      << " k" << cs.k << " s" << cs.stride
                                      << " p" << cs.pad << ", " << threads
                                      << " threads");
      ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(same_bits(im2col(in, g), cols_ref));
      EXPECT_TRUE(same_bits(rows_to_nchw(rows, cs.batch, oc, oh, ow),
                                 nchw));
      EXPECT_TRUE(same_bits(
          rows_to_nchw(rows, cs.batch, oc, oh, ow, &bias), nchw_biased));
      EXPECT_TRUE(same_bits(nchw_to_rows(nchw), rows));
    }
  }

  // ReLU: y = x > 0 ? x : +0 (NaN and −0 → +0); backward passes the
  // gradient where x > 0 and writes +0 elsewhere (a NaN gradient passes).
  const Tensor x = glue_input({4, 8, 64, 65}, rng);  // > 2 pool grains
  const Tensor gy = glue_input(x.shape(), rng);
  Tensor y_ref(x.shape()), gx_ref(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (x[i] > 0.0f) {
      y_ref[i] = x[i];
      gx_ref[i] = gy[i];
    }
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    ThreadPool::set_global_threads(threads);
    ReLU relu("relu");
    EXPECT_TRUE(same_bits(relu.forward(x, /*train=*/false), y_ref));
    EXPECT_TRUE(same_bits(relu.forward(x, /*train=*/true), y_ref));
    EXPECT_TRUE(same_bits(relu.backward(gy), gx_ref));
  }
}

}  // namespace
}  // namespace refit
