// Packed-panel GEMM micro-kernels behind tensor/gemm.hpp.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

// The AVX2 tier is compiled per function (target attributes), not with a
// global -mavx2, and selected at run time — the rest of the binary keeps
// the baseline ISA and still runs on SSE2-only hosts.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REFIT_GEMM_AVX2 1
#include <immintrin.h>
#define REFIT_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define REFIT_GEMM_AVX2 0
#endif

namespace refit {
namespace gemm {

namespace {

/// Row-block height of the mid loop: bounds the A slab a lane streams per
/// strip pass to kMC×k floats so it stays L2-resident at bench shapes.
constexpr std::size_t kMC = 64;

// Micro-kernel families. Each is a struct with the ISA's register-block
// height kRows and a `micro<MR>` template computing MR C rows × kNR C
// columns of one strip, MR ≤ kRows fixed at compile time (full unroll,
// accumulators in registers). Every family accumulates each C element
// k-ascending from a +0 register with one IEEE multiply and one IEEE add
// per kk — the exact rounding sequence of the pre-blocking naive kernels,
// so all tiers produce the same bits. ZeroSkip = true keeps the naive
// kernels' `if (a == 0) continue`; run() selects it only for panels holding
// Inf/NaN (see gemm.hpp).

/// Copy an MR×kNR accumulator block to C, clipping to the nvalid columns
/// of a tail strip.
template <std::size_t MR>
void store_block(const float (&acc)[MR][kNR], float* c, std::size_t ldc,
                 std::size_t nvalid) {
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t j = 0; j < nvalid; ++j) c[r * ldc + j] = acc[r][j];
}

#if defined(__SSE2__)
/// Baseline deterministic kernel, explicit SSE2 lanes (two __m128 per C
/// row). _mm_mul_ps/_mm_add_ps round exactly like the scalar ops, so the
/// bits match the scalar form. Hand-written because GCC's SLP pass turns
/// the branchless variant into shuffle soup (~3x slower than
/// broadcast-axpy).
template <bool ZeroSkip>
struct BaseDet {
  static constexpr std::size_t kRows = 4;
  template <std::size_t MR>
  static void micro(std::size_t k, const float* a, std::size_t lda,
                    const float* bp, float* c, std::size_t ldc,
                    std::size_t nvalid) {
    __m128 lo[MR];
    __m128 hi[MR];
    for (std::size_t r = 0; r < MR; ++r) {
      lo[r] = _mm_setzero_ps();
      hi[r] = _mm_setzero_ps();
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const __m128 blo = _mm_loadu_ps(bp + kk * kNR);
      const __m128 bhi = _mm_loadu_ps(bp + kk * kNR + 4);
      for (std::size_t r = 0; r < MR; ++r) {
        const float av = a[r * lda + kk];
        if constexpr (ZeroSkip) {
          if (av == 0.0f) continue;
        }
        const __m128 va = _mm_set1_ps(av);
        lo[r] = _mm_add_ps(lo[r], _mm_mul_ps(va, blo));
        hi[r] = _mm_add_ps(hi[r], _mm_mul_ps(va, bhi));
      }
    }
    float acc[MR][kNR];
    for (std::size_t r = 0; r < MR; ++r) {
      _mm_storeu_ps(acc[r], lo[r]);
      _mm_storeu_ps(acc[r] + 4, hi[r]);
    }
    store_block<MR>(acc, c, ldc, nvalid);
  }
};
#else
/// Portable scalar form: the kNR-wide inner loops carry independent
/// accumulators, so they vectorize without reassociating anything.
template <bool ZeroSkip>
struct BaseDet {
  static constexpr std::size_t kRows = 4;
  template <std::size_t MR>
  static void micro(std::size_t k, const float* a, std::size_t lda,
                    const float* bp, float* c, std::size_t ldc,
                    std::size_t nvalid) {
    float acc[MR][kNR] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = bp + kk * kNR;
      for (std::size_t r = 0; r < MR; ++r) {
        const float av = a[r * lda + kk];
        if constexpr (ZeroSkip) {
          if (av == 0.0f) continue;
        }
        for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
      }
    }
    store_block<MR>(acc, c, ldc, nvalid);
  }
};
#endif

#if REFIT_GEMM_AVX2
/// Store MR 8-lane accumulators to C: straight to memory for full strips,
/// through a clipped copy for the tail strip.
template <std::size_t MR>
REFIT_TARGET_AVX2 void store_avx2(const __m256 (&acc)[MR], float* c,
                                  std::size_t ldc, std::size_t nvalid) {
  if (nvalid == kNR) {
    for (std::size_t r = 0; r < MR; ++r) _mm256_storeu_ps(c + r * ldc, acc[r]);
    return;
  }
  float tmp[MR][kNR];
  for (std::size_t r = 0; r < MR; ++r) _mm256_storeu_ps(tmp[r], acc[r]);
  store_block<MR>(tmp, c, ldc, nvalid);
}

/// AVX2 deterministic kernel: one __m256 accumulator per C row over the
/// whole strip, up to 8 rows per block (8 accumulators + the B row + a
/// broadcast fit the 16 ymm registers). Separate _mm256_mul_ps and
/// _mm256_add_ps, never FMA, with the operands in the baseline kernel's
/// order — per lane the same two IEEE operations, so the same bits.
template <bool ZeroSkip>
struct Avx2Det {
  static constexpr std::size_t kRows = 8;
  template <std::size_t MR>
  REFIT_TARGET_AVX2 static void micro(std::size_t k, const float* a,
                                      std::size_t lda, const float* bp,
                                      float* c, std::size_t ldc,
                                      std::size_t nvalid) {
    __m256 acc[MR];
    for (std::size_t r = 0; r < MR; ++r) acc[r] = _mm256_setzero_ps();
    for (std::size_t kk = 0; kk < k; ++kk) {
      const __m256 b = _mm256_loadu_ps(bp + kk * kNR);
      for (std::size_t r = 0; r < MR; ++r) {
        const float av = a[r * lda + kk];
        if constexpr (ZeroSkip) {
          if (av == 0.0f) continue;
        }
        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_set1_ps(av), b));
      }
    }
    store_avx2<MR>(acc, c, ldc, nvalid);
  }
};
#endif

/// Row tail of a strip pass: `rows` < K::kRows rows through the one
/// K::micro instantiation of exactly that height.
template <typename K, std::size_t R>
void micro_tail(std::size_t rows, std::size_t k, const float* a,
                std::size_t lda, const float* bp, float* c, std::size_t ldc,
                std::size_t nvalid) {
  if constexpr (R > 1) {
    if (rows < R) {
      micro_tail<K, R - 1>(rows, k, a, lda, bp, c, ldc, nvalid);
      return;
    }
  }
  K::template micro<R>(k, a, lda, bp, c, ldc, nvalid);
}

/// One strip pass: `rows` C rows × one kNR strip, in K::kRows-row register
/// blocks plus one tail block.
template <typename K>
void strip_pass(std::size_t rows, std::size_t k, const float* a,
                std::size_t lda, const float* bp, float* c, std::size_t ldc,
                std::size_t nvalid) {
  std::size_t i = 0;
  for (; i + K::kRows <= rows; i += K::kRows) {
    K::template micro<K::kRows>(k, a + i * lda, lda, bp, c + i * ldc, ldc,
                                nvalid);
  }
  if (i < rows) {
    micro_tail<K, K::kRows - 1>(rows - i, k, a + i * lda, lda, bp,
                                c + i * ldc, ldc, nvalid);
  }
}

using StripFn = void (*)(std::size_t rows, std::size_t k, const float* a,
                         std::size_t lda, const float* bp, float* c,
                         std::size_t ldc, std::size_t nvalid);

/// The two strip passes of one ISA tier.
struct KernelSet {
  StripFn det_skip;  ///< exact zero skip (non-finite panels)
  StripFn det;       ///< branch-free
};

/// Indexed by detail::Isa. Without the AVX2 build every tier runs the
/// baseline kernels (host_isa() never reports a wider tier there).
constexpr KernelSet kKernels[] = {
    {strip_pass<BaseDet<true>>, strip_pass<BaseDet<false>>},
#if REFIT_GEMM_AVX2
    {strip_pass<Avx2Det<true>>, strip_pass<Avx2Det<false>>},
#else
    {strip_pass<BaseDet<true>>, strip_pass<BaseDet<false>>},
#endif
};

/// The tier run() dispatches to: host_isa() unless a test override is live.
std::atomic<detail::Isa>& isa_cell() {
  static std::atomic<detail::Isa> isa{detail::host_isa()};
  return isa;
}

/// True iff none of p[0, n) is Inf or NaN. Branch-free so the pack loops
/// stay vectorizable.
bool all_finite(const float* p, std::size_t n) {
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) finite &= std::isfinite(p[i]);
  return finite;
}

}  // namespace

bool pack_b(const float* b, std::size_t k, std::size_t n, float* bp) {
  const std::size_t nstrips = strip_count(n);
  std::atomic<bool> finite{true};
  // kk-major walk: reads stream B once; each row scatters into the strip
  // panels. Lanes own disjoint kk ranges of every panel.
  parallel_for_grained(k, n, [&](std::size_t k0, std::size_t k1) {
    bool lane_finite = true;
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const float* row = b + kk * n;
      lane_finite &= all_finite(row, n);
      for (std::size_t s = 0; s < nstrips; ++s) {
        float* dst = bp + (s * k + kk) * kNR;
        const std::size_t j0 = s * kNR;
        const std::size_t nvalid = std::min(kNR, n - j0);
        std::memcpy(dst, row + j0, nvalid * sizeof(float));
        for (std::size_t r = nvalid; r < kNR; ++r) dst[r] = 0.0f;
      }
    }
    if (!lane_finite) finite.store(false, std::memory_order_relaxed);
  });
  return finite.load(std::memory_order_relaxed);
}

bool pack_bt(const float* bt, std::size_t n, std::size_t k, float* bp) {
  std::atomic<bool> finite{true};
  // Strip-major: each strip transposes kNR contiguous Bᵀ rows (L1-resident
  // sources, contiguous reads). Lanes own disjoint strips.
  parallel_for_grained(
      strip_count(n), k * kNR, [&](std::size_t s0, std::size_t s1) {
        bool lane_finite = true;
        for (std::size_t s = s0; s < s1; ++s) {
          float* panel = bp + s * k * kNR;
          const std::size_t j0 = s * kNR;
          const std::size_t nvalid = std::min(kNR, n - j0);
          for (std::size_t r = 0; r < nvalid; ++r) {
            const float* src = bt + (j0 + r) * k;
            lane_finite &= all_finite(src, k);
            for (std::size_t kk = 0; kk < k; ++kk)
              panel[kk * kNR + r] = src[kk];
          }
          for (std::size_t r = nvalid; r < kNR; ++r)
            for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kNR + r] = 0.0f;
        }
        if (!lane_finite) finite.store(false, std::memory_order_relaxed);
      });
  return finite.load(std::memory_order_relaxed);
}

void pack_at(const float* a, std::size_t k, std::size_t m, float* at) {
  parallel_for_grained(m, k, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* dst = at + i * k;
      for (std::size_t kk = 0; kk < k; ++kk) dst[kk] = a[kk * m + i];
    }
  });
}

void run(std::size_t m, std::size_t k, std::size_t n, const float* a,
         std::size_t lda, const float* bp, float* c, std::size_t ldc,
         bool zero_skip, bool bp_finite) {
  const KernelSet& kernels =
      kKernels[static_cast<std::size_t>(detail::active_isa())];
  // With a finite panel the skip cannot change a bit (gemm.hpp), so only
  // non-finite panels pay for the per-row branch.
  const StripFn pass =
      zero_skip && !bp_finite ? kernels.det_skip : kernels.det;
  const std::size_t nstrips = strip_count(n);
  // Lanes own contiguous C row blocks; within a lane the mid loop holds a
  // kMC-row A slab against every (L1-resident) packed strip.
  parallel_for_grained(m, 2 * k * n, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t ic = i0; ic < i1; ic += kMC) {
      const std::size_t rows = std::min(i1, ic + kMC) - ic;
      for (std::size_t s = 0; s < nstrips; ++s) {
        const std::size_t j0 = s * kNR;
        pass(rows, k, a + ic * lda, lda, bp + s * k * kNR, c + ic * ldc + j0,
             ldc, std::min(kNR, n - j0));
      }
    }
  });
}

std::vector<float>& scratch(std::size_t slot) {
  thread_local std::vector<float> buffers[2];
  REFIT_DCHECK_MSG(slot < 2, "gemm::scratch slot " << slot << " out of range");
  return buffers[slot];
}

const char* dispatched_isa() { return detail::isa_name(detail::host_isa()); }

namespace detail {

Isa host_isa() {
  static const Isa isa = [] {
#if REFIT_GEMM_AVX2
    // Checks OS support for the YMM state as well as the CPUID bits.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
    return Isa::kBaseline;
  }();
  return isa;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kBaseline:
      break;
  }
#if defined(__SSE2__)
  return "sse2";
#else
  return "generic";
#endif
}

Isa active_isa() { return isa_cell().load(std::memory_order_relaxed); }

IsaOverride::IsaOverride(Isa isa) : prev_(active_isa()) {
  REFIT_CHECK_MSG(isa <= host_isa(), "IsaOverride: " << isa_name(isa)
                                         << " not supported on this host");
  isa_cell().store(isa, std::memory_order_relaxed);
}

IsaOverride::~IsaOverride() {
  isa_cell().store(prev_, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace gemm
}  // namespace refit
