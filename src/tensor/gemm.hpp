// Blocked, register-tiled GEMM core shared by the tensor kernels
// (tensor/ops.cpp) and the RCS fused faulty-forward kernel
// (rcs/crossbar_store.cpp).
//
// Layout: the right-hand matrix is packed into column strips of kNR
// contiguous floats per k-step — strip s holds columns [s·kNR, (s+1)·kNR)
// as a k×kNR panel at bp + s·k·kNR, tail lanes zero-padded. The micro-
// kernel then streams one L1-resident strip against a block of A rows,
// accumulating a rows×kNR register block down the full k extent.
//
// ISA dispatch: the micro-kernels come in a baseline build (explicit SSE2
// on x86-64, portable scalar elsewhere, 4-row blocks) and an AVX2 build
// (one 8-lane register per C row, 8-row blocks) compiled for that ISA in
// gemm.cpp alone; run() picks the widest tier the CPU supports once at
// start-up, so one binary serves any x86-64 host.
//
// Determinism: each output element is an independent dot product whose
// additions run in k-ascending order from a zero accumulator — exactly the
// sequence the pre-blocking naive kernels performed — so results are
// bit-identical to them on every ISA tier (separate multiply and add,
// never FMA) and across thread counts (lanes write disjoint C rows). This
// is the only reduction contract: fault detection, pruning and re-mapping
// all act on these exact outputs.
#pragma once

#include <cstddef>
#include <vector>

namespace refit {

namespace gemm {

/// Strip width: kNR C columns per register row — two 4-wide SSE2 vectors
/// or one 8-wide AVX2 vector. The row height of the register block is
/// per ISA (4 rows baseline, 8 rows AVX2) and private to gemm.cpp.
inline constexpr std::size_t kNR = 8;

/// Number of kNR-wide column strips covering n columns.
[[nodiscard]] constexpr std::size_t strip_count(std::size_t n) {
  return (n + kNR - 1) / kNR;
}

/// Elements of a packed panel buffer for a k×n right-hand side.
[[nodiscard]] constexpr std::size_t packed_size(std::size_t k, std::size_t n) {
  return strip_count(n) * k * kNR;
}

/// Flat index of element (kk, j) inside a packed panel buffer — the
/// scatter target for producers that pack from non-matrix sources (the
/// fused faulty-forward kernel packs straight from crossbar tiles).
[[nodiscard]] constexpr std::size_t packed_index(std::size_t k, std::size_t kk,
                                                 std::size_t j) {
  return ((j / kNR) * k + kk) * kNR + (j % kNR);
}

/// Pack row-major B[k,n] into strips (tail lanes zeroed). Returns whether
/// every packed element is finite — run()'s `bp_finite` argument.
bool pack_b(const float* b, std::size_t k, std::size_t n, float* bp);

/// Pack row-major Bᵀ[n,k] into strips of the implied B[k,n] — the
/// matmul_nt right-hand side (tail lanes zeroed). Returns whether every
/// packed element is finite.
bool pack_bt(const float* bt, std::size_t n, std::size_t k, float* bp);

/// Transpose-pack column-walked A[k,m] into row-major At[m,k] — removes
/// matmul_tn's stride-m column walk from the inner loop.
void pack_at(const float* a, std::size_t k, std::size_t m, float* at);

/// C[m,n] (row-major, ldc) = A[m,k] (row-major, lda) · packed B. Fans C
/// rows across the pool with grain control. `zero_skip` gives the naive
/// kernels' `if (a == 0) continue` (the post-ReLU sparsity shortcut)
/// semantics. When `bp_finite` (every packed element finite) the skip is
/// a no-op on the bits — a ±0 product added to an accumulator that starts
/// at +0 never changes it — so the kernel drops the per-row branch; only
/// panels holding Inf/NaN branch (0·Inf would otherwise inject a NaN).
void run(std::size_t m, std::size_t k, std::size_t n, const float* a,
         std::size_t lda, const float* bp, float* c, std::size_t ldc,
         bool zero_skip, bool bp_finite);

/// Thread-local scratch buffer for packed panels (slot 0: right-hand
/// panels, slot 1: transposed A panels). Contents are call-local.
[[nodiscard]] std::vector<float>& scratch(std::size_t slot);

/// Name of the micro-kernel tier run() dispatches to on this host:
/// "avx2", "sse2" or "generic" (bench provenance).
[[nodiscard]] const char* dispatched_isa();

namespace detail {

/// Micro-kernel tiers, narrowest first. kBaseline is SSE2 on x86-64 and
/// portable scalar elsewhere; kAvx2 is the 8-wide kernel.
enum class Isa : unsigned char { kBaseline, kAvx2 };

/// Widest tier this CPU supports (probed once).
[[nodiscard]] Isa host_isa();
[[nodiscard]] const char* isa_name(Isa isa);

/// Test seam: the tier run() dispatches to right now — host_isa() unless
/// an IsaOverride is alive.
[[nodiscard]] Isa active_isa();

/// Test seam: while alive, run() dispatches to `isa` instead of
/// host_isa(), so every tier can be checked on a wide host. `isa` must not
/// exceed host_isa(). Not thread-safe against concurrent overrides.
class IsaOverride {
 public:
  explicit IsaOverride(Isa isa);
  ~IsaOverride();
  IsaOverride(const IsaOverride&) = delete;
  IsaOverride& operator=(const IsaOverride&) = delete;

 private:
  Isa prev_;
};

}  // namespace detail

}  // namespace gemm
}  // namespace refit
