// Runtime-dispatched CPU microkernels for the factor/inverse hot path.
//
// Everything numeric the distributed optimizer spends its time in — the
// GEMM variants behind factor construction, the blocked Cholesky
// factorization and the triangular solves of the preconditioned update,
// the dot products that finish the Cholesky panels, symmetric
// pack/unpack, the EMA fold, and the collectives' elementwise reduce
// loops — funnels through the function-pointer table returned by
// active().  Two implementations exist:
//
//   kScalar — portable C++ loops, the cross-platform numeric reference;
//   kAvx2   — cache-blocked AVX2/FMA double-precision microkernels
//             (4x12 broadcast tiles over 128-step k chunks for
//             gemm_nn/gemm_tn, 4x3 dot tiles for gemm_nt, 4-lane FMA
//             dot products, 4x4 in-register transposes),
//             compiled only on x86-64 and selected only when CPUID
//             reports AVX2+FMA.
//
// Dispatch is resolved once, at first use: the SPDKFAC_ISA environment
// variable ("scalar" or "avx2") overrides CPUID detection — requesting
// an unsupported level silently degrades to the best available one, so a
// pinned-ISA test suite still runs (and records what it ran at) on older
// hardware.  Tests and benches may also switch levels mid-process with
// force().
//
// Determinism contract (what the bitwise test suites rely on):
//
//   * Every kernel's result is a pure function of (inputs, shape, ISA
//     level).  Accumulation orders are fixed per level: the GEMMs sum k
//     ascending per output element, in place in C, regardless of row
//     chunking, register blocking or k chunking (so a k range split over
//     consecutive calls gives the bits of one call); dot() uses a fixed
//     4-lane stripe + fixed-tree horizontal sum + ascending tail (at the
//     AVX2 level one explicit std::fma per tail element, so no compiler's
//     contraction choice can move its bits).  Callers such as the blocked
//     Cholesky factorization and its triangular solves fix their block
//     widths and derive every chunk boundary from the shape alone, so
//     results never depend on the exec pool size.  Callers hand the GEMMs
//     row blocks in multiples of 4 so the AVX2 4-row tiles run instead of
//     their 1-row leftover path; that is a speed rule, not a correctness
//     rule.
//   * Different ISA levels may round differently (FMA contracts mul+add
//     into one rounding); bitwise determinism holds *within* a level,
//     and the scalar level is the portable reference.
//   * The purely elementwise kernels (add/max/scale) are bitwise
//     identical across levels — vector lanes round exactly like the
//     scalar ops — which keeps the collectives' reduction bits stable
//     no matter which level each test forces.
//
// All pointers are to row-major double storage; kernels accept leading
// dimensions and never require alignment (unaligned loads are used
// throughout; the BufferArena still hands out 64-byte-aligned slabs so
// the common case hits aligned fast paths in hardware).
#pragma once

#include <cstddef>
#include <cstdint>

namespace spdkfac::tensor::kernels {

enum class Isa { kScalar = 0, kAvx2 = 1 };

const char* to_string(Isa isa) noexcept;

/// Whether this build + CPU can execute the level (kScalar: always).
bool supported(Isa isa) noexcept;

/// Highest supported level (CPUID-detected at first call).
Isa best_supported() noexcept;

/// Level in effect: resolved on first use from SPDKFAC_ISA (falling back
/// to best_supported() when unset, unparsable, or unsupported).
Isa active() noexcept;

/// Pins the active level (tests/benches).  Throws std::invalid_argument
/// for a level this build/CPU cannot execute.  Not thread-safe against
/// kernels running concurrently — switch between steps only.
void force(Isa isa);

/// One ISA level's kernel set.  All matrix arguments are row-major with
/// explicit leading dimensions; `rows`-style extents are block extents, so
/// callers pass pointers already offset to their block.
struct KernelTable {
  Isa isa;

  /// C[0..rows)x[0..N) += A[0..rows)x[0..K) * B[0..K)x[0..N).
  /// Per-element accumulation order: k ascending.
  void (*gemm_nn)(std::size_t rows, std::size_t K, std::size_t N,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc);

  /// C[0..rows)x[0..N) += A^T block * B: c(i,j) += a[k*lda + i] * b(k,j)
  /// (a points at the first column of the block).  k ascending.
  void (*gemm_tn)(std::size_t rows, std::size_t K, std::size_t N,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc);

  /// C[0..rows)x[0..M) += A * B^T: c(i,j) += dot(a_i, b_j) over K.
  void (*gemm_nt)(std::size_t rows, std::size_t K, std::size_t M,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc);

  /// sum_k x[k] * y[k] — finishes each Cholesky panel against its own
  /// columns.
  double (*dot)(const double* x, const double* y, std::size_t n);

  // Elementwise reduce loops shared with comm::detail::accumulate/finalize
  // (bitwise identical across ISA levels — see file comment).
  void (*add)(double* dst, const double* src, std::size_t n);
  void (*max)(double* dst, const double* src, std::size_t n);
  void (*scale)(double* dst, std::size_t n, double s);

  /// state = decay*state + (1-decay)*fresh, elementwise (the factor EMA).
  void (*ema)(double* state, const double* fresh, std::size_t n,
              double decay);

  /// Folds a packed upper triangle straight into a dense symmetric EMA
  /// state (both triangles), with no dense intermediate: with init (the
  /// unpack), state(r,c) = packed value; else
  /// state(r,c) = decay*state(r,c) + (1-decay)*value.  Requires the dense
  /// state to be exactly symmetric (bitwise), which the EMA preserves.
  void (*ema_unpack)(const double* packed, std::size_t d, double* state,
                     std::size_t lds, double decay, bool init);

  /// Dense symmetric -> packed upper triangle (row-major, incl. diagonal);
  /// ema_unpack with init is the way back.
  void (*pack_upper)(const double* a, std::size_t d, std::size_t lda,
                     double* out);

  /// out(c, r) = in(r, c), cache-blocked.
  void (*transpose)(const double* in, std::size_t rows, std::size_t cols,
                    std::size_t ldi, double* out, std::size_t ldo);

  // -------------------------------------------------------------------------
  // Compressed-collective codec primitives (comm::Codec).  All four codec
  // kernels are bitwise identical across ISA levels: the fp16 conversion is
  // one shared software IEEE-754 converter (double -> float -> half, both
  // steps round-to-nearest-even) whose vector variant only vectorizes the
  // exactly-rounded double<->float step, and the int8 quantize is an
  // elementwise multiply + RNE round + clamp, all of which round the same
  // in scalar and vector lanes.  That is what lets the compressed
  // collectives promise cross-rank bitwise results regardless of which
  // level each rank dispatched to.
  // -------------------------------------------------------------------------

  /// max_i |src[i]| (0.0 for n == 0) — the int8 per-chunk scale probe.
  /// Exact (no rounding), hence order-independent and bitwise across levels.
  double (*absmax)(const double* src, std::size_t n);

  /// dst[i] = clamp(rne(src[i] * inv_scale), -127, 127) as a signed byte.
  /// inv_scale == 0 quantizes everything to 0 (the all-zero-chunk case).
  void (*int8_quantize)(const double* src, std::size_t n, double inv_scale,
                        signed char* dst);

  /// dst[i] = scale * src[i] (bytes widened exactly, one correctly rounded
  /// multiply).
  void (*int8_dequantize)(const signed char* src, std::size_t n, double scale,
                          double* dst);

  /// dst[i] = IEEE-754 binary16 bits of src[i], via double -> float (RNE)
  /// -> half (RNE).
  void (*fp16_pack)(const double* src, std::size_t n, std::uint16_t* dst);

  /// dst[i] = the exact double value of the half bits in src[i].
  void (*fp16_unpack)(const std::uint16_t* src, std::size_t n, double* dst);
};

/// The table of one specific level (kernel unit tests compare levels).
/// Requesting an unsupported level returns the scalar table.
const KernelTable& table(Isa isa) noexcept;

/// The table of the active level.  Callers should grab the reference once
/// per operation so a concurrent force() cannot tear a multi-call kernel.
inline const KernelTable& active_table() noexcept { return table(active()); }

}  // namespace spdkfac::tensor::kernels
