// AVX2/FMA kernel table — 256-bit double-precision microkernels.
//
// Compiled with -mavx2 -mfma only when CMake detected an x86-64 target
// whose compiler accepts the flags (SPDKFAC_KERNELS_AVX2 is then defined
// for this TU alone, so no other object file ever contains AVX
// instructions); otherwise the table aliases the scalar one and
// avx2_compiled() reports false, which keeps the dispatcher honest on
// other architectures.
//
// Register-tiling scheme:
//   * gemm_nn / gemm_tn: 4x12 micro-tiles (12 YMM accumulators) with the
//     k loop innermost, over k chunks of kKc steps that keep a tile's
//     strips in L1.  Each k step loads three B vectors and broadcasts the
//     four a(i+r, k) straight from memory (vbroadcastsd m64 is a
//     load-port uop): no set_pd gather and no vpermpd splats competing
//     for the one shuffle port, so the step is bound by its 12 FMAs.  The
//     N mod 12 remainder runs at most one 4x8 tile, then 4-row x
//     <=4-column masked strips (maskload/maskstore); the < 4 leftover
//     rows run the same shapes one row high.  Every C element accumulates
//     one FMA per k step, strictly k ascending, in place — bitwise
//     independent of the caller's row chunking and of whether its column
//     lands in a 12-wide tile, an 8-wide one or a strip, as the
//     determinism suite requires.
//   * gemm_nt: 4x3 tiles of FMA dot products (12 accumulators; four A and
//     three B loads per 4-wide k stripe), each reduced with the same
//     fixed-tree horizontal sum and ascending std::fma tail as dot(), so
//     every element equals c + dot(a_i, b_j) bit for bit.  The M mod 3 columns
//     run 4x1 blocks, the < 4 leftover rows 1x4 blocks and single dots.
//   * transpose / unpack mirror: 4x4 in-register transposes
//     (unpacklo/hi + 128-bit permutes) over 32x32 cache blocks.
//
// Elementwise kernels (add/max/scale) round identically to scalar ops, so
// they are bitwise equal to the scalar table; the FMA-contracted kernels
// are not, which is exactly why determinism is promised per ISA level.
#include "tensor/kernels/tables.hpp"

#if defined(SPDKFAC_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace spdkfac::tensor::kernels {

namespace {

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Fixed-tree horizontal sum: (l0 + l2) + (l1 + l3).  One definition used
/// by every reduction kernel, so per-element results depend only on the
/// element count.
inline double hsum(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // (l0+l2, l1+l3)
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(y + k),
                          acc);
  }
  double sum = hsum(acc);
  for (; k < n; ++k) sum = std::fma(x[k], y[k], sum);
  return sum;
}

/// In-register transpose of a 4x4 double tile.
inline void transpose4x4(__m256d& r0, __m256d& r1, __m256d& r2,
                         __m256d& r3) noexcept {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// ---------------------------------------------------------------------------
// GEMM family
// ---------------------------------------------------------------------------

/// a(i + r, k) for the row block whose first row is `a`: gemm_nn reads
/// a[r*lda + k] (kTransA false), gemm_tn a[k*lda + r] (kTransA true).
template <bool kTransA>
inline const double* a_at(const double* a, std::size_t lda, std::size_t r,
                          std::size_t k) noexcept {
  return kTransA ? a + k * lda + r : a + r * lda + k;
}

/// Lane mask selecting the first min(width, 4) doubles of a YMM register.
inline __m256i lane_mask(std::size_t width) noexcept {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(width)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// kRows x 4*kNv micro-tile: C rows i..i+kRows-1, columns j..j+4*kNv-1,
/// full K sweep in registers, one FMA per element per k step, k
/// ascending.  Each step loads kNv B vectors and broadcasts every
/// a(i+r, k) straight from memory: a memory-source vbroadcastsd is a
/// load-port uop, so a step issues nothing but loads and kRows*kNv FMAs.
/// The 4x12 tile holds 12 accumulators, 3 B vectors and one broadcast:
/// all 16 YMM registers.  A kMasked tile is one vector wide and `mask`
/// picks its first <= 4 columns (masked-off lanes are never read or
/// written); unmasked tiles ignore `mask`.
template <bool kTransA, std::size_t kRows, std::size_t kNv, bool kMasked>
inline void tile(std::size_t K, const double* a, std::size_t lda,
                 const double* b, std::size_t ldb, __m256i mask, double* c,
                 std::size_t ldc) {
  static_assert(!kMasked || kNv == 1);
  const auto load = [&](const double* p) {
    if constexpr (kMasked) {
      return _mm256_maskload_pd(p, mask);
    } else {
      return _mm256_loadu_pd(p);
    }
  };
  __m256d acc[kRows][kNv];
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t v = 0; v < kNv; ++v) {
      acc[r][v] = load(c + r * ldc + 4 * v);
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    __m256d bk[kNv];
    for (std::size_t v = 0; v < kNv; ++v) bk[v] = load(b + k * ldb + 4 * v);
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m256d ar = _mm256_broadcast_sd(a_at<kTransA>(a, lda, r, k));
      for (std::size_t v = 0; v < kNv; ++v) {
        acc[r][v] = _mm256_fmadd_pd(ar, bk[v], acc[r][v]);
      }
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t v = 0; v < kNv; ++v) {
      if constexpr (kMasked) {
        _mm256_maskstore_pd(c + r * ldc, mask, acc[r][v]);
      } else {
        _mm256_storeu_pd(c + r * ldc + 4 * v, acc[r][v]);
      }
    }
  }
}

/// Every row of one column strip: 4-row tiles, then the < 4 leftover rows
/// one at a time.  Columns outermost keep the strip's B block (kKc x 12
/// doubles at most) in L1 while the A panel streams past it.  `width` is
/// the columns left from the strip's first one; a masked strip covers
/// min(width, 4) of them.
template <bool kTransA, std::size_t kNv, bool kMasked>
inline void column_strip(std::size_t rows, std::size_t K, std::size_t width,
                         const double* a, std::size_t lda, const double* b,
                         std::size_t ldb, double* c, std::size_t ldc) {
  const __m256i mask = lane_mask(width);
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    tile<kTransA, 4, kNv, kMasked>(K, a_at<kTransA>(a, lda, i, 0), lda, b,
                                   ldb, mask, c + i * ldc, ldc);
  }
  for (; i < rows; ++i) {
    tile<kTransA, 1, kNv, kMasked>(K, a_at<kTransA>(a, lda, i, 0), lda, b,
                                   ldb, mask, c + i * ldc, ldc);
  }
}

/// One k chunk of gemm_nn (kTransA false) or gemm_tn (kTransA true) over
/// all `rows` x N outputs: 12-wide column strips, then for the N mod 12
/// remainder at most one 8-wide strip and masked <= 4-wide strips.
template <bool kTransA>
inline void gemm_panel(std::size_t rows, std::size_t K, std::size_t N,
                       const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, double* c, std::size_t ldc) {
  std::size_t j = 0;
  for (; j + 12 <= N; j += 12) {
    column_strip<kTransA, 3, false>(rows, K, N - j, a, lda, b + j, ldb,
                                    c + j, ldc);
  }
  if (j + 8 <= N) {
    column_strip<kTransA, 2, false>(rows, K, N - j, a, lda, b + j, ldb,
                                    c + j, ldc);
    j += 8;
  }
  for (; j < N; j += 4) {
    column_strip<kTransA, 1, true>(rows, K, N - j, a, lda, b + j, ldb,
                                   c + j, ldc);
  }
}

/// k-range chunk of the GEMMs: a micro-tile's A and B strips over kKc
/// steps stay L1-resident however long K is.  Splitting k is bitwise
/// neutral: every C element is loaded, accumulated k ascending and stored
/// back, so the chunks continue exactly the sum one unsplit pass makes.
constexpr std::size_t kKc = 128;

/// Runs `panel(k0, kc)` over the k chunks [k0, k0 + kc) of [0, K).
template <typename Panel>
inline void for_k_chunks(std::size_t K, Panel panel) {
  for (std::size_t k0 = 0; k0 < K; k0 += kKc) panel(k0, std::min(kKc, K - k0));
}

void gemm_nn_avx2(std::size_t rows, std::size_t K, std::size_t N,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc) {
  for_k_chunks(K, [&](std::size_t k0, std::size_t kc) {
    gemm_panel<false>(rows, kc, N, a + k0, lda, b + k0 * ldb, ldb, c, ldc);
  });
}

void gemm_tn_avx2(std::size_t rows, std::size_t K, std::size_t N,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc) {
  for_k_chunks(K, [&](std::size_t k0, std::size_t kc) {
    gemm_panel<true>(rows, kc, N, a + k0 * lda, lda, b + k0 * ldb, ldb, c,
                     ldc);
  });
}

/// kRows x kCols block of gemm_nt outputs, C(i+r, j+s) += a_r . b_s over
/// K, sharing each stripe's loads: kRows A and kCols B loads feed
/// kRows*kCols FMAs.  Every accumulator follows the exact dot_avx2 recipe
/// (4-lane stripe, fixed-tree hsum, ascending std::fma tail), so each
/// element equals c + dot_avx2(a_r, b_s, K) whichever block it lands in.
template <std::size_t kRows, std::size_t kCols>
inline void dot_block(std::size_t K, const double* a, std::size_t lda,
                      const double* b, std::size_t ldb, double* c,
                      std::size_t ldc) {
  __m256d acc[kRows][kCols];
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t s = 0; s < kCols; ++s) acc[r][s] = _mm256_setzero_pd();
  }
  const std::size_t K4 = K & ~std::size_t{3};
  for (std::size_t k = 0; k < K4; k += 4) {
    __m256d bk[kCols];
    for (std::size_t s = 0; s < kCols; ++s) {
      bk[s] = _mm256_loadu_pd(b + s * ldb + k);
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m256d ar = _mm256_loadu_pd(a + r * lda + k);
      for (std::size_t s = 0; s < kCols; ++s) {
        acc[r][s] = _mm256_fmadd_pd(ar, bk[s], acc[r][s]);
      }
    }
  }
  // Unrolled, the accumulators stay in registers through the reductions
  // instead of going through a stack array: at K = 28 that spill cost
  // more than the shared loads saved.
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kRows; ++r) {
    const double* ar = a + r * lda;
#pragma GCC unroll 4
    for (std::size_t s = 0; s < kCols; ++s) {
      const double* bs = b + s * ldb;
      double sum = hsum(acc[r][s]);
      for (std::size_t k = K4; k < K; ++k) sum = std::fma(ar[k], bs[k], sum);
      c[r * ldc + s] += sum;
    }
  }
}

/// gemm_nt: 4x3 dot blocks (12 accumulators, 4 A and 3 B loads per
/// stripe), a 4x1 block per leftover column, and for the < 4 leftover
/// rows 1x4 blocks and single dots.
void gemm_nt_avx2(std::size_t rows, std::size_t K, std::size_t M,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc) {
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 3 <= M; j += 3) {
      dot_block<4, 3>(K, ai, lda, b + j * ldb, ldb, ci + j, ldc);
    }
    for (; j < M; ++j) {
      dot_block<4, 1>(K, ai, lda, b + j * ldb, ldb, ci + j, ldc);
    }
  }
  for (; i < rows; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 <= M; j += 4) {
      dot_block<1, 4>(K, ai, lda, b + j * ldb, ldb, ci + j, ldc);
    }
    for (; j < M; ++j) ci[j] += dot_avx2(ai, b + j * ldb, K);
  }
}

// ---------------------------------------------------------------------------
// Elementwise kernels (bitwise identical to scalar)
// ---------------------------------------------------------------------------

void add_avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void max_avx2(double* dst, const double* src, std::size_t n) {
  // _mm256_max_pd(a, b) returns b when either operand is NaN, i.e. it is
  // max(dst, src) with the operand order below matching std::max's
  // "first wins on ties/NaN" only for the second slot — the scalar path
  // uses std::max(dst, src) which keeps dst on NaN, so feed dst as the
  // *second* operand to preserve bitwise agreement.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_max_pd(_mm256_loadu_pd(src + i),
                                            _mm256_loadu_pd(dst + i)));
  }
  for (; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

void scale_avx2(double* dst, std::size_t n, double s) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(dst + i), vs));
  }
  for (; i < n; ++i) dst[i] *= s;
}

// ---------------------------------------------------------------------------
// EMA folds
// ---------------------------------------------------------------------------

/// One EMA run: state[0..n) = decay*state + (1-decay)*fresh.  The scalar
/// tail uses the same mul+fma shape as the vector body (fma(decay, s,
/// blend*f)), so a value's result depends only on its inputs, not its
/// position relative to the vector remainder.
inline void ema_run(double* state, const double* fresh, std::size_t n,
                    __m256d vdecay, __m256d vblend, double decay,
                    double blend) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d blended =
        _mm256_mul_pd(vblend, _mm256_loadu_pd(fresh + i));
    _mm256_storeu_pd(
        state + i,
        _mm256_fmadd_pd(vdecay, _mm256_loadu_pd(state + i), blended));
  }
  for (; i < n; ++i) {
    state[i] = std::fma(decay, state[i], blend * fresh[i]);
  }
}

void ema_avx2(double* state, const double* fresh, std::size_t n,
              double decay) {
  const double blend = 1.0 - decay;
  ema_run(state, fresh, n, _mm256_set1_pd(decay), _mm256_set1_pd(blend),
          decay, blend);
}

/// Mirrors the lower triangle from the upper one with 4x4 register
/// transposes over the fully-below-diagonal tiles.
void mirror_lower_avx2(double* a, std::size_t d, std::size_t lda) {
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 1; rb < d; rb += kBlock) {
    const std::size_t re = std::min(d, rb + kBlock);
    for (std::size_t cb = 0; cb < re; cb += kBlock) {
      const std::size_t ce = std::min(re, cb + kBlock);
      for (std::size_t r = rb; r < re; r += 4) {
        const std::size_t cend = std::min(ce, r);  // strictly below diagonal
        std::size_t c = cb;
        if (r + 4 <= re && r + 4 <= d) {
          for (; c + 4 <= cend && c + 4 <= r; c += 4) {
            // lower(r..r+3, c..c+3) = upper(c..c+3, r..r+3)^T
            __m256d u0 = _mm256_loadu_pd(a + c * lda + r);
            __m256d u1 = _mm256_loadu_pd(a + (c + 1) * lda + r);
            __m256d u2 = _mm256_loadu_pd(a + (c + 2) * lda + r);
            __m256d u3 = _mm256_loadu_pd(a + (c + 3) * lda + r);
            transpose4x4(u0, u1, u2, u3);
            _mm256_storeu_pd(a + r * lda + c, u0);
            _mm256_storeu_pd(a + (r + 1) * lda + c, u1);
            _mm256_storeu_pd(a + (r + 2) * lda + c, u2);
            _mm256_storeu_pd(a + (r + 3) * lda + c, u3);
          }
        }
        for (std::size_t rr = r; rr < std::min(re, r + 4); ++rr) {
          double* arow = a + rr * lda;
          for (std::size_t cc = c; cc < std::min(ce, rr); ++cc) {
            arow[cc] = a[cc * lda + rr];
          }
        }
      }
    }
  }
}

void ema_unpack_avx2(const double* packed, std::size_t d, double* state,
                     std::size_t lds, double decay, bool init) {
  const double blend = 1.0 - decay;
  const __m256d vdecay = _mm256_set1_pd(decay);
  const __m256d vblend = _mm256_set1_pd(blend);
  std::size_t idx = 0;
  for (std::size_t r = 0; r < d; ++r) {
    const std::size_t run = d - r;
    double* srow = state + r * lds + r;
    if (init) {
      std::memcpy(srow, packed + idx, run * sizeof(double));
    } else {
      ema_run(srow, packed + idx, run, vdecay, vblend, decay, blend);
    }
    idx += run;
  }
  mirror_lower_avx2(state, d, lds);
}

void transpose_avx2(const double* in, std::size_t rows, std::size_t cols,
                    std::size_t ldi, double* out, std::size_t ldo) {
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows; rb += kBlock) {
    const std::size_t re = std::min(rows, rb + kBlock);
    for (std::size_t cb = 0; cb < cols; cb += kBlock) {
      const std::size_t ce = std::min(cols, cb + kBlock);
      std::size_t r = rb;
      for (; r + 4 <= re; r += 4) {
        std::size_t c = cb;
        for (; c + 4 <= ce; c += 4) {
          __m256d t0 = _mm256_loadu_pd(in + r * ldi + c);
          __m256d t1 = _mm256_loadu_pd(in + (r + 1) * ldi + c);
          __m256d t2 = _mm256_loadu_pd(in + (r + 2) * ldi + c);
          __m256d t3 = _mm256_loadu_pd(in + (r + 3) * ldi + c);
          transpose4x4(t0, t1, t2, t3);
          _mm256_storeu_pd(out + c * ldo + r, t0);
          _mm256_storeu_pd(out + (c + 1) * ldo + r, t1);
          _mm256_storeu_pd(out + (c + 2) * ldo + r, t2);
          _mm256_storeu_pd(out + (c + 3) * ldo + r, t3);
        }
        for (; c < ce; ++c) {
          for (std::size_t rr = r; rr < r + 4; ++rr) {
            out[c * ldo + rr] = in[rr * ldi + c];
          }
        }
      }
      for (; r < re; ++r) {
        const double* irow = in + r * ldi;
        for (std::size_t c = cb; c < ce; ++c) out[c * ldo + r] = irow[c];
      }
    }
  }
}

}  // namespace

namespace detail {

const KernelTable& avx2_table() noexcept {
  static const KernelTable t{
      Isa::kAvx2,        gemm_nn_avx2,
      gemm_tn_avx2,      gemm_nt_avx2,
      dot_avx2,          add_avx2,
      max_avx2,          scale_avx2,
      ema_avx2,          ema_unpack_avx2,
      scalar_table().pack_upper,  // memcpy row runs — already optimal
      transpose_avx2};
  return t;
}

bool avx2_compiled() noexcept { return true; }

}  // namespace detail

}  // namespace spdkfac::tensor::kernels

#else  // !SPDKFAC_KERNELS_AVX2: non-x86 build — alias the scalar table.

namespace spdkfac::tensor::kernels::detail {

const KernelTable& avx2_table() noexcept { return scalar_table(); }
bool avx2_compiled() noexcept { return false; }

}  // namespace spdkfac::tensor::kernels::detail

#endif
