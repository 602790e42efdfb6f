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
//   * gemm_nn / gemm_tn: 4x8 micro-tiles (8 YMM accumulators) with the
//     k loop innermost, over k chunks of kKc steps that keep a tile's
//     strips in L1; the N mod 8 tail columns run 4-row x <=4-column
//     masked strips (maskload/maskstore) with the same one-FMA-per-k-step
//     recipe.  Every C element accumulates strictly k ascending in place
//     — bitwise independent of the caller's row chunking and of whether
//     its column lands in a tile or a tail strip, as the determinism
//     suite requires.
//   * gemm_nt: 1x4 tiles of FMA dot products sharing the A-row loads,
//     each reduced with the same fixed-tree horizontal sum as dot().
//   * symmetrize / transpose / unpack mirror: 4x4 in-register transposes
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
  for (; k < n; ++k) sum += x[k] * y[k];
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

/// 4x8 micro-tile: C rows i..i+3, columns j..j+7, full K sweep in
/// registers.  `load_a4(k)` yields (a(i,k), a(i+1,k), a(i+2,k), a(i+3,k)).
template <typename LoadA4>
inline void tile_4x8(std::size_t K, LoadA4 load_a4, const double* b,
                     std::size_t ldb, double* c0, double* c1, double* c2,
                     double* c3) {
  __m256d acc00 = _mm256_loadu_pd(c0), acc01 = _mm256_loadu_pd(c0 + 4);
  __m256d acc10 = _mm256_loadu_pd(c1), acc11 = _mm256_loadu_pd(c1 + 4);
  __m256d acc20 = _mm256_loadu_pd(c2), acc21 = _mm256_loadu_pd(c2 + 4);
  __m256d acc30 = _mm256_loadu_pd(c3), acc31 = _mm256_loadu_pd(c3 + 4);
  for (std::size_t k = 0; k < K; ++k) {
    const __m256d a4 = load_a4(k);
    const __m256d b0 = _mm256_loadu_pd(b + k * ldb);
    const __m256d b1 = _mm256_loadu_pd(b + k * ldb + 4);
    const __m256d a0 = _mm256_permute4x64_pd(a4, 0x00);
    const __m256d a1 = _mm256_permute4x64_pd(a4, 0x55);
    const __m256d a2 = _mm256_permute4x64_pd(a4, 0xAA);
    const __m256d a3 = _mm256_permute4x64_pd(a4, 0xFF);
    acc00 = _mm256_fmadd_pd(a0, b0, acc00);
    acc01 = _mm256_fmadd_pd(a0, b1, acc01);
    acc10 = _mm256_fmadd_pd(a1, b0, acc10);
    acc11 = _mm256_fmadd_pd(a1, b1, acc11);
    acc20 = _mm256_fmadd_pd(a2, b0, acc20);
    acc21 = _mm256_fmadd_pd(a2, b1, acc21);
    acc30 = _mm256_fmadd_pd(a3, b0, acc30);
    acc31 = _mm256_fmadd_pd(a3, b1, acc31);
  }
  _mm256_storeu_pd(c0, acc00);
  _mm256_storeu_pd(c0 + 4, acc01);
  _mm256_storeu_pd(c1, acc10);
  _mm256_storeu_pd(c1 + 4, acc11);
  _mm256_storeu_pd(c2, acc20);
  _mm256_storeu_pd(c2 + 4, acc21);
  _mm256_storeu_pd(c3, acc30);
  _mm256_storeu_pd(c3 + 4, acc31);
}

/// 1x8 row tile for the < 4 leftover rows.
inline void tile_1x8(std::size_t K, const double* ai, std::size_t stride_a,
                     const double* b, std::size_t ldb, double* ci) {
  __m256d acc0 = _mm256_loadu_pd(ci);
  __m256d acc1 = _mm256_loadu_pd(ci + 4);
  for (std::size_t k = 0; k < K; ++k) {
    const __m256d va = _mm256_set1_pd(ai[k * stride_a]);
    acc0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b + k * ldb), acc0);
    acc1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b + k * ldb + 4), acc1);
  }
  _mm256_storeu_pd(ci, acc0);
  _mm256_storeu_pd(ci + 4, acc1);
}

/// Lane mask selecting the first min(width, 4) doubles of a YMM register.
inline __m256i lane_mask(std::size_t width) noexcept {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(width)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// 4-row x <=4-column masked strip for the column tail past the last 8-wide
/// tile: one FMA per k step, k ascending, exactly like the tile lanes.
/// Masked-off lanes are never read or written.
template <typename LoadA4>
inline void tile_4xm(std::size_t K, LoadA4 load_a4, const double* b,
                     std::size_t ldb, __m256i mask, double* c0, double* c1,
                     double* c2, double* c3) {
  __m256d acc0 = _mm256_maskload_pd(c0, mask);
  __m256d acc1 = _mm256_maskload_pd(c1, mask);
  __m256d acc2 = _mm256_maskload_pd(c2, mask);
  __m256d acc3 = _mm256_maskload_pd(c3, mask);
  for (std::size_t k = 0; k < K; ++k) {
    const __m256d a4 = load_a4(k);
    const __m256d bk = _mm256_maskload_pd(b + k * ldb, mask);
    acc0 = _mm256_fmadd_pd(_mm256_permute4x64_pd(a4, 0x00), bk, acc0);
    acc1 = _mm256_fmadd_pd(_mm256_permute4x64_pd(a4, 0x55), bk, acc1);
    acc2 = _mm256_fmadd_pd(_mm256_permute4x64_pd(a4, 0xAA), bk, acc2);
    acc3 = _mm256_fmadd_pd(_mm256_permute4x64_pd(a4, 0xFF), bk, acc3);
  }
  _mm256_maskstore_pd(c0, mask, acc0);
  _mm256_maskstore_pd(c1, mask, acc1);
  _mm256_maskstore_pd(c2, mask, acc2);
  _mm256_maskstore_pd(c3, mask, acc3);
}

/// 1-row masked strip: the column tail of the < 4 leftover rows.
inline void tile_1xm(std::size_t K, const double* ai, std::size_t stride_a,
                     const double* b, std::size_t ldb, __m256i mask,
                     double* ci) {
  __m256d acc = _mm256_maskload_pd(ci, mask);
  for (std::size_t k = 0; k < K; ++k) {
    acc = _mm256_fmadd_pd(_mm256_set1_pd(ai[k * stride_a]),
                          _mm256_maskload_pd(b + k * ldb, mask), acc);
  }
  _mm256_maskstore_pd(ci, mask, acc);
}

/// One k chunk of gemm_nn (kTransA false: a(i,k) at a[i*lda + k]) or
/// gemm_tn (kTransA true: a(i,k) at a[k*lda + i]) over all `rows` x N
/// outputs: 4x8 tiles, then 4-row masked strips for the N mod 8 tail
/// columns; the < 4 leftover rows run 1x8 tiles and 1-row strips.
template <bool kTransA>
inline void gemm_panel(std::size_t rows, std::size_t K, std::size_t N,
                       const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, double* c, std::size_t ldc) {
  const std::size_t row_step = kTransA ? 1 : lda;
  const std::size_t k_step = kTransA ? lda : 1;
  const std::size_t N8 = N & ~std::size_t{7};
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* a0 = a + i * row_step;
    const auto load = [a0, lda](std::size_t k) {
      if constexpr (kTransA) {
        // The 4 broadcasts of a step are adjacent: one unaligned load.
        return _mm256_loadu_pd(a0 + k * lda);
      } else {
        return _mm256_set_pd(a0[3 * lda + k], a0[2 * lda + k], a0[lda + k],
                             a0[k]);
      }
    };
    double* c0 = c + i * ldc;
    double* c1 = c0 + ldc;
    double* c2 = c1 + ldc;
    double* c3 = c2 + ldc;
    std::size_t j = 0;
    for (; j < N8; j += 8) {
      tile_4x8(K, load, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j);
    }
    for (; j < N; j += 4) {
      tile_4xm(K, load, b + j, ldb, lane_mask(N - j), c0 + j, c1 + j,
               c2 + j, c3 + j);
    }
  }
  for (; i < rows; ++i) {
    const double* ai = a + i * row_step;
    double* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j < N8; j += 8) tile_1x8(K, ai, k_step, b + j, ldb, ci + j);
    for (; j < N; j += 4) {
      tile_1xm(K, ai, k_step, b + j, ldb, lane_mask(N - j), ci + j);
    }
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

void gemm_nt_avx2(std::size_t rows, std::size_t K, std::size_t M,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc) {
  const std::size_t K4 = K & ~std::size_t{3};
  for (std::size_t i = 0; i < rows; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 <= M; j += 4) {
      // Four dot products sharing each A load; every accumulator follows
      // the exact dot() recipe (4-lane stripe, fixed-tree hsum, ascending
      // tail), so results match dot_avx2 element for element.
      const double* b0 = b + j * ldb;
      const double* b1 = b0 + ldb;
      const double* b2 = b1 + ldb;
      const double* b3 = b2 + ldb;
      __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
      for (std::size_t k = 0; k < K4; k += 4) {
        const __m256d va = _mm256_loadu_pd(ai + k);
        acc0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b0 + k), acc0);
        acc1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b1 + k), acc1);
        acc2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b2 + k), acc2);
        acc3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b3 + k), acc3);
      }
      double s0 = hsum(acc0), s1 = hsum(acc1), s2 = hsum(acc2),
             s3 = hsum(acc3);
      for (std::size_t k = K4; k < K; ++k) {
        const double av = ai[k];
        s0 += av * b0[k];
        s1 += av * b1[k];
        s2 += av * b2[k];
        s3 += av * b3[k];
      }
      ci[j] += s0;
      ci[j + 1] += s1;
      ci[j + 2] += s2;
      ci[j + 3] += s3;
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

// ---------------------------------------------------------------------------
// Symmetric pack/unpack and symmetrize
// ---------------------------------------------------------------------------

void unpack_upper_avx2(const double* packed, std::size_t d, double* a,
                       std::size_t lda) {
  std::size_t idx = 0;
  for (std::size_t r = 0; r < d; ++r) {
    const std::size_t run = d - r;
    std::memcpy(a + r * lda + r, packed + idx, run * sizeof(double));
    idx += run;
  }
  mirror_lower_avx2(a, d, lda);
}

void symmetrize_rows_avx2(double* a, std::size_t n, std::size_t lda,
                          std::size_t r0, std::size_t r1) {
  const __m256d half = _mm256_set1_pd(0.5);
  auto scalar_pair = [&](std::size_t i, std::size_t j) {
    const double avg = 0.5 * (a[i * lda + j] + a[j * lda + i]);
    a[i * lda + j] = avg;
    a[j * lda + i] = avg;
  };
  std::size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    // Pairs inside the diagonal 4x4 corner stay scalar.
    for (std::size_t r = i; r < i + 4; ++r) {
      for (std::size_t j = r + 1; j < std::min(i + 4, n); ++j) {
        scalar_pair(r, j);
      }
    }
    std::size_t j = i + 4;
    for (; j + 4 <= n; j += 4) {
      // avg = 0.5 * (upper_tile + lower_tile^T); write it and its
      // transpose back.  0.5*(x+y) rounds identically to the scalar path.
      __m256d u0 = _mm256_loadu_pd(a + i * lda + j);
      __m256d u1 = _mm256_loadu_pd(a + (i + 1) * lda + j);
      __m256d u2 = _mm256_loadu_pd(a + (i + 2) * lda + j);
      __m256d u3 = _mm256_loadu_pd(a + (i + 3) * lda + j);
      __m256d l0 = _mm256_loadu_pd(a + j * lda + i);
      __m256d l1 = _mm256_loadu_pd(a + (j + 1) * lda + i);
      __m256d l2 = _mm256_loadu_pd(a + (j + 2) * lda + i);
      __m256d l3 = _mm256_loadu_pd(a + (j + 3) * lda + i);
      transpose4x4(l0, l1, l2, l3);
      u0 = _mm256_mul_pd(half, _mm256_add_pd(u0, l0));
      u1 = _mm256_mul_pd(half, _mm256_add_pd(u1, l1));
      u2 = _mm256_mul_pd(half, _mm256_add_pd(u2, l2));
      u3 = _mm256_mul_pd(half, _mm256_add_pd(u3, l3));
      _mm256_storeu_pd(a + i * lda + j, u0);
      _mm256_storeu_pd(a + (i + 1) * lda + j, u1);
      _mm256_storeu_pd(a + (i + 2) * lda + j, u2);
      _mm256_storeu_pd(a + (i + 3) * lda + j, u3);
      transpose4x4(u0, u1, u2, u3);
      _mm256_storeu_pd(a + j * lda + i, u0);
      _mm256_storeu_pd(a + (j + 1) * lda + i, u1);
      _mm256_storeu_pd(a + (j + 2) * lda + i, u2);
      _mm256_storeu_pd(a + (j + 3) * lda + i, u3);
    }
    for (; j < n; ++j) {
      for (std::size_t r = i; r < i + 4; ++r) scalar_pair(r, j);
    }
  }
  for (; i < r1; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) scalar_pair(i, j);
  }
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

// ---------------------------------------------------------------------------
// Codec kernels — bitwise identical to the scalar table by construction
// (see kernels.hpp): the only rounding steps are the double multiply, the
// RNE double->int32 conversion (cvtpd_epi32 honours the default rounding
// mode, exactly nearbyint), the exactly-rounded double<->float conversion,
// and the shared software half converter.
// ---------------------------------------------------------------------------

double absmax_avx2(const double* src, std::size_t n) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFF'FFFF'FFFF'FFFFll));
  __m256d vmax = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vmax = _mm256_max_pd(vmax,
                         _mm256_and_pd(_mm256_loadu_pd(src + i), abs_mask));
  }
  const __m128d lo = _mm256_castpd256_pd128(vmax);
  const __m128d hi = _mm256_extractf128_pd(vmax, 1);
  const __m128d pair = _mm_max_pd(lo, hi);
  double m = _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; i < n; ++i) m = std::max(m, std::fabs(src[i]));
  return m;
}

void int8_quantize_avx2(const double* src, std::size_t n, double inv_scale,
                        signed char* dst) {
  // clamp-then-convert equals the scalar nearbyint-then-clamp for every
  // finite input: both round with RNE and both end inside [-127, 127].
  const __m256d vinv = _mm256_set1_pd(inv_scale);
  const __m256d vlo = _mm256_set1_pd(-127.0);
  const __m256d vhi = _mm256_set1_pd(127.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_min_pd(
        vhi, _mm256_max_pd(vlo, _mm256_mul_pd(_mm256_loadu_pd(src + i),
                                              vinv)));
    const __m128i q32 = _mm256_cvtpd_epi32(t);           // RNE
    const __m128i q16 = _mm_packs_epi32(q32, q32);       // in-range: exact
    const __m128i q8 = _mm_packs_epi16(q16, q16);
    const int packed = _mm_cvtsi128_si32(q8);
    std::memcpy(dst + i, &packed, 4);
  }
  for (; i < n; ++i) {
    double t = std::nearbyint(src[i] * inv_scale);
    t = std::min(127.0, std::max(-127.0, t));
    dst[i] = static_cast<signed char>(t);
  }
}

void int8_dequantize_avx2(const signed char* src, std::size_t n, double scale,
                          double* dst) {
  const __m256d vscale = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    int packed;
    std::memcpy(&packed, src + i, 4);
    const __m128i q8 = _mm_cvtsi32_si128(packed);
    const __m128i q32 = _mm_cvtepi8_epi32(q8);
    _mm256_storeu_pd(dst + i,
                     _mm256_mul_pd(_mm256_cvtepi32_pd(q32), vscale));
  }
  for (; i < n; ++i) dst[i] = scale * static_cast<double>(src[i]);
}

void fp16_pack_avx2(const double* src, std::size_t n, std::uint16_t* dst) {
  // Vectorize the exactly-rounded double->float narrowing; the float->half
  // step goes through the shared software converter so the bits match the
  // scalar table.
  std::size_t i = 0;
  alignas(16) float f[4];
  for (; i + 4 <= n; i += 4) {
    _mm_store_ps(f, _mm256_cvtpd_ps(_mm256_loadu_pd(src + i)));
    dst[i] = detail::float_to_half(f[0]);
    dst[i + 1] = detail::float_to_half(f[1]);
    dst[i + 2] = detail::float_to_half(f[2]);
    dst[i + 3] = detail::float_to_half(f[3]);
  }
  for (; i < n; ++i) {
    dst[i] = detail::float_to_half(static_cast<float>(src[i]));
  }
}

void fp16_unpack_avx2(const std::uint16_t* src, std::size_t n, double* dst) {
  std::size_t i = 0;
  alignas(16) float f[4];
  for (; i + 4 <= n; i += 4) {
    f[0] = detail::half_to_float(src[i]);
    f[1] = detail::half_to_float(src[i + 1]);
    f[2] = detail::half_to_float(src[i + 2]);
    f[3] = detail::half_to_float(src[i + 3]);
    _mm256_storeu_pd(dst + i, _mm256_cvtps_pd(_mm_load_ps(f)));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<double>(detail::half_to_float(src[i]));
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
      unpack_upper_avx2, symmetrize_rows_avx2,
      transpose_avx2,
      absmax_avx2,       int8_quantize_avx2,
      int8_dequantize_avx2, fp16_pack_avx2,
      fp16_unpack_avx2};
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
