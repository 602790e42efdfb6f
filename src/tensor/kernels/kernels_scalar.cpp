// Portable scalar kernel table — the cross-platform numeric reference.
//
// Accumulation orders here define the contract the vector levels must
// respect per element (k ascending for the GEMMs, ascending dot tails):
// the AVX2 table may re-tile these loops but the per-element order of the
// scalar level is what golden numeric expectations are phrased against.
//
// Note the GEMMs carry no zero-skip branch: `if (a == 0.0) continue`
// would break IEEE special-value propagation (0 * NaN must stay NaN,
// 0 * inf must stay NaN) and defeats vectorization — the branch the seed
// kernels had was removed when this layer was introduced (regression
// test: tensor/test_matrix.cpp NaN/Inf propagation).
#include "tensor/kernels/tables.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace spdkfac::tensor::kernels {

namespace {

void gemm_nn_scalar(std::size_t rows, std::size_t K, std::size_t N,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (std::size_t k = 0; k < K; ++k) {
      const double aik = ai[k];
      const double* bk = b + k * ldb;
      for (std::size_t j = 0; j < N; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_tn_scalar(std::size_t rows, std::size_t K, std::size_t N,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) {
  // k outer keeps both streamed operands contiguous; each c(i,j) still
  // accumulates strictly k ascending.
  for (std::size_t k = 0; k < K; ++k) {
    const double* ak = a + k * lda;
    const double* bk = b + k * ldb;
    for (std::size_t i = 0; i < rows; ++i) {
      const double aki = ak[i];
      double* ci = c + i * ldc;
      for (std::size_t j = 0; j < N; ++j) ci[j] += aki * bk[j];
    }
  }
}

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += x[k] * y[k];
  return sum;
}

void gemm_nt_scalar(std::size_t rows, std::size_t K, std::size_t M,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (std::size_t j = 0; j < M; ++j) {
      ci[j] += dot_scalar(ai, b + j * ldb, K);
    }
  }
}

void add_scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void max_scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

void scale_scalar(double* dst, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) dst[i] *= s;
}

void ema_scalar(double* state, const double* fresh, std::size_t n,
                double decay) {
  const double blend = 1.0 - decay;
  for (std::size_t i = 0; i < n; ++i) {
    state[i] = decay * state[i] + blend * fresh[i];
  }
}

void ema_unpack_scalar(const double* packed, std::size_t d, double* state,
                       std::size_t lds, double decay, bool init) {
  // Pass 1: fold the packed values into the upper triangle, row runs
  // contiguous on both sides.
  const double blend = 1.0 - decay;
  std::size_t idx = 0;
  for (std::size_t r = 0; r < d; ++r) {
    double* srow = state + r * lds;
    if (init) {
      for (std::size_t c = r; c < d; ++c) srow[c] = packed[idx++];
    } else {
      for (std::size_t c = r; c < d; ++c) {
        srow[c] = decay * srow[c] + blend * packed[idx++];
      }
    }
  }
  // Pass 2: mirror the lower triangle from the freshly written upper one.
  // Bitwise equal to folding each lower element directly, because the
  // pre-fold state is exactly symmetric (see header contract).
  for (std::size_t r = 1; r < d; ++r) {
    double* srow = state + r * lds;
    for (std::size_t c = 0; c < r; ++c) srow[c] = state[c * lds + r];
  }
}

void pack_upper_scalar(const double* a, std::size_t d, std::size_t lda,
                       double* out) {
  // Each row's packed run is contiguous in both representations.
  std::size_t idx = 0;
  for (std::size_t r = 0; r < d; ++r) {
    const std::size_t run = d - r;
    std::memcpy(out + idx, a + r * lda + r, run * sizeof(double));
    idx += run;
  }
}

void transpose_scalar(const double* in, std::size_t rows, std::size_t cols,
                      std::size_t ldi, double* out, std::size_t ldo) {
  // Cache-blocked: a 32x32 double tile is 8 KiB per operand, so both the
  // row-streamed source and the column-strided destination stay resident
  // while the tile is swapped.
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows; rb += kBlock) {
    const std::size_t re = std::min(rows, rb + kBlock);
    for (std::size_t cb = 0; cb < cols; cb += kBlock) {
      const std::size_t ce = std::min(cols, cb + kBlock);
      for (std::size_t r = rb; r < re; ++r) {
        const double* irow = in + r * ldi;
        for (std::size_t c = cb; c < ce; ++c) {
          out[c * ldo + r] = irow[c];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Codec kernels (comm::Codec).  See the header's determinism note: these
// must produce the same bits at every ISA level, so everything that rounds
// does so through operations whose vector lanes round exactly like the
// scalar ops (double*double multiply, RNE double->int conversion) or
// through the shared software half converter below.
// ---------------------------------------------------------------------------

double absmax_scalar(const double* src, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(src[i]));
  return m;
}

void int8_quantize_scalar(const double* src, std::size_t n, double inv_scale,
                          signed char* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    double t = std::nearbyint(src[i] * inv_scale);  // RNE in default mode
    t = std::min(127.0, std::max(-127.0, t));
    dst[i] = static_cast<signed char>(t);
  }
}

void int8_dequantize_scalar(const signed char* src, std::size_t n,
                            double scale, double* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = scale * static_cast<double>(src[i]);
  }
}

void fp16_pack_scalar(const double* src, std::size_t n, std::uint16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = detail::float_to_half(static_cast<float>(src[i]));
  }
}

void fp16_unpack_scalar(const std::uint16_t* src, std::size_t n,
                        double* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(detail::half_to_float(src[i]));
  }
}

}  // namespace

namespace detail {

std::uint16_t float_to_half(float f) noexcept {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7FFF'FFFFu;
  if (abs >= 0x7F80'0000u) {  // inf / NaN (NaN keeps a payload bit set)
    return static_cast<std::uint16_t>(
        sign | 0x7C00u | (abs > 0x7F80'0000u ? 0x0200u : 0u));
  }
  if (abs >= 0x4780'0000u) {  // >= 65520 rounds past half's max -> inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x3880'0000u) {  // below 2^-14: subnormal half (or zero)
    const std::uint32_t mant = (abs & 0x007F'FFFFu) | 0x0080'0000u;
    const int shift = 126 - static_cast<int>(abs >> 23);
    if (shift > 24) return static_cast<std::uint16_t>(sign);  // underflow
    const std::uint32_t kept = mant >> shift;
    const std::uint32_t rem = mant & ((std::uint32_t{1} << shift) - 1);
    const std::uint32_t half = std::uint32_t{1} << (shift - 1);
    std::uint32_t r = kept;
    if (rem > half || (rem == half && (kept & 1u))) ++r;
    return static_cast<std::uint16_t>(sign | r);
  }
  const std::uint32_t mant = abs & 0x007F'FFFFu;
  const std::uint32_t exp = (abs >> 23) - 112;  // rebias 127 -> 15
  std::uint32_t r = (exp << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  // RNE on the 13 dropped bits; a carry correctly bumps the exponent.
  if (rem > 0x1000u || (rem == 0x1000u && (r & 1u))) ++r;
  return static_cast<std::uint16_t>(sign | r);
}

float half_to_float(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  std::uint32_t mant = h & 0x3FFu;
  std::uint32_t bits;
  if (exp == 0x1Fu) {
    bits = sign | 0x7F80'0000u | (mant << 13);  // inf / NaN
  } else if (exp != 0) {
    bits = sign | ((exp + 112) << 23) | (mant << 13);
  } else if (mant == 0) {
    bits = sign;
  } else {  // subnormal half: normalize into a float exponent
    int k = 0;
    while (!(mant & 0x400u)) {
      mant <<= 1;
      ++k;
    }
    mant &= 0x3FFu;
    bits = sign | (static_cast<std::uint32_t>(113 - k) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(bits);
}

const KernelTable& scalar_table() noexcept {
  static const KernelTable t{
      Isa::kScalar,       gemm_nn_scalar,     gemm_tn_scalar,
      gemm_nt_scalar,     dot_scalar,         add_scalar,
      max_scalar,         scale_scalar,       ema_scalar,
      ema_unpack_scalar,  pack_upper_scalar,
      transpose_scalar,
      absmax_scalar,      int8_quantize_scalar, int8_dequantize_scalar,
      fp16_pack_scalar,   fp16_unpack_scalar};
  return t;
}

}  // namespace detail

}  // namespace spdkfac::tensor::kernels
