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

}  // namespace

namespace detail {

const KernelTable& scalar_table() noexcept {
  static const KernelTable t{
      Isa::kScalar,       gemm_nn_scalar,     gemm_tn_scalar,
      gemm_nt_scalar,     dot_scalar,         add_scalar,
      max_scalar,         scale_scalar,       ema_scalar,
      ema_unpack_scalar,  pack_upper_scalar,
      transpose_scalar};
  return t;
}

}  // namespace detail

}  // namespace spdkfac::tensor::kernels
