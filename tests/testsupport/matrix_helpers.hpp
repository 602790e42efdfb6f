// Matrix helpers the tests compare and build references with.  The
// runtime needs none of them: it multiplies by A * B^T only inside the
// triangular solves and compares nothing within a tolerance.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"
#include "tensor/matrix.hpp"

namespace spdkfac::testsupport {

/// True when |a - b| <= atol + rtol * |b| element-wise (false on a shape
/// mismatch).
inline bool allclose(const tensor::Matrix& a, const tensor::Matrix& b,
                     double rtol = 1e-9, double atol = 1e-12) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (std::abs(da[i] - db[i]) > atol + rtol * std::abs(db[i])) return false;
  }
  return true;
}

inline double frobenius_norm(const tensor::Matrix& a) {
  double sum = 0.0;
  for (double v : a.data()) sum += v * v;
  return std::sqrt(sum);
}

/// C = A * B^T as one gemm_nt call of the active ISA level.
inline tensor::Matrix matmul_nt(const tensor::Matrix& a,
                                const tensor::Matrix& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt shape mismatch");
  }
  tensor::Matrix c(a.rows(), b.rows());
  if (c.rows() == 0 || c.cols() == 0) return c;
  tensor::kernels::active_table().gemm_nt(a.rows(), a.cols(), b.rows(),
                                          a.row_ptr(0), a.cols(),
                                          b.row_ptr(0), b.cols(),
                                          c.row_ptr(0), c.cols());
  return c;
}

}  // namespace spdkfac::testsupport
