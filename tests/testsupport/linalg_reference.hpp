// Reference linear algebra for the tests.  The runtime never forms an
// inverse: tensor/linalg.hpp stops at the factored form F (L with its
// diagonal blocks inverted) and solves with it.  The helpers here rebuild
// what the tests check F and the solves against: explicit inverses (the
// right solve of the identity), the plain Cholesky factor L recovered
// from F, and an independent scalar inverse that shares no code with the
// runtime.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/linalg.hpp"
#include "tensor/matrix.hpp"

namespace spdkfac::testsupport {

/// True when |a(i,j) - a(j,i)| <= tol for all i, j.
inline bool is_symmetric(const tensor::Matrix& a, double tol = 1e-9) {
  if (!a.square()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - a(j, i)) > tol) return false;
    }
  }
  return true;
}

/// (A + damping*I)^-1 through the runtime's path: the identity, right
/// solved with damped_cholesky_into's factored form.
inline tensor::Matrix damped_inverse(const tensor::Matrix& a,
                                     double damping) {
  tensor::Matrix f;
  tensor::damped_cholesky_into(a, damping, f);
  tensor::Matrix x = tensor::Matrix::identity(a.rows());
  tensor::solve_right(f, x.data());
  return x;
}

inline tensor::Matrix spd_inverse(const tensor::Matrix& a) {
  return damped_inverse(a, 0.0);
}

/// Inverse of a lower-triangular matrix by scalar column substitution.
inline tensor::Matrix lower_triangular_inverse(const tensor::Matrix& l) {
  const std::size_t n = l.rows();
  tensor::Matrix w(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    w(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t k = j; k < i; ++k) sum += l(i, k) * w(k, j);
      w(i, j) = -sum / l(i, i);
    }
  }
  return w;
}

/// The Cholesky factor L behind a factored form F: every diagonal block
/// of F inverted back (so L's diagonal blocks equal the factorization's
/// up to rounding; its off-diagonal blocks are F's, bit for bit).
inline tensor::Matrix lower_factor(const tensor::Matrix& f) {
  constexpr std::size_t kNb = tensor::kCholeskyBlock;
  const std::size_t n = f.rows();
  tensor::Matrix l = f;
  for (std::size_t i0 = 0; i0 < n; i0 += kNb) {
    const std::size_t w = std::min(n, i0 + kNb) - i0;
    tensor::Matrix block(w, w);
    for (std::size_t r = 0; r < w; ++r) {
      for (std::size_t c = 0; c < w; ++c) block(r, c) = f(i0 + r, i0 + c);
    }
    const tensor::Matrix inv = lower_triangular_inverse(block);
    for (std::size_t r = 0; r < w; ++r) {
      for (std::size_t c = 0; c < w; ++c) l(i0 + r, i0 + c) = inv(r, c);
    }
  }
  return l;
}

/// (A + damping*I)^-1 from scalar loops only (unblocked Cholesky, scalar
/// triangular inverse, W^T W): an explicit-inverse reference independent
/// of the kernels and of linalg's blocking.  Assumes A + damping*I is SPD.
inline tensor::Matrix scalar_damped_inverse(const tensor::Matrix& a,
                                            double damping) {
  const std::size_t n = a.rows();
  tensor::Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + damping;
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  const tensor::Matrix w = lower_triangular_inverse(l);
  tensor::Matrix inv(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = 0.0;
      for (std::size_t k = i; k < n; ++k) s += w(k, i) * w(k, j);
      inv(i, j) = inv(j, i) = s;
    }
  }
  return inv;
}

}  // namespace spdkfac::testsupport
