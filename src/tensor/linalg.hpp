// Dense linear-algebra kernels for symmetric positive-definite matrices.
//
// The paper computes the damped Kronecker-factor inverses (A + gamma*I)^-1
// and (G + gamma*I)^-1 with cuSolver's Cholesky path; this module is the CPU
// equivalent: Cholesky factorization, triangular solves, and an SPD inverse
// built on top of them.
#pragma once

#include <optional>
#include <span>

#include "tensor/matrix.hpp"

namespace spdkfac::tensor {

/// Result of a Cholesky factorization A = L * L^T with L lower triangular.
struct Cholesky {
  Matrix lower;

  /// Solves L * y = b in place.
  void solve_lower(std::span<double> b) const;

  /// Solves L^T * x = y in place.
  void solve_upper(std::span<double> b) const;

  /// Solves A x = b via the two triangular solves.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves A X = B column-by-column.
  Matrix solve(const Matrix& b) const;

  /// log(det(A)) = 2 * sum(log(diag(L))).
  double log_det() const noexcept;
};

/// Cholesky-factorizes a symmetric positive-definite matrix (reading only
/// its lower triangle).  Returns std::nullopt when the matrix is not
/// (numerically) positive definite or a pivot is not finite.
///
/// Left-looking by 64-wide column panels: the panel's rows are reduced by
/// the finished columns with a 1-row gemm_nt per row, then finished
/// against the panel's own columns with dot — the diagonal block serially
/// (it holds every pivot check), the rows below it in parallel.
std::optional<Cholesky> cholesky(const Matrix& a);

/// Inverse of an SPD matrix via Cholesky.  Throws std::domain_error when the
/// matrix is not positive definite.
///
/// Blocked, with most flops in the GEMM microkernels: cholesky(), then
/// W = L^-1 on 64x64 blocks (each off-diagonal block one gemm_nn against
/// the blocks above it, then a multiply with W_II), then A^-1 = W^T W on
/// 8-row strips of the lower triangle (gemm_tn), each mirrored into the
/// upper triangle.  About n^3 flops (spd_inverse_flops).
///
/// Determinism: block widths are fixed, every block/strip/chunk boundary
/// depends only on n, and every GEMM sums k ascending, so the result is
/// bitwise identical across pool sizes at each ISA level.  The mirror makes
/// it exactly symmetric, so symmetric-packed communication of it never
/// drops information.
Matrix spd_inverse(const Matrix& a);

/// (A + damping*I)^-1 — the operation SPD-KFAC load-balances across GPUs.
/// Matches the paper's Tikhonov-regularized inverse of Eq. (12).
Matrix damped_inverse(const Matrix& a, double damping);

/// True when |a(i,j) - a(j,i)| <= tol for all i, j.
bool is_symmetric(const Matrix& a, double tol = 1e-9) noexcept;

/// Symmetrize in place: a <- (a + a^T) / 2.
void symmetrize(Matrix& a);

/// Floating-point operation estimate for an n x n SPD inverse through
/// Cholesky (factorize n^3/3 + invert L n^3/3 + W^T W n^3/3 = n^3).
/// Used by the performance-model calibration tooling.
double spd_inverse_flops(std::size_t n) noexcept;

/// Eigendecomposition A = Q diag(lambda) Q^T of a symmetric matrix.
/// `eigenvectors` holds the (orthonormal) eigenvectors as columns, ordered
/// by ascending eigenvalue.
struct SymmetricEigen {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;

  /// Reconstructs (A + damping*I)^-1 = Q diag(1/(lambda_i + damping)) Q^T —
  /// the amortization trick real K-FAC systems use: one decomposition
  /// serves every damping value (KAISA / kfac-pytorch style).  Throws
  /// std::domain_error if any lambda_i + damping <= 0.
  Matrix damped_inverse(double damping) const;
};

/// Cyclic Jacobi eigensolver for symmetric matrices.  Converges to machine
/// precision in a handful of sweeps for the well-conditioned Kronecker
/// factors K-FAC produces; O(n^3) per sweep.
SymmetricEigen symmetric_eigen(const Matrix& a, int max_sweeps = 50,
                               double tol = 1e-12);

}  // namespace spdkfac::tensor
