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
/// (it holds every pivot check), the rows below it in parallel.  This is
/// the first stage of damped_inverse_into (with zero damping).
std::optional<Cholesky> cholesky(const Matrix& a);

/// out = (A + damping*I)^-1, with `scratch` as working storage — the
/// allocation-free form of damped_inverse for callers that invert the same
/// shape every step.  Reads only A's lower triangle.  Throws
/// std::invalid_argument when A is not square or when a, out and scratch
/// are not three distinct matrices, and std::domain_error when A +
/// damping*I is not positive definite (out and scratch then hold partial
/// results).
///
/// Blocked, with most flops in the GEMM microkernels, in three stages:
/// the cholesky() panels with the damping added to each diagonal element
/// as it is read (no damped copy of A), L written into `out`; then
/// W = L^-1 into `scratch` on 64x64 blocks (each off-diagonal block one
/// gemm_nn against the blocks above it, then a multiply with W_II); then
/// A^-1 = W^T W over L's storage in `out` on 8-row strips of the lower
/// triangle (gemm_tn), each mirrored into the upper triangle.  About n^3
/// flops (spd_inverse_flops).
///
/// Storage: out and scratch are resized (reallocated) only when they are
/// not n x n, so a caller that keeps them across calls touches no new
/// memory.  Their previous contents are irrelevant: each stage clears
/// every element it accumulates into, inside its own pool chunks, and
/// reads nothing it has not written.  Scratch holds W afterwards; any
/// dead n x n buffer serves (DistKfacOptimizer lends the tensor's fresh
/// local factor, which is dead once the factors are aggregated).
///
/// Determinism: block widths are fixed, every block/strip/chunk boundary
/// depends only on n, and every GEMM sums k ascending, so the result is
/// bitwise identical across pool sizes at each ISA level, and bitwise
/// equal to damped_inverse.  The mirror makes it exactly symmetric, so
/// symmetric-packed communication of it never drops information.
void damped_inverse_into(const Matrix& a, double damping, Matrix& out,
                         Matrix& scratch);

/// Inverse of an SPD matrix: damped_inverse(a, 0.0).  Throws
/// std::domain_error when the matrix is not positive definite.
Matrix spd_inverse(const Matrix& a);

/// (A + damping*I)^-1 — the operation SPD-KFAC load-balances across GPUs.
/// Matches the paper's Tikhonov-regularized inverse of Eq. (12).  Runs
/// damped_inverse_into on fresh storage.
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
