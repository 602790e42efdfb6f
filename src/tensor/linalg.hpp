// Dense linear-algebra kernels for symmetric positive-definite matrices.
//
// The paper computes the damped Kronecker-factor inverses (A + gamma*I)^-1
// and (G + gamma*I)^-1 with cuSolver's Cholesky path; this module is the CPU
// equivalent, and the runtime's only way to invert a factor: a blocked
// Cholesky factorization, then the inverse built from L on the same
// blocks.
#pragma once

#include <optional>

#include "tensor/matrix.hpp"

namespace spdkfac::tensor {

/// Cholesky-factorizes a symmetric positive-definite matrix A = L L^T
/// (reading only its lower triangle) and returns L, exactly zero above its
/// diagonal.  Returns std::nullopt when the matrix is not (numerically)
/// positive definite or a pivot is not finite.
///
/// Left-looking by 64-wide column panels: the panel's rows are reduced by
/// the finished columns with a 1-row gemm_nt per row, then finished
/// against the panel's own columns with dot — the diagonal block serially
/// (it holds every pivot check), the rows below it in parallel.  This is
/// the first stage of damped_inverse_into (with zero damping).
std::optional<Matrix> cholesky(const Matrix& a);

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

/// Floating-point operation estimate for an n x n SPD inverse through
/// Cholesky (factorize n^3/3 + invert L n^3/3 + W^T W n^3/3 = n^3).
/// Used by the performance-model calibration tooling.
double spd_inverse_flops(std::size_t n) noexcept;

}  // namespace spdkfac::tensor
