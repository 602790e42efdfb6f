// Dense linear-algebra kernels for symmetric positive-definite matrices.
//
// The paper computes the damped Kronecker-factor inverses (A + gamma*I)^-1
// and (G + gamma*I)^-1 with cuSolver's Cholesky path, and uses them only
// in the Eq. (13) product G^-1 dW A^-1.  This module is the CPU
// equivalent, and the runtime never forms either inverse: the InverseComp
// task factorizes (LAPACK's potrf, blocked) and the update solves with the
// factor (potrs, blocked), which gives the same product for a third of the
// inversion flops and about the same update flops.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/matrix.hpp"

namespace spdkfac::tensor {

/// Block width of the factored form: the factorization's column panels,
/// the diagonal blocks it stores inverted, and the solves' block steps.
inline constexpr std::size_t kCholeskyBlock = 64;

/// Writes into `f` the factored form F of A + damping*I, the operand of
/// solve_right and solve_left: its Cholesky factor L (L L^T = A +
/// damping*I, exactly zero above the diagonal), with each kCholeskyBlock
/// x kCholeskyBlock diagonal block overwritten by its own inverse
/// L_II^-1 (also lower triangular).  Reads only A's lower triangle.
/// Throws std::invalid_argument when A is not square or `f` is `a`, and
/// std::domain_error when A + damping*I is not (numerically) positive
/// definite or a pivot is not finite (`f` then holds partial results).
///
/// Blocked, with most flops in the GEMM microkernels.  The factorization
/// is left-looking by column panels: each panel's rows are reduced by the
/// finished columns with gemm_nt, the damping added to each diagonal
/// element as it is read (no damped copy of A), then finished against the
/// panel's own columns with dot — the diagonal block serially (it holds
/// every pivot check), the rows below it in parallel.  Then every
/// diagonal block is inverted in place by row substitution, one 1-row
/// gemm_nn per row.  About n^3/3 + n*kCholeskyBlock^2/3 flops
/// (spd_inverse_flops).
///
/// Storage: `f` is resized (reallocated) only when it is not n x n, so a
/// caller that keeps it across calls touches no new memory.  Its previous
/// contents are irrelevant: every element accumulated into is cleared
/// first, inside the pool chunk that owns it.
///
/// Determinism: block widths are fixed, every block/chunk boundary
/// depends only on n, and every GEMM sums k ascending, so the result is
/// bitwise identical across pool sizes at each ISA level.
void damped_cholesky_into(const Matrix& a, double damping, Matrix& f);

/// X := X (A + damping*I)^-1 in place, for F = damped_cholesky_into(A,
/// damping) of order n and X the row-major (x.size() / n) x n matrix in
/// `x`: the two triangular solves Y L^T = X (column blocks left to right),
/// then Z L = Y (right to left).  Each block step is GEMMs only — the
/// off-diagonal update against L into a stack block, then the multiply by
/// the stored L_JJ^-1 back into X, in groups that skip its zero triangle —
/// so no scalar substitution is left.  Rows are independent; they are
/// split into shape-only chunks of a multiple of 4 rows.  Throws
/// std::invalid_argument when F is not square or x.size() is not a
/// multiple of n.
///
/// Equal to multiplying by the explicit inverse up to rounding, for about
/// n^2 + n*kCholeskyBlock/4 multiply-adds per row against the explicit
/// product's n^2, and bitwise identical across pool sizes at each ISA
/// level: every output row is produced by one chunk whose per-element k
/// order does not depend on the chunk boundaries.
void solve_right(const Matrix& f, std::span<double> x);

/// X := (A + damping*I)^-1 X in place, for X the row-major n x
/// (x.size() / n) matrix in `x`: L Y = X (row blocks top-down), then
/// L^T Z = Y (bottom-up), each block step GEMMs as in solve_right.
/// Columns are independent and split into shape-only chunks; the same
/// throws and determinism as solve_right.
void solve_left(const Matrix& f, std::span<double> x);

/// Floating-point operation estimate of damped_cholesky_into on an n x n
/// matrix, the InverseComp task: the factorization (n^3/3) plus the
/// diagonal-block inverses (kCholeskyBlock^2/3 per row).  Used by the
/// performance-model calibration tooling.
double spd_inverse_flops(std::size_t n) noexcept;

}  // namespace spdkfac::tensor
