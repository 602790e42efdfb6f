#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "exec/grain.hpp"
#include "tensor/kernels/kernels.hpp"

namespace spdkfac::tensor {

namespace {

/// Every block and chunk boundary below is a multiple of the block width
/// (or of a microkernel tile height) clipped at n, so the work
/// decomposition, and with it every element's rounding, is a function of
/// the shape alone, never of the pool size.
constexpr std::size_t kNb = kCholeskyBlock;

/// Shape-only chunking (see exec/grain.hpp): ~64k inner ops per chunk, so
/// the kernels stay bitwise-deterministic across pool sizes and serial for
/// small factors.
std::size_t items_per_chunk(std::size_t ops_per_item) noexcept {
  return exec::grain_for_ops(ops_per_item);
}

/// L with L L^T = A + damping*I into `l` (n x n, any contents),
/// reading only A's lower triangle; the damping is added to each diagonal
/// element as it is read, so no damped copy of A exists.  Returns false
/// when a pivot is not positive or not finite (l is then partly written).
///
/// Left-looking, one column panel J = [j0, j1) of width kNb at a time.
/// First every row at or below the panel is reduced by the finished
/// columns left of it, in place: S(i, J) = A(i, J) - L(i, :j0) L(J, :j0)^T,
/// rows split into shape-only chunks — a 1-row gemm_nt per diagonal-block
/// row (each stops at the diagonal), one multi-row gemm_nt for a chunk's
/// rows below the block.  Then each row is finished against the panel's
/// own columns:
///   L(i, j) = (S(i, j) - L(i, j0:j) . L(j, j0:j)) / L(j, j).
/// The diagonal block holds every pivot of the panel and is finished
/// serially with dot, so the non-SPD/NaN check never runs inside a pool
/// chunk; the rows below it are independent of each other and go four at
/// a time, each column's four dot products one gemm_nt into a zeroed
/// scratch.  gemm_nt adds each dot product to its output, and dot never
/// returns -0.0, so 0 + dot is dot bit for bit, and the multi-row calls
/// give every element the bits of the row-at-a-time ones.
bool cholesky_stage(const Matrix& a, double damping, Matrix& l) {
  const std::size_t n = a.rows();
  const auto& kt = kernels::active_table();
  constexpr std::size_t kRows = 4;  // rows per panel-solve gemm_nt
  for (std::size_t j0 = 0; j0 < n; j0 += kNb) {
    const std::size_t j1 = std::min(n, j0 + kNb);
    exec::parallel_for(
        n - j0, items_per_chunk(std::max<std::size_t>(j0, 1) * (j1 - j0)),
        [&, j0, j1](std::size_t s0, std::size_t s1) {
          const std::size_t r0 = j0 + s0, r1 = j0 + s1;
          // Diagonal-block rows stop at the diagonal and clear the rest of
          // the row too, so L is exactly zero above it.
          for (std::size_t i = r0; i < std::min(r1, j1); ++i) {
            double* li = l.row_ptr(i);
            std::fill(li + j0, li + n, 0.0);
            kt.gemm_nt(1, j0, i + 1 - j0, li, n, l.row_ptr(j0), n, li + j0,
                       n);
            const double* ai = a.row_ptr(i);
            for (std::size_t j = j0; j < i; ++j) li[j] = ai[j] - li[j];
            li[i] = (ai[i] + damping) - li[i];
          }
          const std::size_t b0 = std::max(r0, j1);
          if (b0 >= r1) return;
          for (std::size_t i = b0; i < r1; ++i) {
            std::fill(l.row_ptr(i) + j0, l.row_ptr(i) + j1, 0.0);
          }
          kt.gemm_nt(r1 - b0, j0, j1 - j0, l.row_ptr(b0), n, l.row_ptr(j0),
                     n, l.row_ptr(b0) + j0, n);
          for (std::size_t i = b0; i < r1; ++i) {
            double* li = l.row_ptr(i);
            const double* ai = a.row_ptr(i);
            for (std::size_t j = j0; j < j1; ++j) li[j] = ai[j] - li[j];
          }
        });
    for (std::size_t j = j0; j < j1; ++j) {
      double* lj = l.row_ptr(j);
      const double diag = lj[j] - kt.dot(lj + j0, lj + j0, j - j0);
      if (diag <= 0.0 || !std::isfinite(diag)) return false;
      const double ljj = std::sqrt(diag);
      lj[j] = ljj;
      for (std::size_t i = j + 1; i < j1; ++i) {
        double* li = l.row_ptr(i);
        li[j] = (li[j] - kt.dot(li + j0, lj + j0, j - j0)) / ljj;
      }
    }
    exec::parallel_for(
        n - j1, items_per_chunk((j1 - j0) * (j1 - j0)),
        [&, j0, j1](std::size_t s0, std::size_t s1) {
          for (std::size_t i = j1 + s0; i < j1 + s1; i += kRows) {
            const std::size_t rows = std::min(kRows, j1 + s1 - i);
            double* li = l.row_ptr(i);
            for (std::size_t j = j0; j < j1; ++j) {
              const double* lj = l.row_ptr(j);
              double dots[kRows] = {};
              kt.gemm_nt(rows, j - j0, 1, li + j0, n, lj + j0, n, dots, 1);
              for (std::size_t r = 0; r < rows; ++r) {
                li[r * n + j] = (li[r * n + j] - dots[r]) / lj[j];
              }
            }
          }
        });
  }
  return true;
}

/// Overwrites each kNb x kNb diagonal block of L (in `f`) with its
/// inverse L_II^-1, by row substitution: row r of the inverse is one 1-row
/// GEMM of L(r, I) (copied out first, since the row is overwritten)
/// against the finished rows above it, scaled by -1/L(r, r).  The GEMM
/// width is rounded up to whole 8-wide vector tiles; the columns at and
/// right of r only add products with zeros to zeros.  Blocks are
/// independent, one pool chunk each.
void invert_diagonal_blocks(Matrix& f) {
  const std::size_t n = f.rows();
  const auto& kt = kernels::active_table();
  exec::parallel_for((n + kNb - 1) / kNb, 1, [&](std::size_t b0,
                                                   std::size_t b1) {
    double row[kNb];
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t i0 = b * kNb, w = std::min(n, i0 + kNb) - i0;
      for (std::size_t r = 0; r < w; ++r) {
        double* fr = f.row_ptr(i0 + r) + i0;
        const double inv = 1.0 / fr[r];
        std::copy(fr, fr + r, row);
        std::fill(fr, fr + w, 0.0);
        const std::size_t width = std::min(w, (r + 7) & ~std::size_t{7});
        kt.gemm_nn(1, r, width, row, kNb, f.row_ptr(i0) + i0, n, fr, n);
        kt.scale(fr, r, -inv);
        fr[r] = inv;
      }
    }
  });
}

/// The solves multiply by a stored diagonal-block inverse in kSub-wide
/// groups (of output columns or rows, or of the k range), each touching
/// only the part of the triangular block that is nonzero: about 5/8 of a
/// full block product.  The skipped terms are exact zeros and every group
/// boundary is a multiple of 4, so the bits equal the full product's at
/// both ISA levels.
constexpr std::size_t kSub = 16;

/// Column strip of solve_left, and the unit of its chunks: four 12-wide
/// GEMM tiles, enough columns per pass over L to keep the kernels near
/// their peak (narrower strips re-read L more often).
constexpr std::size_t kLeftCols = 48;

/// t := x - t elementwise over an h x w block (t packed, x with stride
/// ldx), then x := 0 over the block: the off-diagonal update finished,
/// and the block cleared for the diagonal multiply to accumulate into.
void subtract_and_clear(double* x, std::size_t ldx, double* t, std::size_t h,
                        std::size_t w) {
  for (std::size_t r = 0; r < h; ++r) {
    double* xr = x + r * ldx;
    double* tr = t + r * w;
    for (std::size_t c = 0; c < w; ++c) tr[c] = xr[c] - tr[c];
    std::fill(xr, xr + w, 0.0);
  }
}

/// Shape-only chunk of a solve over X's rows (or columns), each about n^2
/// multiply-adds, rounded up to a multiple of `multiple`.
std::size_t solve_chunk(std::size_t n, std::size_t multiple) {
  const std::size_t grain = items_per_chunk(n * n);
  return (grain + multiple - 1) / multiple * multiple;
}

/// This thread's block buffer for the solves, grown to at least `size`
/// doubles and kept for its next solve: each thread keeps resident only
/// the largest block it has used (fixed-size stack blocks cost every
/// pool thread the full 64 x 64 in resident stack pages).
double* block_scratch(std::size_t size) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < size) scratch.resize(size);
  return scratch.data();
}

std::size_t check_solve(const Matrix& f, std::span<const double> x,
                        const char* what) {
  const std::size_t n = f.rows();
  if (!f.square() || (n == 0 ? !x.empty() : x.size() % n != 0)) {
    throw std::invalid_argument(std::string(what) +
                                ": F must be square and X have n-wide rows");
  }
  return n == 0 ? 0 : x.size() / n;
}

}  // namespace

void damped_cholesky_into(const Matrix& a, double damping, Matrix& f) {
  if (!a.square()) {
    throw std::invalid_argument(
        "damped_cholesky_into requires a square matrix");
  }
  if (&f == &a) {
    throw std::invalid_argument("damped_cholesky_into: f must not be a");
  }
  const std::size_t n = a.rows();
  if (f.rows() != n || f.cols() != n) f = Matrix(n, n);
  if (!cholesky_stage(a, damping, f)) {
    throw std::domain_error(
        "damped_cholesky_into: matrix is not positive definite");
  }
  invert_diagonal_blocks(f);
}

void solve_right(const Matrix& f, std::span<double> x) {
  const std::size_t m = check_solve(f, x, "solve_right");
  const std::size_t n = f.rows();
  const auto& kt = kernels::active_table();
  const double* fp = f.row_ptr(0);
  exec::parallel_for(m, solve_chunk(n, 4), [&](std::size_t c0,
                                                std::size_t c1) {
    double* t = block_scratch(std::min(c1 - c0, kNb) * std::min(n, kNb));
    for (std::size_t r0 = c0; r0 < c1; r0 += kNb) {
      const std::size_t h = std::min(c1, r0 + kNb) - r0;
      double* xs = x.data() + r0 * n;
      // Y L^T = X: Y(:, J) = (X(:, J) - Y(:, :j0) L(J, :j0)^T) L_JJ^-T.
      // Output column g of the diagonal product needs k <= g only.
      for (std::size_t j0 = 0; j0 < n; j0 += kNb) {
        const std::size_t w = std::min(n, j0 + kNb) - j0;
        std::fill(t, t + h * w, 0.0);
        kt.gemm_nt(h, j0, w, xs, n, fp + j0 * n, n, t, w);
        subtract_and_clear(xs + j0, n, t, h, w);
        for (std::size_t g0 = 0; g0 < w; g0 += kSub) {
          const std::size_t g1 = std::min(w, g0 + kSub);
          kt.gemm_nt(h, g1, g1 - g0, t, w, fp + (j0 + g0) * n + j0, n,
                     xs + j0 + g0, n);
        }
      }
      // Z L = Y: Z(:, J) = (Y(:, J) - Z(:, j1:) L(j1:, J)) L_JJ^-1.
      // Rows [g0, g1) of the diagonal product's k range feed output
      // columns < g1 only; the groups run k ascending, so each element
      // still sums k ascending across the calls.
      for (std::size_t j1 = n; j1 > 0;) {
        const std::size_t j0 = (j1 - 1) / kNb * kNb, w = j1 - j0;
        std::fill(t, t + h * w, 0.0);
        kt.gemm_nn(h, n - j1, w, xs + j1, n, fp + j1 * n + j0, n, t, w);
        subtract_and_clear(xs + j0, n, t, h, w);
        for (std::size_t g0 = 0; g0 < w; g0 += kSub) {
          const std::size_t g1 = std::min(w, g0 + kSub);
          kt.gemm_nn(h, g1 - g0, g1, t + g0, w, fp + (j0 + g0) * n + j0, n,
                     xs + j0, n);
        }
        j1 = j0;
      }
    }
  });
}

void solve_left(const Matrix& f, std::span<double> x) {
  const std::size_t c = check_solve(f, x, "solve_left");
  const std::size_t n = f.rows();
  const auto& kt = kernels::active_table();
  const double* fp = f.row_ptr(0);
  exec::parallel_for(c, solve_chunk(n, kLeftCols),
                     [&](std::size_t c0, std::size_t c1) {
    double* t = block_scratch(std::min(n, kNb) * std::min(c1 - c0, kLeftCols));
    for (std::size_t s0 = c0; s0 < c1; s0 += kLeftCols) {
      const std::size_t w = std::min(c1, s0 + kLeftCols) - s0;
      double* xs = x.data() + s0;
      // L Y = X: Y(I, :) = L_II^-1 (X(I, :) - L(I, :i0) Y(:i0, :)).
      // Output row g of the diagonal product needs k <= g only.
      for (std::size_t i0 = 0; i0 < n; i0 += kNb) {
        const std::size_t h = std::min(n, i0 + kNb) - i0;
        std::fill(t, t + h * w, 0.0);
        kt.gemm_nn(h, i0, w, fp + i0 * n, n, xs, c, t, w);
        subtract_and_clear(xs + i0 * c, c, t, h, w);
        for (std::size_t g0 = 0; g0 < h; g0 += kSub) {
          const std::size_t g1 = std::min(h, g0 + kSub);
          kt.gemm_nn(g1 - g0, g1, w, fp + (i0 + g0) * n + i0, n, t, w,
                     xs + (i0 + g0) * c, c);
        }
      }
      // L^T Z = Y: Z(I, :) = L_II^-T (Y(I, :) - L(i1:, I)^T Z(i1:, :)).
      // Output row g of the diagonal product needs k >= g only.
      for (std::size_t i1 = n; i1 > 0;) {
        const std::size_t i0 = (i1 - 1) / kNb * kNb, h = i1 - i0;
        std::fill(t, t + h * w, 0.0);
        kt.gemm_tn(h, n - i1, w, fp + i1 * n + i0, n, xs + i1 * c, c, t, w);
        subtract_and_clear(xs + i0 * c, c, t, h, w);
        for (std::size_t g0 = 0; g0 < h; g0 += kSub) {
          const std::size_t g1 = std::min(h, g0 + kSub);
          kt.gemm_tn(g1 - g0, h - g0, w, fp + (i0 + g0) * n + i0 + g0, n,
                     t + g0 * w, w, xs + (i0 + g0) * c, c);
        }
        i1 = i0;
      }
    }
  });
}

double spd_inverse_flops(std::size_t n) noexcept {
  const auto cube = [](std::size_t k) {
    const double kd = static_cast<double>(k);
    return kd * kd * kd / 3.0;
  };
  return cube(n) + static_cast<double>(n / kNb) * cube(kNb) + cube(n % kNb);
}

}  // namespace spdkfac::tensor
