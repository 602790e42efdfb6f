#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "exec/context.hpp"
#include "exec/grain.hpp"
#include "tensor/kernels/kernels.hpp"

namespace spdkfac::tensor {

namespace {

/// Shape-only chunking (see exec/grain.hpp): ~64k inner ops per chunk, so
/// the kernels stay bitwise-deterministic across pool sizes and serial for
/// small factors.
std::size_t items_per_chunk(std::size_t ops_per_item) noexcept {
  return exec::grain_for_ops(ops_per_item);
}

/// Block width of the blocked Cholesky and of W = L^-1, and the row-strip
/// height of the W^T W product.  Every block, strip and chunk boundary
/// there is a multiple of one of these clipped at n, so the work
/// decomposition (and with it every element's rounding) is a function of
/// the matrix order alone, never of the pool size.
constexpr std::size_t kNb = 64;
constexpr std::size_t kStrip = 8;

}  // namespace

void Cholesky::solve_lower(std::span<double> b) const {
  const std::size_t n = lower.rows();
  const auto& kt = kernels::active_table();
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = lower.row_ptr(i);
    b[i] = (b[i] - kt.dot(li, b.data(), i)) / li[i];
  }
}

void Cholesky::solve_upper(std::span<double> b) const {
  const std::size_t n = lower.rows();
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    // Traverse column ii of L below the diagonal, i.e. row entries L(k, ii).
    for (std::size_t k = ii + 1; k < n; ++k) sum -= lower(k, ii) * b[k];
    b[ii] = sum / lower(ii, ii);
  }
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_lower(x);
  solve_upper(x);
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  if (b.rows() != lower.rows()) {
    throw std::invalid_argument("Cholesky::solve shape mismatch");
  }
  Matrix x = b.transposed();  // iterate columns of b contiguously
  for (std::size_t c = 0; c < x.rows(); ++c) {
    std::span<double> col(x.row_ptr(c), x.cols());
    solve_lower(col);
    solve_upper(col);
  }
  return x.transposed();
}

double Cholesky::log_det() const noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < lower.rows(); ++i) {
    s += std::log(lower(i, i));
  }
  return 2.0 * s;
}

namespace {

/// Makes `m` n x n, reallocating only when its shape differs: a buffer
/// reused across calls keeps its storage (and stale contents, which every
/// stage below clears before it accumulates).
void ensure_square(Matrix& m, std::size_t n) {
  if (m.rows() != n || m.cols() != n) m = Matrix(n, n);
}

/// Stage 1: L with L L^T = A + damping*I into `l` (n x n, any contents),
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

/// Stage 2: W = L^-1 into `w` (n x n, any contents), on kNb blocks.  Each
/// chunk clears every element it accumulates into before its GEMMs.  Only
/// W's lower triangle and the upper triangles of its diagonal blocks
/// (exact zeros) are written, and nothing reads W further right.
///
/// Every element is written by exactly one pool chunk and every GEMM sums
/// its k terms ascending, so the bits do not depend on the pool size.
/// Terms that multiply the exact zeros above W's diagonal are finite (L
/// passed the pivot checks) and do not need trimming.
void lower_inverse_stage(const Matrix& l, Matrix& w) {
  const std::size_t n = l.rows();
  const std::size_t nb = (n + kNb - 1) / kNb;
  const auto& kt = kernels::active_table();
  // Diagonal blocks first: W_II = L_II^-1 by row substitution, row r being
  // one 1-row GEMM of L(r, I) against the finished rows above it.  The
  // GEMM width is rounded up to whole 8-wide vector tiles; the columns at
  // and right of r only add products with zeros to zeros.
  exec::parallel_for(nb, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t i0 = b * kNb, i1 = std::min(n, i0 + kNb);
      for (std::size_t r = i0; r < i1; ++r) {
        double* wr = w.row_ptr(r) + i0;
        std::fill(wr, wr + (i1 - i0), 0.0);
        const std::size_t width =
            std::min(i1 - i0, (r - i0 + 7) & ~std::size_t{7});
        kt.gemm_nn(1, r - i0, width, l.row_ptr(r) + i0, n,
                   w.row_ptr(i0) + i0, n, wr, n);
        const double inv_lrr = 1.0 / l(r, r);
        kt.scale(wr, r - i0, -inv_lrr);
        wr[r - i0] = inv_lrr;
      }
    }
  });
  // Off-diagonal blocks, block row by block row:
  //   W_IJ = -W_II (L(I, [j0, i0)) W([j0, i0), J)).
  // A block needs only the blocks above it in its own column block, so
  // each column block is one pool chunk walking its rows top-down (the
  // leftmost, longest walk is claimed first).  The last column block has
  // no blocks below its diagonal.
  exec::parallel_for(
      std::max<std::size_t>(nb, 1) - 1, 1, [&](std::size_t b0, std::size_t b1) {
        std::vector<double> t(kNb * kNb);
        for (std::size_t jb = b0; jb < b1; ++jb) {
          const std::size_t j0 = jb * kNb, wj = std::min(n, j0 + kNb) - j0;
          for (std::size_t ib = jb + 1; ib < nb; ++ib) {
            const std::size_t i0 = ib * kNb, wi = std::min(n, i0 + kNb) - i0;
            std::fill(t.begin(), t.begin() + wi * wj, 0.0);
            kt.gemm_nn(wi, i0 - j0, wj, l.row_ptr(i0) + j0, n,
                       w.row_ptr(j0) + j0, n, t.data(), wj);
            kt.scale(t.data(), wi * wj, -1.0);
            for (std::size_t r = i0; r < i0 + wi; ++r) {
              std::fill(w.row_ptr(r) + j0, w.row_ptr(r) + j0 + wj, 0.0);
            }
            kt.gemm_nn(wi, wi, wj, w.row_ptr(i0) + i0, n, t.data(), wj,
                       w.row_ptr(i0) + j0, n);
          }
        }
      });
}

/// Stage 3: X = W^T W into `x` (n x n, any contents; every element is
/// written), on the lower triangle only, by kStrip-row strips: W is zero
/// above its diagonal, so X(R, :r1) = W([r0, n), R)^T W([r0, n), :r1) for
/// the strip R = [r0, r1), one gemm_tn that skips the zero rows, into the
/// strip's cleared lower part.  Each strip is mirrored into its upper
/// partner, which makes X exactly symmetric by construction.  A strip
/// costs about kStrip n^2 / 3 ops on average, which sets the chunk grain
/// (one strip per chunk once n is past a few dozen; small inverses stay
/// on the calling thread).
void gram_stage(const Matrix& w, Matrix& x) {
  const std::size_t n = w.rows();
  const auto& kt = kernels::active_table();
  exec::parallel_for(
      (n + kStrip - 1) / kStrip, items_per_chunk(kStrip * n * n / 3),
      [&](std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s) {
          const std::size_t r0 = s * kStrip, r1 = std::min(n, r0 + kStrip);
          const std::size_t h = r1 - r0;
          double* xs = x.row_ptr(r0);
          for (std::size_t r = 0; r < h; ++r) {
            std::fill(xs + r * n, xs + r * n + r1, 0.0);
          }
          kt.gemm_tn(h, n - r0, r1, w.row_ptr(r0) + r0, n, w.row_ptr(r0), n,
                     xs, n);
          kt.transpose(xs, h, r0, n, x.row_ptr(0) + r0, n);
          for (std::size_t r = 0; r < h; ++r) {
            for (std::size_t c = r + 1; c < h; ++c) {
              xs[r * n + r0 + c] = xs[c * n + r0 + r];
            }
          }
        }
      });
}

}  // namespace

std::optional<Cholesky> cholesky(const Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("cholesky requires a square matrix");
  }
  Matrix l(a.rows(), a.rows());
  if (!cholesky_stage(a, 0.0, l)) return std::nullopt;
  return Cholesky{std::move(l)};
}

void damped_inverse_into(const Matrix& a, double damping, Matrix& out,
                         Matrix& scratch) {
  if (!a.square()) {
    throw std::invalid_argument("damped_inverse requires a square matrix");
  }
  if (&out == &a || &scratch == &a || &out == &scratch) {
    throw std::invalid_argument(
        "damped_inverse_into: a, out and scratch must be distinct");
  }
  const std::size_t n = a.rows();
  ensure_square(out, n);
  ensure_square(scratch, n);
  if (!cholesky_stage(a, damping, out)) {
    throw std::domain_error("damped_inverse: matrix is not positive definite");
  }
  lower_inverse_stage(out, scratch);  // W = L^-1; L is dead after this
  gram_stage(scratch, out);           // A^-1 = W^T W over L's storage
}

Matrix spd_inverse(const Matrix& a) { return damped_inverse(a, 0.0); }

Matrix damped_inverse(const Matrix& a, double damping) {
  Matrix out, scratch;
  damped_inverse_into(a, damping, out, scratch);
  return out;
}

bool is_symmetric(const Matrix& a, double tol) noexcept {
  if (!a.square()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - a(j, i)) > tol) return false;
    }
  }
  return true;
}

void symmetrize(Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("symmetrize requires a square matrix");
  }
  // Each unordered pair {i, j} is owned by the chunk containing min(i, j),
  // so chunks write disjoint element sets.  0.5*(x+y) is elementwise, so
  // every ISA level produces identical bits here.
  const auto& kt = kernels::active_table();
  exec::parallel_for(a.rows(), items_per_chunk(a.cols()),
                     [&](std::size_t r0, std::size_t r1) {
                       kt.symmetrize_rows(a.row_ptr(0), a.rows(), a.cols(),
                                          r0, r1);
                     });
}

double spd_inverse_flops(std::size_t n) noexcept {
  const double nd = static_cast<double>(n);
  return nd * nd * nd;
}

Matrix SymmetricEigen::damped_inverse(double damping) const {
  const std::size_t n = eigenvalues.size();
  // Validate serially (throwing out of a pool chunk is not allowed), then
  // build Q * diag(1/(lambda+damping)) in parallel row blocks; the
  // reconstruction GEMM and symmetrize parallelize internally.
  std::vector<double> inv_denoms(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double denom = eigenvalues[j] + damping;
    if (denom <= 0.0 || !std::isfinite(denom)) {
      throw std::domain_error(
          "SymmetricEigen::damped_inverse: non-positive damped eigenvalue");
    }
    inv_denoms[j] = 1.0 / denom;
  }
  Matrix scaled(n, n);  // Q * diag(1/(lambda+damping))
  exec::parallel_for(n, items_per_chunk(n),
                     [&](std::size_t r0, std::size_t r1) {
                       for (std::size_t i = r0; i < r1; ++i) {
                         for (std::size_t j = 0; j < n; ++j) {
                           scaled(i, j) = eigenvectors(i, j) * inv_denoms[j];
                         }
                       }
                     });
  Matrix result = matmul_nt(scaled, eigenvectors);
  symmetrize(result);
  return result;
}

SymmetricEigen symmetric_eigen(const Matrix& a, int max_sweeps, double tol) {
  if (!a.square()) {
    throw std::invalid_argument("symmetric_eigen requires a square matrix");
  }
  const std::size_t n = a.rows();
  Matrix m = a;
  symmetrize(m);
  Matrix q = Matrix::identity(n);

  // Parallel sweep-convergence check with a deterministic reduction: chunk
  // partial sums land in fixed slots and combine in chunk order, so the
  // result never depends on the pool size.  (The rotations themselves stay
  // serial — cyclic Jacobi is sequentially dependent rotation to rotation.)
  auto off_diagonal_norm = [&m, n] {
    const std::size_t chunk = items_per_chunk(n);
    const std::size_t nchunks = (n + chunk - 1) / chunk;
    std::vector<double> partial(std::max<std::size_t>(nchunks, 1), 0.0);
    exec::parallel_for(n, chunk, [&](std::size_t r0, std::size_t r1) {
      double s = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) s += m(i, j) * m(i, j);
      }
      partial[r0 / chunk] = s;
    });
    double s = 0.0;
    for (double p : partial) s += p;
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(m.max_abs(), 1.0);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= tol * scale * n) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q_idx = p + 1; q_idx < n; ++q_idx) {
        const double apq = m(p, q_idx);
        if (std::abs(apq) <= tol * scale) continue;
        // Classic Jacobi rotation annihilating m(p, q).
        const double theta = (m(q_idx, q_idx) - m(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p), mkq = m(k, q_idx);
          m(k, p) = c * mkp - s * mkq;
          m(k, q_idx) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k), mqk = m(q_idx, k);
          m(p, k) = c * mpk - s * mqk;
          m(q_idx, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double qkp = q(k, p), qkq = q(k, q_idx);
          q(k, p) = c * qkp - s * qkq;
          q(k, q_idx) = s * qkp + c * qkq;
        }
      }
    }
  }

  SymmetricEigen eigen;
  eigen.eigenvalues.resize(n);
  for (std::size_t i = 0; i < n; ++i) eigen.eigenvalues[i] = m(i, i);

  // Sort ascending, permuting the eigenvector columns accordingly.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&eigen](std::size_t x,
                                                 std::size_t y) {
    return eigen.eigenvalues[x] < eigen.eigenvalues[y];
  });
  SymmetricEigen sorted;
  sorted.eigenvalues.resize(n);
  sorted.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted.eigenvalues[j] = eigen.eigenvalues[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      sorted.eigenvectors(i, j) = q(i, order[j]);
    }
  }
  return sorted;
}

}  // namespace spdkfac::tensor
