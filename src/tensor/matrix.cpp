#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include "exec/context.hpp"
#include "exec/grain.hpp"
#include "tensor/kernels/kernels.hpp"

namespace spdkfac::tensor {

namespace {

/// Row height of the GEMM microkernels' register tile.  A chunk shorter
/// than this never reaches the tile and runs only the 1-row leftover path,
/// so chunks are rounded up to whole tiles.  It is a constant of the shape
/// rule, not a property of the active ISA level or the pool.
constexpr std::size_t kMr = 4;

/// Output rows per parallel_for chunk: the grain_for_ops target (see
/// exec/grain.hpp), rounded up to a multiple of kMr.  Without the rounding
/// any product with K*N >= kChunkTargetOps gets 1-row chunks.  Chunking
/// depends only on the shape (never on the pool size or ISA level), and
/// each output element is produced by exactly one chunk whose
/// per-element accumulation order does not depend on the chunk
/// boundaries, so the rounding changes speed only, never the bits.
std::size_t rows_per_chunk(std::size_t ops_per_row) noexcept {
  const std::size_t grain = exec::grain_for_ops(ops_per_row);
  return (grain + kMr - 1) / kMr * kMr;
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix initializer rows differ in length");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix += shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix -= shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& v : data_) v *= scalar;
  return *this;
}

void Matrix::add_diagonal(double value) {
  if (!square()) {
    throw std::invalid_argument("add_diagonal requires a square matrix");
  }
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

void Matrix::set_zero() noexcept {
  std::fill(data_.begin(), data_.end(), 0.0);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  if (rows_ == 0 || cols_ == 0) return t;
  kernels::active_table().transpose(data_.data(), rows_, cols_, cols_,
                                    t.row_ptr(0), rows_);
  return t;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul shape mismatch");
  }
  Matrix c(a.rows(), b.cols());
  if (c.rows() == 0 || c.cols() == 0) return c;
  // Rows of c are independent, so the outer loop blocks across the ambient
  // pool; each chunk runs the active ISA's register-tiled microkernel into
  // its zero-initialized rows.  No zero-skip on a(i,k): it would break
  // IEEE special-value propagation (0 * NaN must stay NaN) and defeat
  // vectorization.
  const auto& kt = kernels::active_table();
  const std::size_t n = b.cols();
  exec::parallel_for(
      a.rows(), rows_per_chunk(a.cols() * n),
      [&](std::size_t r0, std::size_t r1) {
        kt.gemm_nn(r1 - r0, a.cols(), n, a.row_ptr(r0), a.cols(),
                   b.row_ptr(0), n, c.row_ptr(r0), n);
      });
  return c;
}

void matmul_tn(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_tn shape mismatch");
  }
  if (&c == &a || &c == &b) {
    throw std::invalid_argument("matmul_tn: c must not alias a or b");
  }
  if (c.rows() != a.cols() || c.cols() != b.cols()) {
    c = Matrix(a.cols(), b.cols());
  }
  if (c.rows() == 0 || c.cols() == 0) return;
  // Parallel over blocks of c's rows (columns of a); each chunk clears its
  // rows, then every microkernel accumulates each c(i,j) strictly k
  // ascending, so results are bitwise identical across chunkings within
  // an ISA level.  No zero-skip (IEEE NaN/Inf propagation — see matmul).
  const auto& kt = kernels::active_table();
  exec::parallel_for(
      a.cols(), rows_per_chunk(a.rows() * b.cols()),
      [&](std::size_t i0, std::size_t i1) {
        std::fill(c.row_ptr(i0), c.row_ptr(i0) + (i1 - i0) * c.cols(), 0.0);
        kt.gemm_tn(i1 - i0, a.rows(), b.cols(), a.row_ptr(0) + i0, a.cols(),
                   b.row_ptr(0), b.cols(), c.row_ptr(i0), c.cols());
      });
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_tn(a, b, c);
  return c;
}

void gram(const Matrix& a, Matrix& c) {
  if (&c == &a) throw std::invalid_argument("gram: c must not alias a");
  const std::size_t n = a.cols();
  if (c.rows() != n || c.cols() != n) c = Matrix(n, n);
  if (a.rows() == 0) {
    c.set_zero();
    return;
  }
  // Chunk [i0, i1) clears and accumulates c(i0..i1, i0..n), then copies
  // its part right of the diagonal block into c(i1..n, i0..i1), where no
  // other chunk writes.  A row does half of matmul_tn's work on average.
  const auto& kt = kernels::active_table();
  exec::parallel_for(
      n, rows_per_chunk(a.rows() * n / 2), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          std::fill(c.row_ptr(i) + i0, c.row_ptr(i) + n, 0.0);
        }
        kt.gemm_tn(i1 - i0, a.rows(), n - i0, a.row_ptr(0) + i0, n,
                   a.row_ptr(0) + i0, n, c.row_ptr(i0) + i0, n);
        if (i1 < n) {
          kt.transpose(c.row_ptr(i0) + i1, i1 - i0, n - i1, n,
                       c.row_ptr(i1) + i0, n);
        }
      });
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_diff shape mismatch");
  }
  double m = 0.0;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    m = std::max(m, std::abs(da[i] - db[i]));
  }
  return m;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")[\n";
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << "  ";
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
    }
    os << "\n";
  }
  return os << "]";
}

}  // namespace spdkfac::tensor
