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

double Matrix::frobenius_norm() const noexcept {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::max_abs() const noexcept {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
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
  // pool; each chunk runs the active ISA's register-tiled microkernel.  No
  // zero-skip on a(i,k): it would break IEEE special-value propagation
  // (0 * NaN must stay NaN) and defeat vectorization.
  const auto& kt = kernels::active_table();
  exec::parallel_for(
      a.rows(), rows_per_chunk(a.cols() * b.cols()),
      [&](std::size_t r0, std::size_t r1) {
        kt.gemm_nn(r1 - r0, a.cols(), b.cols(), a.row_ptr(r0), a.cols(),
                   b.row_ptr(0), b.cols(), c.row_ptr(r0), c.cols());
      });
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_tn shape mismatch");
  }
  Matrix c(a.cols(), b.cols());
  if (c.rows() == 0 || c.cols() == 0) return c;
  // Parallel over blocks of c's rows (columns of a); every microkernel
  // accumulates each c(i,j) strictly k ascending, so results are bitwise
  // identical across chunkings within an ISA level.  No zero-skip (IEEE
  // NaN/Inf propagation — see matmul).
  const auto& kt = kernels::active_table();
  exec::parallel_for(
      a.cols(), rows_per_chunk(a.rows() * b.cols()),
      [&](std::size_t i0, std::size_t i1) {
        kt.gemm_tn(i1 - i0, a.rows(), b.cols(), a.row_ptr(0) + i0, a.cols(),
                   b.row_ptr(0), b.cols(), c.row_ptr(i0), c.cols());
      });
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt shape mismatch");
  }
  Matrix c(a.rows(), b.rows());
  if (c.rows() == 0 || c.cols() == 0) return c;
  const auto& kt = kernels::active_table();
  exec::parallel_for(
      a.rows(), rows_per_chunk(a.cols() * b.rows()),
      [&](std::size_t r0, std::size_t r1) {
        kt.gemm_nt(r1 - r0, a.cols(), b.rows(), a.row_ptr(r0), a.cols(),
                   b.row_ptr(0), b.cols(), c.row_ptr(r0), c.cols());
      });
  return c;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("matvec shape mismatch");
  }
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.row_ptr(i);
    double sum = 0.0;
    for (std::size_t k = 0; k < a.cols(); ++k) sum += ai[k] * x[k];
    y[i] = sum;
  }
  return y;
}

bool allclose(const Matrix& a, const Matrix& b, double rtol,
              double atol) noexcept {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (std::abs(da[i] - db[i]) > atol + rtol * std::abs(db[i])) return false;
  }
  return true;
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
