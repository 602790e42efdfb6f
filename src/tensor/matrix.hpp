// Dense row-major matrix type used throughout the SPD-KFAC reproduction.
//
// The K-FAC algorithm manipulates per-layer Kronecker factors A = a a^T and
// G = g g^T, their damped inverses, and preconditioned gradients.  All of
// those are small-to-medium dense matrices (the paper's factor dimensions
// range from 64 to 8192), so a simple contiguous double-precision matrix with
// a handful of BLAS-like kernels is sufficient and keeps the library
// dependency-free.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

namespace spdkfac::tensor {

/// Row-major dense matrix of doubles.
///
/// Invariant: data_.size() == rows_ * cols_ at all times.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a rows x cols matrix initialized to zero.
  Matrix(std::size_t rows, std::size_t cols);

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Creates a matrix from nested initializer lists; all rows must have the
  /// same length.  Intended for tests and small literals.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  static Matrix zeros(std::size_t rows, std::size_t cols);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  bool square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Raw contiguous storage (row-major).
  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  /// Pointer to the start of row r.
  double* row_ptr(std::size_t r) noexcept { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  // Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend Matrix operator*(Matrix lhs, double scalar) noexcept {
    lhs *= scalar;
    return lhs;
  }
  friend Matrix operator*(double scalar, Matrix rhs) noexcept {
    rhs *= scalar;
    return rhs;
  }

  bool operator==(const Matrix& other) const noexcept = default;

  /// Adds `value` to every diagonal element (Tikhonov damping A + gamma*I).
  /// Requires a square matrix.
  void add_diagonal(double value);

  /// Resets all elements to zero without reallocating.
  void set_zero() noexcept;

  /// Frobenius norm.
  double frobenius_norm() const noexcept;

  /// Largest absolute element.
  double max_abs() const noexcept;

  Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B.  Dimensions must agree; throws std::invalid_argument otherwise.
Matrix matmul(const Matrix& a, const Matrix& b);
/// The same product over row-major views of persistent storage (an arena
/// span, a borrowed buffer): `b` holds A.cols() rows of `n` doubles, and
/// the A.rows() x n product is written into `c`.  Its prior contents are
/// irrelevant, and the bits equal the returning form's.  Throws
/// std::invalid_argument when the sizes disagree or `c` overlaps `a` or
/// `b`.
void matmul(const Matrix& a, std::span<const double> b, std::size_t n,
            std::span<double> c);

/// C = A^T * B without forming A^T.
Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// The same product written into `c`, which is reallocated only when it is
/// not A.cols() x B.cols(): a caller that keeps `c` across calls (a
/// Kronecker factor rebuilt every step) touches no new memory.  Its prior
/// contents are irrelevant, and the bits equal the returning form's.  `c`
/// must not alias `a` or `b` (std::invalid_argument).
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& c);

/// The Gram matrix C = A^T A written into `c`, reallocated only when it
/// is not A.cols() square.  Only the upper triangle is multiplied out, by
/// row chunks of `c` that each mirror their own strip below the diagonal,
/// so it costs half of matmul_tn(a, a, c)'s flops.  The bits equal
/// matmul_tn(a, a, c)'s: c(j, i) and c(i, j) sum the same products k
/// ascending, and a product does not depend on its operand order.  `c`
/// must not alias `a` (std::invalid_argument).
void gram(const Matrix& a, Matrix& c);

/// C = A * B^T without forming B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// y = A * x for a vector x (x.size() == A.cols()).
std::vector<double> matvec(const Matrix& a, std::span<const double> x);

/// Returns true when |a - b| <= atol + rtol * |b| element-wise.
bool allclose(const Matrix& a, const Matrix& b, double rtol = 1e-9,
              double atol = 1e-12) noexcept;

/// Maximum element-wise absolute difference; requires equal shapes.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// Pretty-printer for debugging and test failure messages.
std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace spdkfac::tensor
