// Packed upper-triangle storage for symmetric matrices.
//
// The paper reduces Kronecker-factor traffic by communicating only the upper
// triangle (d*(d+1)/2 elements) of each symmetric factor/inverse (Section V-B
// and the "# As"/"# Gs" columns of Table II count exactly these elements).
// This module provides the pack/unpack pair used by the real distributed
// optimizer for its factors, the lower-triangle pair for the factored
// inverses it broadcasts (the same element count), and the element-count
// helpers used by the communication performance models.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace spdkfac::tensor {

/// Number of elements in the packed upper triangle (incl. diagonal) of a
/// d x d symmetric matrix: d*(d+1)/2.
constexpr std::size_t packed_size(std::size_t d) noexcept {
  return d * (d + 1) / 2;
}

/// Index of element (r, c), r <= c, inside the packed row-major upper
/// triangle of a d x d matrix.
constexpr std::size_t packed_index(std::size_t r, std::size_t c,
                                   std::size_t d) noexcept {
  // Row r starts after rows 0..r-1, which contribute d + (d-1) + ... +
  // (d-r+1) = r*d - r*(r-1)/2 elements; within the row, column c is offset
  // c - r.
  return r * d - r * (r - 1) / 2 + (c - r);
}

/// Symmetric matrix stored as its packed upper triangle.
class SymmetricPacked {
 public:
  SymmetricPacked() = default;

  /// Zero-initialized d x d symmetric matrix.
  explicit SymmetricPacked(std::size_t dim);

  /// Packs a dense symmetric matrix (upper triangle is taken as truth).
  /// Throws std::invalid_argument for non-square input.
  static SymmetricPacked pack(const Matrix& dense);

  /// Expands back to a dense symmetric matrix.
  Matrix unpack() const;

  std::size_t dim() const noexcept { return dim_; }
  std::size_t size() const noexcept { return data_.size(); }

  double& at(std::size_t r, std::size_t c) noexcept;
  double at(std::size_t r, std::size_t c) const noexcept;

  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  bool operator==(const SymmetricPacked&) const noexcept = default;

 private:
  std::size_t dim_ = 0;
  std::vector<double> data_;
};

/// Copies the packed upper triangle of `dense` into `out` (must have
/// packed_size(dim) elements).  This is the zero-allocation path used when
/// staging factors into communication fusion buffers.
void pack_upper(const Matrix& dense, std::span<double> out);

/// Fills a dense symmetric matrix from a packed upper triangle.
void unpack_upper(std::span<const double> packed, Matrix& dense);

/// Copies the lower triangle (incl. diagonal) of square `dense`, row by
/// row, into `out` (packed_size(dim) elements): the payload of a
/// triangular matrix such as the factored form of damped_cholesky_into,
/// which has as many elements as a packed symmetric one.
void pack_lower(const Matrix& dense, std::span<double> out);

/// Inverse of pack_lower: fills the lower triangle of square `dense` from
/// `packed` and zeroes everything above the diagonal, with no mirroring,
/// so a triangular matrix round-trips bit for bit.
void unpack_lower(std::span<const double> packed, Matrix& dense);

}  // namespace spdkfac::tensor
