// Packed upper-triangle storage for symmetric matrices.
//
// The paper reduces Kronecker-factor traffic by communicating only the upper
// triangle (d*(d+1)/2 elements) of each symmetric factor/inverse (Section V-B
// and the "# As"/"# Gs" columns of Table II count exactly these elements).
// This module provides the upper-triangle pack the real distributed
// optimizer stages its factors with (the receiver folds the packed
// triangle straight into its EMA state through the ema_unpack kernel),
// the lower-triangle pair for the factored inverses it broadcasts (the
// same element count), and the element-count helper used by the
// communication performance models.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/matrix.hpp"

namespace spdkfac::tensor {

/// Number of elements in the packed upper triangle (incl. diagonal) of a
/// d x d symmetric matrix: d*(d+1)/2.
constexpr std::size_t packed_size(std::size_t d) noexcept {
  return d * (d + 1) / 2;
}

/// Copies the packed upper triangle of `dense` into `out` (must have
/// packed_size(dim) elements).  This is the zero-allocation path used when
/// staging factors into communication fusion buffers.
void pack_upper(const Matrix& dense, std::span<double> out);

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
