#include "tensor/symmetric.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"

namespace spdkfac::tensor {

void pack_upper(const Matrix& dense, std::span<double> out) {
  const std::size_t d = dense.rows();
  if (out.size() != packed_size(d)) {
    throw std::invalid_argument("pack_upper: output span has wrong size");
  }
  if (d == 0) return;
  kernels::active_table().pack_upper(dense.row_ptr(0), d, dense.cols(),
                                     out.data());
}

void pack_lower(const Matrix& dense, std::span<double> out) {
  const std::size_t d = dense.rows();
  if (!dense.square() || out.size() != packed_size(d)) {
    throw std::invalid_argument("pack_lower: size mismatch");
  }
  double* dst = out.data();
  for (std::size_t r = 0; r < d; ++r) {
    dst = std::copy(dense.row_ptr(r), dense.row_ptr(r) + r + 1, dst);
  }
}

void unpack_lower(std::span<const double> packed, Matrix& dense) {
  const std::size_t d = dense.rows();
  if (!dense.square() || packed.size() != packed_size(d)) {
    throw std::invalid_argument("unpack_lower: size mismatch");
  }
  const double* src = packed.data();
  for (std::size_t r = 0; r < d; ++r) {
    double* row = dense.row_ptr(r);
    std::copy(src, src + r + 1, row);
    std::fill(row + r + 1, row + d, 0.0);
    src += r + 1;
  }
}

}  // namespace spdkfac::tensor
