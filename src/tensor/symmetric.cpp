#include "tensor/symmetric.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"

namespace spdkfac::tensor {

SymmetricPacked::SymmetricPacked(std::size_t dim)
    : dim_(dim), data_(packed_size(dim), 0.0) {}

SymmetricPacked SymmetricPacked::pack(const Matrix& dense) {
  if (!dense.square()) {
    throw std::invalid_argument("SymmetricPacked::pack requires square input");
  }
  SymmetricPacked p(dense.rows());
  pack_upper(dense, p.data());
  return p;
}

Matrix SymmetricPacked::unpack() const {
  Matrix dense(dim_, dim_);
  unpack_upper(data_, dense);
  return dense;
}

double& SymmetricPacked::at(std::size_t r, std::size_t c) noexcept {
  if (r > c) std::swap(r, c);
  return data_[packed_index(r, c, dim_)];
}

double SymmetricPacked::at(std::size_t r, std::size_t c) const noexcept {
  if (r > c) std::swap(r, c);
  return data_[packed_index(r, c, dim_)];
}

void pack_upper(const Matrix& dense, std::span<double> out) {
  const std::size_t d = dense.rows();
  if (out.size() != packed_size(d)) {
    throw std::invalid_argument("pack_upper: output span has wrong size");
  }
  if (d == 0) return;
  kernels::active_table().pack_upper(dense.row_ptr(0), d, dense.cols(),
                                     out.data());
}

void unpack_upper(std::span<const double> packed, Matrix& dense) {
  const std::size_t d = dense.rows();
  if (!dense.square() || packed.size() != packed_size(d)) {
    throw std::invalid_argument("unpack_upper: size mismatch");
  }
  if (d == 0) return;
  kernels::active_table().unpack_upper(packed.data(), d, dense.row_ptr(0),
                                       dense.cols());
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
