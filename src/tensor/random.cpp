#include "tensor/random.hpp"

namespace spdkfac::tensor {

Matrix random_normal(std::size_t rows, std::size_t cols, Rng& rng, double mean,
                     double stddev) {
  Matrix m(rows, cols);
  fill_normal(m.data(), rng, mean, stddev);
  return m;
}

Matrix random_spd(std::size_t n, Rng& rng, double jitter) {
  Matrix b = random_normal(n, n, rng);
  Matrix spd = matmul_tn(b, b);
  spd *= 1.0 / static_cast<double>(n);
  spd.add_diagonal(jitter);
  return spd;
}

void fill_normal(std::span<double> out, Rng& rng, double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  for (double& v : out) v = dist(rng);
}

}  // namespace spdkfac::tensor
