// Deterministic random helpers for tests, benchmarks and the synthetic
// training workloads.  Everything is seeded explicitly so distributed runs
// are reproducible across worker threads.
#pragma once

#include <cstdint>
#include <random>

#include "tensor/matrix.hpp"

namespace spdkfac::tensor {

using Rng = std::mt19937_64;

/// Matrix with i.i.d. N(mean, stddev^2) entries.
Matrix random_normal(std::size_t rows, std::size_t cols, Rng& rng,
                     double mean = 0.0, double stddev = 1.0);

/// Random symmetric positive-definite matrix: B^T B / n + jitter * I with B
/// an n x n Gaussian matrix.  `jitter` keeps the spectrum away from zero so
/// Cholesky succeeds even for large n.
Matrix random_spd(std::size_t n, Rng& rng, double jitter = 1e-3);

/// Fills a span with N(0,1) samples.
void fill_normal(std::span<double> out, Rng& rng, double mean = 0.0,
                 double stddev = 1.0);

}  // namespace spdkfac::tensor
