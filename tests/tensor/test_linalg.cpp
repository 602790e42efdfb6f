#include "tensor/linalg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "exec/thread_pool.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/random.hpp"

namespace spdkfac::tensor {
namespace {

TEST(Cholesky, KnownFactorization) {
  // A = L L^T with L = [[2,0],[1,3]] -> A = [[4,2],[2,10]].
  Matrix a{{4, 2}, {2, 10}};
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_DOUBLE_EQ(chol->lower(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(chol->lower(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(chol->lower(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(chol->lower(0, 1), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, SolveRecoversKnownVector) {
  Rng rng(3);
  Matrix a = random_spd(6, rng);
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  std::vector<double> x_true{1, -1, 2, 0.5, -3, 4};
  const auto b = matvec(a, x_true);
  const auto x = chol->solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Cholesky, SolveMatrixRecoversIdentity) {
  Rng rng(5);
  Matrix a = random_spd(5, rng);
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  Matrix x = chol->solve(Matrix::identity(5));
  EXPECT_TRUE(allclose(matmul(a, x), Matrix::identity(5), 1e-8, 1e-8));
}

TEST(Cholesky, LogDetMatchesDiagonalProduct) {
  Matrix a{{4, 0}, {0, 9}};
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_NEAR(chol->log_det(), std::log(36.0), 1e-12);
}

TEST(SpdInverse, InverseOfIdentityIsIdentity) {
  EXPECT_TRUE(allclose(spd_inverse(Matrix::identity(4)),
                       Matrix::identity(4)));
}

TEST(SpdInverse, DiagonalMatrix) {
  Matrix a{{2, 0}, {0, 5}};
  Matrix inv = spd_inverse(a);
  EXPECT_NEAR(inv(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(inv(1, 1), 0.2, 1e-12);
  EXPECT_NEAR(inv(0, 1), 0.0, 1e-12);
}

TEST(SpdInverse, ThrowsOnIndefinite) {
  Matrix a{{0, 0}, {0, 0}};
  EXPECT_THROW(spd_inverse(a), std::domain_error);
}

TEST(SpdInverse, ResultIsExactlySymmetric) {
  Rng rng(9);
  Matrix inv = spd_inverse(random_spd(20, rng));
  for (std::size_t i = 0; i < inv.rows(); ++i) {
    for (std::size_t j = 0; j < inv.cols(); ++j) {
      EXPECT_EQ(inv(i, j), inv(j, i));
    }
  }
}

TEST(DampedInverse, MatchesManualDamping) {
  Rng rng(21);
  Matrix a = random_spd(8, rng);
  Matrix damped = a;
  damped.add_diagonal(0.3);
  EXPECT_TRUE(allclose(damped_inverse(a, 0.3), spd_inverse(damped)));
}

TEST(DampedInverse, DampingRescuesSingularMatrix) {
  Matrix a(4, 4);  // zero matrix: singular, but A + gamma I is SPD
  Matrix inv = damped_inverse(a, 0.5);
  EXPECT_TRUE(allclose(inv, Matrix::identity(4) * 2.0));
}

TEST(IsSymmetric, DetectsAsymmetry) {
  Matrix a{{1, 2}, {2.1, 1}};
  EXPECT_FALSE(is_symmetric(a, 1e-3));
  EXPECT_TRUE(is_symmetric(a, 0.2));
  EXPECT_FALSE(is_symmetric(Matrix(2, 3)));
}

TEST(Symmetrize, AveragesOffDiagonals) {
  Matrix a{{1, 2}, {4, 1}};
  symmetrize(a);
  EXPECT_EQ(a(0, 1), 3.0);
  EXPECT_EQ(a(1, 0), 3.0);
}

TEST(SpdInverseFlops, Cubic) {
  EXPECT_DOUBLE_EQ(spd_inverse_flops(10), 1000.0);
}

TEST(SymmetricEigen, DiagonalMatrixEigenvaluesSorted) {
  Matrix a{{5, 0, 0}, {0, 1, 0}, {0, 0, 3}};
  const SymmetricEigen eigen = symmetric_eigen(a);
  ASSERT_EQ(eigen.eigenvalues.size(), 3u);
  EXPECT_NEAR(eigen.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[2], 5.0, 1e-12);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a{{2, 1}, {1, 2}};
  const SymmetricEigen eigen = symmetric_eigen(a);
  EXPECT_NEAR(eigen.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, ReconstructsAndOrthonormal) {
  Rng rng(101);
  const Matrix a = random_spd(24, rng);
  const SymmetricEigen eigen = symmetric_eigen(a);
  // Q^T Q = I.
  EXPECT_TRUE(allclose(matmul_tn(eigen.eigenvectors, eigen.eigenvectors),
                       Matrix::identity(24), 1e-9, 1e-9));
  // Q diag(lambda) Q^T = A.
  Matrix scaled = eigen.eigenvectors;
  for (std::size_t j = 0; j < 24; ++j) {
    for (std::size_t i = 0; i < 24; ++i) {
      scaled(i, j) *= eigen.eigenvalues[j];
    }
  }
  EXPECT_TRUE(allclose(matmul_nt(scaled, eigen.eigenvectors), a, 1e-8, 1e-9));
}

TEST(SymmetricEigen, DampedInverseMatchesCholeskyPath) {
  Rng rng(103);
  const Matrix a = random_spd(16, rng);
  const Matrix via_eigen = symmetric_eigen(a).damped_inverse(0.2);
  const Matrix via_chol = damped_inverse(a, 0.2);
  EXPECT_TRUE(allclose(via_eigen, via_chol, 1e-8, 1e-10));
}

TEST(SymmetricEigen, OneDecompositionServesManyDampings) {
  // The amortization property real K-FAC systems exploit.
  Rng rng(107);
  const Matrix a = random_spd(10, rng);
  const SymmetricEigen eigen = symmetric_eigen(a);
  for (double gamma : {1e-3, 1e-1, 1.0}) {
    EXPECT_TRUE(allclose(eigen.damped_inverse(gamma),
                         damped_inverse(a, gamma), 1e-8, 1e-10))
        << gamma;
  }
}

TEST(SymmetricEigen, IndefiniteMatrixStillDecomposes) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues -1, 3
  const SymmetricEigen eigen = symmetric_eigen(a);
  EXPECT_NEAR(eigen.eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 3.0, 1e-12);
  // Damping must rescue it only when gamma > 1.
  EXPECT_THROW(eigen.damped_inverse(0.5), std::domain_error);
  const Matrix inv = eigen.damped_inverse(2.0);
  Matrix damped = a;
  damped.add_diagonal(2.0);
  EXPECT_TRUE(allclose(matmul(damped, inv), Matrix::identity(2), 1e-10,
                       1e-10));
}

TEST(SymmetricEigen, RejectsNonSquare) {
  EXPECT_THROW(symmetric_eigen(Matrix(2, 3)), std::invalid_argument);
}

TEST(SymmetricEigen, SizeOneMatrix) {
  Matrix a{{4.0}};
  const SymmetricEigen eigen = symmetric_eigen(a);
  EXPECT_DOUBLE_EQ(eigen.eigenvalues[0], 4.0);
  EXPECT_DOUBLE_EQ(eigen.damped_inverse(1.0)(0, 0), 0.2);
}

// Property sweep: inverse really inverts across sizes and conditioning.
class SpdInverseProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SpdInverseProperty, ProductWithInverseIsIdentity) {
  const auto [n, jitter] = GetParam();
  Rng rng(static_cast<unsigned>(n * 1000 + jitter * 10));
  Matrix a = random_spd(n, rng, jitter);
  Matrix inv = spd_inverse(a);
  EXPECT_TRUE(allclose(matmul(a, inv), Matrix::identity(n), 1e-6, 1e-6))
      << "n=" << n << " jitter=" << jitter;
}

TEST_P(SpdInverseProperty, CholeskyReconstructs) {
  const auto [n, jitter] = GetParam();
  Rng rng(static_cast<unsigned>(n * 77 + 5));
  Matrix a = random_spd(n, rng, jitter);
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  Matrix recon = matmul_nt(chol->lower, chol->lower);
  EXPECT_TRUE(allclose(recon, a, 1e-9, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SpdInverseProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 16, 33, 64),
                       ::testing::Values(1e-3, 0.1, 1.0)));

// ---------------------------------------------------------------------------
// The blocked Cholesky and inverse work on 64-wide panels and blocks and
// 8-row strips: sizes on and around the block boundaries (ragged last
// blocks included), up to the factor orders the benchmark workloads invert.

void expect_bitwise_eq(const Matrix& got, const Matrix& want,
                       const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        want.data().size_bytes()),
            0)
      << what;
}

class SpdInverseBlocked : public ::testing::TestWithParam<int> {};

TEST_P(SpdInverseBlocked, InvertsSymmetricallyAndCholeskyReconstructs) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(static_cast<unsigned>(n * 31 + 7));
  const Matrix a = random_spd(n, rng, 1e-2);

  const auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  std::size_t above_diagonal = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      above_diagonal += chol->lower(i, j) != 0.0;
    }
  }
  EXPECT_EQ(above_diagonal, 0u) << "L must be exactly lower triangular";
  EXPECT_TRUE(allclose(matmul_nt(chol->lower, chol->lower), a, 1e-9, 1e-9));

  const Matrix inv = spd_inverse(a);
  EXPECT_TRUE(allclose(matmul(a, inv), Matrix::identity(n), 1e-6, 1e-6));
  std::size_t asymmetric = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      asymmetric += std::memcmp(inv.row_ptr(i) + j, inv.row_ptr(j) + i,
                                sizeof(double)) != 0;
    }
  }
  EXPECT_EQ(asymmetric, 0u) << "the inverse must be exactly symmetric";
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, SpdInverseBlocked,
                         ::testing::Values(63, 64, 65, 127, 128, 129, 257, 385,
                                           513),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "n" + std::to_string(info.param);
                         });

// Every block, strip and chunk boundary depends on n alone, so both
// factorizations are bitwise identical serially and under any pool, at
// each ISA level.
TEST(SpdInverseBlocked, BitwiseAcrossPoolSizesAtEveryIsaLevel) {
  std::vector<kernels::Isa> levels{kernels::Isa::kScalar};
  if (kernels::supported(kernels::Isa::kAvx2)) {
    levels.push_back(kernels::Isa::kAvx2);
  }
  const kernels::Isa saved = kernels::active();
  exec::ThreadPool one(1), two(2), four(4);
  for (const kernels::Isa level : levels) {
    kernels::force(level);
    for (const std::size_t n : {65, 129, 257, 513}) {
      Rng rng(static_cast<unsigned>(n));
      const Matrix a = random_spd(n, rng, 1e-2);
      Matrix lower, inv;
      {
        exec::Context serial(nullptr);
        lower = cholesky(a)->lower;
        inv = spd_inverse(a);
      }
      for (exec::ThreadPool* pool : {&one, &two, &four}) {
        exec::Context ctx(pool);
        SCOPED_TRACE(std::string(kernels::to_string(level)) +
                     " n=" + std::to_string(n) +
                     " workers=" + std::to_string(pool->workers()));
        expect_bitwise_eq(cholesky(a)->lower, lower, "cholesky");
        expect_bitwise_eq(spd_inverse(a), inv, "spd_inverse");
      }
    }
  }
  kernels::force(saved);
}

// A failing pivot past the first panel, after whole panels of pool work:
// detection happens only in the serial diagonal-block step, so cholesky()
// still reports nullopt and spd_inverse() still throws, serially and
// under a pool.
TEST(SpdInverseBlocked, RejectsFailuresPastTheFirstPanel) {
  const std::size_t n = 200;
  Rng rng(211);
  const Matrix spd = random_spd(n, rng, 1e-2);
  Matrix indefinite = spd;  // SPD in its leading 100x100 block only
  for (std::size_t i = 100; i < n; ++i) indefinite(i, i) = -indefinite(i, i);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Matrix nan_off_diagonal = spd;
  nan_off_diagonal(150, 20) = kNan;
  nan_off_diagonal(20, 150) = kNan;
  Matrix nan_diagonal = spd;
  nan_diagonal(70, 70) = kNan;

  Matrix leading(100, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 100; ++j) leading(i, j) = indefinite(i, j);
  }
  EXPECT_TRUE(cholesky(leading).has_value());

  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    exec::Context ctx(p);
    for (const Matrix* m : {&indefinite, &nan_off_diagonal, &nan_diagonal}) {
      EXPECT_FALSE(cholesky(*m).has_value());
      EXPECT_THROW(spd_inverse(*m), std::domain_error);
    }
  }
}

// damped_inverse_into reuses caller storage: it must carry the bits of
// damped_inverse whatever `out` and `scratch` held before.  They start
// NaN-filled and wrongly shaped (the call must resize them), then are
// NaN-filled again at the right shape (the call must keep their storage):
// any element a stage read before writing it would surface as a NaN.
TEST(DampedInverseInto, BitwiseEqualsDampedInverseAcrossPoolsAndIsaLevels) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kDamping = 1e-2;
  std::vector<kernels::Isa> levels{kernels::Isa::kScalar};
  if (kernels::supported(kernels::Isa::kAvx2)) {
    levels.push_back(kernels::Isa::kAvx2);
  }
  const kernels::Isa saved = kernels::active();
  exec::ThreadPool one(1), two(2), four(4);
  for (const kernels::Isa level : levels) {
    kernels::force(level);
    for (const std::size_t n : {1, 63, 64, 65, 129, 385, 513}) {
      Rng rng(static_cast<unsigned>(n * 13 + 5));
      const Matrix a = random_spd(n, rng, 1e-3);
      Matrix want;
      {
        exec::Context serial(nullptr);
        want = damped_inverse(a, kDamping);
      }
      // The reference shares the stage code, so check it independently.
      Matrix damped = a;
      damped.add_diagonal(kDamping);
      ASSERT_TRUE(
          allclose(matmul(damped, want), Matrix::identity(n), 1e-6, 1e-6));
      for (exec::ThreadPool* pool :
           {static_cast<exec::ThreadPool*>(nullptr), &one, &two, &four}) {
        exec::Context ctx(pool);
        SCOPED_TRACE(std::string(kernels::to_string(level)) +
                     " n=" + std::to_string(n) + " workers=" +
                     std::to_string(pool == nullptr ? 0 : pool->workers()));
        Matrix out(n + 1, n + 1, kNan);
        Matrix scratch(n, n + 2, kNan);
        damped_inverse_into(a, kDamping, out, scratch);
        expect_bitwise_eq(out, want, "resized out");
        ASSERT_EQ(scratch.rows(), n);
        ASSERT_EQ(scratch.cols(), n);

        const double* out_storage = out.data().data();
        const double* scratch_storage = scratch.data().data();
        std::fill(out.data().begin(), out.data().end(), kNan);
        std::fill(scratch.data().begin(), scratch.data().end(), kNan);
        damped_inverse_into(a, kDamping, out, scratch);
        expect_bitwise_eq(out, want, "reused out");
        EXPECT_EQ(out.data().data(), out_storage);
        EXPECT_EQ(scratch.data().data(), scratch_storage);
      }
    }
  }
  kernels::force(saved);
}

TEST(DampedInverseInto, RejectsNonSpdAndBadArguments) {
  Rng rng(17);
  const std::size_t n = 130;
  Matrix indefinite = random_spd(n, rng, 1e-2);
  for (std::size_t i = 70; i < n; ++i) indefinite(i, i) = -indefinite(i, i);
  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    exec::Context ctx(p);
    Matrix out, scratch;
    EXPECT_THROW(damped_inverse_into(indefinite, 1e-2, out, scratch),
                 std::domain_error);
    // Damping too small to rescue a matrix with a negative eigenvalue.
    const Matrix negative{{-1.0, 0.0}, {0.0, 1.0}};
    EXPECT_THROW(damped_inverse_into(negative, 0.5, out, scratch),
                 std::domain_error);
  }
  Matrix a = Matrix::identity(3), out, scratch;
  EXPECT_THROW(damped_inverse_into(Matrix(2, 3), 1.0, out, scratch),
               std::invalid_argument);
  EXPECT_THROW(damped_inverse_into(a, 1.0, a, scratch), std::invalid_argument);
  EXPECT_THROW(damped_inverse_into(a, 1.0, out, a), std::invalid_argument);
  EXPECT_THROW(damped_inverse_into(a, 1.0, out, out), std::invalid_argument);
}

}  // namespace
}  // namespace spdkfac::tensor
