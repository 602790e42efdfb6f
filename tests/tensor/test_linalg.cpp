#include "tensor/linalg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "exec/thread_pool.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/random.hpp"
#include "testsupport/linalg_reference.hpp"
#include "testsupport/matrix_helpers.hpp"

namespace spdkfac::tensor {
namespace {

using testsupport::allclose;
using testsupport::damped_inverse;
using testsupport::is_symmetric;
using testsupport::lower_factor;
using testsupport::matmul_nt;
using testsupport::spd_inverse;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::vector<kernels::Isa> supported_levels() {
  std::vector<kernels::Isa> levels{kernels::Isa::kScalar};
  if (kernels::supported(kernels::Isa::kAvx2)) {
    levels.push_back(kernels::Isa::kAvx2);
  }
  return levels;
}

Matrix factorize(const Matrix& a, double damping = 0.0) {
  Matrix f;
  damped_cholesky_into(a, damping, f);
  return f;
}

TEST(Cholesky, KnownFactorization) {
  // A = L L^T with L = [[2,0],[1,3]] -> A = [[4,2],[2,10]].  One block, so
  // the factored form is L^-1 = [[1/2, 0], [-1/6, 1/3]].
  const Matrix f = factorize(Matrix{{4, 2}, {2, 10}});
  EXPECT_DOUBLE_EQ(f(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(f(1, 0), -1.0 / 6.0);
  EXPECT_DOUBLE_EQ(f(1, 1), 1.0 / 3.0);
  EXPECT_EQ(f(0, 1), 0.0);
  const Matrix l = lower_factor(f);
  EXPECT_DOUBLE_EQ(l(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(l(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(l(1, 1), 3.0);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  Matrix f;
  EXPECT_THROW(damped_cholesky_into(a, 0.0, f), std::domain_error);
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix f;
  EXPECT_THROW(damped_cholesky_into(Matrix(2, 3), 0.0, f),
               std::invalid_argument);
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

// The factorization (n^3/3) plus the diagonal-block inverses (b^3/3 per
// kCholeskyBlock-wide block b, the last one ragged).
TEST(SpdInverseFlops, Cubic) {
  EXPECT_DOUBLE_EQ(spd_inverse_flops(10), 2.0 * 1000.0 / 3.0);
  EXPECT_DOUBLE_EQ(spd_inverse_flops(130),
                   (130.0 * 130 * 130 + 2 * 64.0 * 64 * 64 + 8) / 3.0);
}

// Property sweep: the factored form really inverts, and really factors,
// across sizes and conditioning.
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
  const Matrix l = lower_factor(factorize(a));
  Matrix recon = matmul_nt(l, l);
  EXPECT_TRUE(allclose(recon, a, 1e-9, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SpdInverseProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 16, 33, 64),
                       ::testing::Values(1e-3, 0.1, 1.0)));

// ---------------------------------------------------------------------------
// The factorization and the solves work on 64-wide panels and blocks:
// sizes on and around the block boundaries (ragged last blocks included),
// up to the factor orders the benchmark workloads factorize.

void expect_bitwise_eq(std::span<const double> got,
                       std::span<const double> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size_bytes()), 0)
      << what;
}

void expect_bitwise_eq(const Matrix& got, const Matrix& want,
                       const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  expect_bitwise_eq(got.data(), want.data(), what);
}

class SpdInverseBlocked : public ::testing::TestWithParam<int> {};

TEST_P(SpdInverseBlocked, InvertsSymmetricallyAndCholeskyReconstructs) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(static_cast<unsigned>(n * 31 + 7));
  const Matrix a = random_spd(n, rng, 1e-2);

  const Matrix f = factorize(a);
  std::size_t above_diagonal = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) above_diagonal += f(i, j) != 0.0;
  }
  EXPECT_EQ(above_diagonal, 0u) << "F must be exactly lower triangular";
  const Matrix l = lower_factor(f);
  EXPECT_TRUE(allclose(matmul_nt(l, l), a, 1e-9, 1e-9));

  const Matrix inv = spd_inverse(a);
  EXPECT_TRUE(allclose(matmul(a, inv), Matrix::identity(n), 1e-6, 1e-6));
  // The solves apply a symmetric operator, so the inverse they build is
  // symmetric up to rounding.
  double largest = 0.0;
  for (const double v : inv.data()) largest = std::max(largest, std::abs(v));
  EXPECT_TRUE(is_symmetric(inv, 1e-10 * largest));
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, SpdInverseBlocked,
                         ::testing::Values(63, 64, 65, 127, 128, 129, 257, 385,
                                           513),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "n" + std::to_string(info.param);
                         });

// Every block and chunk boundary depends on n alone, so the factored form
// is bitwise identical serially and under any pool, at each ISA level.
TEST(SpdInverseBlocked, BitwiseAcrossPoolSizesAtEveryIsaLevel) {
  const kernels::Isa saved = kernels::active();
  exec::ThreadPool one(1), two(2), four(4);
  for (const kernels::Isa level : supported_levels()) {
    kernels::force(level);
    for (const std::size_t n : {65, 129, 257, 513}) {
      Rng rng(static_cast<unsigned>(n));
      const Matrix a = random_spd(n, rng, 1e-2);
      Matrix want;
      {
        exec::Context serial(nullptr);
        want = factorize(a, 1e-3);
      }
      for (exec::ThreadPool* pool : {&one, &two, &four}) {
        exec::Context ctx(pool);
        SCOPED_TRACE(std::string(kernels::to_string(level)) +
                     " n=" + std::to_string(n) +
                     " workers=" + std::to_string(pool->workers()));
        expect_bitwise_eq(factorize(a, 1e-3), want, "damped_cholesky_into");
      }
    }
  }
  kernels::force(saved);
}

/// The factored form one row at a time: the blocked Cholesky on the same
/// 64-wide panels and per-element k order, with a 1-row gemm_nt per row
/// for the reduction and one dot per element for the panel solve; then
/// each diagonal block's inverse built out of place, one 1-row gemm_nn per
/// row against the finished rows above it.
Matrix row_at_a_time_factored_form(const Matrix& a) {
  constexpr std::size_t kNb = kCholeskyBlock;
  const std::size_t n = a.rows();
  const auto& kt = kernels::active_table();
  Matrix l(n, n);
  for (std::size_t j0 = 0; j0 < n; j0 += kNb) {
    const std::size_t j1 = std::min(n, j0 + kNb);
    for (std::size_t i = j0; i < n; ++i) {
      const bool diagonal = i < j1;
      const std::size_t w = std::min(j1, i + 1) - j0;
      double* li = l.row_ptr(i);
      std::fill(li + j0, li + (diagonal ? n : j1), 0.0);
      kt.gemm_nt(1, j0, w, li, n, l.row_ptr(j0), n, li + j0, n);
      const std::size_t end = j0 + w - (diagonal ? 1 : 0);
      for (std::size_t j = j0; j < end; ++j) li[j] = a(i, j) - li[j];
      if (diagonal) li[i] = a(i, i) - li[i];
    }
    for (std::size_t j = j0; j < j1; ++j) {
      double* lj = l.row_ptr(j);
      lj[j] = std::sqrt(lj[j] - kt.dot(lj + j0, lj + j0, j - j0));
      for (std::size_t i = j + 1; i < n; ++i) {
        double* li = l.row_ptr(i);
        li[j] = (li[j] - kt.dot(li + j0, lj + j0, j - j0)) / lj[j];
      }
    }
  }
  Matrix f = l;
  for (std::size_t i0 = 0; i0 < n; i0 += kNb) {
    const std::size_t w = std::min(n, i0 + kNb) - i0;
    for (std::size_t r = 0; r < w; ++r) {
      double* fr = f.row_ptr(i0 + r) + i0;
      std::fill(fr, fr + w, 0.0);
      const std::size_t width = std::min(w, (r + 7) & ~std::size_t{7});
      kt.gemm_nn(1, r, width, l.row_ptr(i0 + r) + i0, n, f.row_ptr(i0) + i0,
                 n, fr, n);
      const double inv = 1.0 / l(i0 + r, i0 + r);
      for (std::size_t c = 0; c < r; ++c) fr[c] *= -inv;
      fr[r] = inv;
    }
  }
  return f;
}

// damped_cholesky_into batches rows into multi-row gemm_nt calls and
// inverts each diagonal block in place; every element must keep the bits
// of the row-at-a-time, out-of-place reference, serially and under a
// pool, at each ISA level.
TEST(Cholesky, BitwiseEqualsRowAtATimeReferenceAtEveryIsaLevel) {
  const kernels::Isa saved = kernels::active();
  exec::ThreadPool two(2);
  for (const kernels::Isa level : supported_levels()) {
    kernels::force(level);
    for (const std::size_t n : {1, 5, 64, 65, 130, 257}) {
      Rng rng(static_cast<unsigned>(n * 17 + 3));
      const Matrix a = random_spd(n, rng, 1e-2);
      const Matrix want = row_at_a_time_factored_form(a);
      for (exec::ThreadPool* pool : {static_cast<exec::ThreadPool*>(nullptr),
                                     &two}) {
        exec::Context ctx(pool);
        SCOPED_TRACE(std::string(kernels::to_string(level)) +
                     " n=" + std::to_string(n) +
                     (pool == nullptr ? " serial" : " pool"));
        expect_bitwise_eq(factorize(a), want, "damped_cholesky_into");
      }
    }
  }
  kernels::force(saved);
}

// A failing pivot past the first panel, after whole panels of pool work:
// detection happens only in the serial diagonal-block step, so the
// factorization still throws, serially and under a pool.
TEST(SpdInverseBlocked, RejectsFailuresPastTheFirstPanel) {
  const std::size_t n = 200;
  Rng rng(211);
  const Matrix spd = random_spd(n, rng, 1e-2);
  Matrix indefinite = spd;  // SPD in its leading 100x100 block only
  for (std::size_t i = 100; i < n; ++i) indefinite(i, i) = -indefinite(i, i);
  Matrix nan_off_diagonal = spd;
  nan_off_diagonal(150, 20) = kNan;
  nan_off_diagonal(20, 150) = kNan;
  Matrix nan_diagonal = spd;
  nan_diagonal(70, 70) = kNan;

  Matrix leading(100, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 100; ++j) leading(i, j) = indefinite(i, j);
  }
  EXPECT_NO_THROW(factorize(leading));

  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    exec::Context ctx(p);
    for (const Matrix* m : {&indefinite, &nan_off_diagonal, &nan_diagonal}) {
      Matrix f;
      EXPECT_THROW(damped_cholesky_into(*m, 0.0, f), std::domain_error);
    }
  }
}

// damped_cholesky_into reuses caller storage: it must give the bits of a
// fresh call whatever `f` held before.  It starts NaN-filled and wrongly
// shaped (the call must resize it), then is NaN-filled again at the right
// shape (the call must keep its storage): any element read before it was
// written would surface as a NaN.
TEST(DampedCholeskyInto, ReusesStorageBitwiseAcrossPoolsAndIsaLevels) {
  constexpr double kDamping = 1e-2;
  const kernels::Isa saved = kernels::active();
  exec::ThreadPool one(1), two(2), four(4);
  for (const kernels::Isa level : supported_levels()) {
    kernels::force(level);
    for (const std::size_t n : {1, 63, 64, 65, 129, 385, 513}) {
      Rng rng(static_cast<unsigned>(n * 13 + 5));
      const Matrix a = random_spd(n, rng, 1e-3);
      Matrix want;
      {
        exec::Context serial(nullptr);
        want = factorize(a, kDamping);
      }
      Matrix damped = a;
      damped.add_diagonal(kDamping);
      const Matrix l = lower_factor(want);
      ASSERT_TRUE(allclose(matmul_nt(l, l), damped, 1e-9, 1e-9));
      for (exec::ThreadPool* pool :
           {static_cast<exec::ThreadPool*>(nullptr), &one, &two, &four}) {
        exec::Context ctx(pool);
        SCOPED_TRACE(std::string(kernels::to_string(level)) +
                     " n=" + std::to_string(n) + " workers=" +
                     std::to_string(pool == nullptr ? 0 : pool->workers()));
        Matrix f(n + 1, n + 2, kNan);
        damped_cholesky_into(a, kDamping, f);
        expect_bitwise_eq(f, want, "resized f");

        const double* storage = f.data().data();
        std::fill(f.data().begin(), f.data().end(), kNan);
        damped_cholesky_into(a, kDamping, f);
        expect_bitwise_eq(f, want, "reused f");
        EXPECT_EQ(f.data().data(), storage);
      }
    }
  }
  kernels::force(saved);
}

TEST(DampedCholeskyInto, RejectsNonSpdAndBadArguments) {
  Rng rng(17);
  const std::size_t n = 130;
  Matrix indefinite = random_spd(n, rng, 1e-2);
  for (std::size_t i = 70; i < n; ++i) indefinite(i, i) = -indefinite(i, i);
  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    exec::Context ctx(p);
    Matrix f;
    EXPECT_THROW(damped_cholesky_into(indefinite, 1e-2, f), std::domain_error);
    // Damping too small to rescue a matrix with a negative eigenvalue.
    const Matrix negative{{-1.0, 0.0}, {0.0, 1.0}};
    EXPECT_THROW(damped_cholesky_into(negative, 0.5, f), std::domain_error);
  }
  Matrix a = Matrix::identity(3), f;
  EXPECT_THROW(damped_cholesky_into(Matrix(2, 3), 1.0, f),
               std::invalid_argument);
  EXPECT_THROW(damped_cholesky_into(a, 1.0, a), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The solves: X (A + gamma I)^-1 and (G + gamma I)^-1 X in place, at the
// factor orders around the block boundaries and at the update shapes the
// benchmark workloads precondition (d_out of 10, 32, 128 and 384 rows).

const std::size_t kSolveDims[] = {1, 63, 64, 65, 129, 385, 513};
const std::size_t kSolveRows[] = {1, 3, 10, 384};
constexpr double kSolveDamping = 1e-2;

/// max |got - want| / max |want|.
double relative_error(std::span<const double> got,
                      std::span<const double> want) {
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return err / scale;
}

// Against the explicit inverse from scalar loops (testsupport's
// scalar_damped_inverse shares no code with the runtime), both sides.
TEST(CholeskySolve, MatchesExplicitInverseAcrossShapes) {
  for (const std::size_t d : kSolveDims) {
    Rng rng(static_cast<unsigned>(d * 7 + 1));
    const Matrix a = random_spd(d, rng, 1e-2);
    const Matrix inv = testsupport::scalar_damped_inverse(a, kSolveDamping);
    const Matrix f = factorize(a, kSolveDamping);
    for (const std::size_t m : kSolveRows) {
      SCOPED_TRACE(std::string("d=") + std::to_string(d) + " m=" +
                   std::to_string(m));
      const Matrix right_in = random_normal(m, d, rng);
      Matrix right = right_in;
      solve_right(f, right.data());
      EXPECT_LT(relative_error(right.data(), matmul(right_in, inv).data()),
                1e-10)
          << "solve_right";

      const Matrix left_in = random_normal(d, m, rng);
      Matrix left = left_in;
      solve_left(f, left.data());
      EXPECT_LT(relative_error(left.data(), matmul(inv, left_in).data()),
                1e-10)
          << "solve_left";
    }
  }
}

// Rows (right) and columns (left) are split into shape-only chunks, so
// both solves are bitwise identical serially and under any pool, at each
// ISA level.  They work in place on whatever span they are handed: here a
// window of a larger NaN-guarded buffer, whose guards must stay untouched.
TEST(CholeskySolve, BitwiseAcrossPoolSizesAndInPlaceAtEveryIsaLevel) {
  constexpr std::size_t kGuard = 16;
  const kernels::Isa saved = kernels::active();
  exec::ThreadPool one(1), two(2), four(4);
  for (const kernels::Isa level : supported_levels()) {
    kernels::force(level);
    for (const std::size_t d : kSolveDims) {
      Rng rng(static_cast<unsigned>(d * 11 + 3));
      const Matrix f = factorize(random_spd(d, rng, 1e-2), kSolveDamping);
      for (const std::size_t m : kSolveRows) {
        const Matrix x = random_normal(m, d, rng);
        Matrix want_right = x, want_left = x;
        {
          exec::Context serial(nullptr);
          solve_right(f, want_right.data());
          solve_left(f, want_left.data());  // x read as d x m
        }
        for (exec::ThreadPool* pool : {&one, &two, &four}) {
          exec::Context ctx(pool);
          SCOPED_TRACE(std::string(kernels::to_string(level)) +
                       " d=" + std::to_string(d) + " m=" + std::to_string(m) +
                       " workers=" + std::to_string(pool->workers()));
          for (const bool right : {true, false}) {
            std::vector<double> buffer(x.data().size() + 2 * kGuard, kNan);
            const std::span<double> window(buffer.data() + kGuard,
                                           x.data().size());
            std::copy(x.data().begin(), x.data().end(), window.begin());
            if (right) {
              solve_right(f, window);
            } else {
              solve_left(f, window);
            }
            expect_bitwise_eq(window,
                              (right ? want_right : want_left).data(),
                              right ? "solve_right" : "solve_left");
            const auto is_nan = [](double v) { return std::isnan(v); };
            EXPECT_TRUE(std::all_of(buffer.begin(), buffer.begin() + kGuard,
                                    is_nan) &&
                        std::all_of(buffer.end() - kGuard, buffer.end(),
                                    is_nan))
                << "a solve wrote outside its span";
          }
        }
      }
    }
  }
  kernels::force(saved);
}

// A factor that is not SPD never yields a factored form to solve with
// (damped_cholesky_into throws), and operands of the wrong shape are
// refused.
TEST(CholeskySolve, RejectsNonSpdFactorAndBadShapes) {
  Rng rng(19);
  Matrix indefinite = random_spd(70, rng, 1e-2);
  indefinite(69, 69) = -1.0;
  Matrix f;
  EXPECT_THROW(damped_cholesky_into(indefinite, 1e-3, f), std::domain_error);

  f = factorize(random_spd(4, rng, 1e-2));
  std::vector<double> x(10);
  EXPECT_THROW(solve_right(f, x), std::invalid_argument);
  EXPECT_THROW(solve_left(f, x), std::invalid_argument);
  EXPECT_THROW(solve_right(Matrix(2, 3), x), std::invalid_argument);
  std::vector<double> empty;
  EXPECT_NO_THROW(solve_right(f, empty));
  EXPECT_NO_THROW(solve_left(Matrix(), empty));
}

}  // namespace
}  // namespace spdkfac::tensor
