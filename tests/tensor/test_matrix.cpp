#include "tensor/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "exec/thread_pool.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/random.hpp"
#include "testsupport/matrix_helpers.hpp"

namespace spdkfac::tensor {
namespace {

using testsupport::allclose;
using testsupport::matmul_nt;

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (double v : m.data()) EXPECT_EQ(v, 0.0);
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 1.5);
  for (double v : m.data()) EXPECT_EQ(v, 1.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(Matrix, InitializerListRaggedThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, AddSubtract) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  Matrix sum = a + b;
  Matrix diff = b - a;
  EXPECT_EQ(sum(1, 1), 44.0);
  EXPECT_EQ(diff(0, 0), 9.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(max_abs_diff(a, b), std::invalid_argument);
}

TEST(Matrix, ScalarMultiply) {
  Matrix a{{1, -2}};
  Matrix b = 2.0 * a;
  Matrix c = a * -1.0;
  EXPECT_EQ(b(0, 1), -4.0);
  EXPECT_EQ(c(0, 0), -1.0);
}

TEST(Matrix, AddDiagonal) {
  Matrix a(3, 3);
  a.add_diagonal(0.5);
  EXPECT_EQ(a(0, 0), 0.5);
  EXPECT_EQ(a(2, 2), 0.5);
  EXPECT_EQ(a(0, 1), 0.0);
}

TEST(Matrix, AddDiagonalNonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(a.add_diagonal(1.0), std::invalid_argument);
}

TEST(Matrix, Transposed) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix t = a.transposed();
  ASSERT_EQ(t.rows(), 3u);
  ASSERT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(0, 1), 4.0);
  EXPECT_EQ(t(2, 0), 3.0);
}

// The kernel transpose is cache-blocked in 32x32 tiles (with 4x4 register
// tiles on the vector level); sweep shapes that land on and straddle both
// block edges, plus degenerate rows/columns.
TEST(Matrix, TransposedNonSquareAndBlockEdges) {
  Rng rng(23);
  const std::size_t shapes[][2] = {{1, 1},  {1, 17}, {17, 1},  {4, 4},
                                   {5, 7},  {32, 32}, {33, 31}, {37, 65},
                                   {64, 33}};
  for (const auto& s : shapes) {
    Matrix a = random_normal(s[0], s[1], rng);
    Matrix t = a.transposed();
    ASSERT_EQ(t.rows(), a.cols());
    ASSERT_EQ(t.cols(), a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) {
        EXPECT_EQ(t(c, r), a(r, c)) << s[0] << "x" << s[1];
      }
    }
    Matrix back = t.transposed();
    EXPECT_EQ(max_abs_diff(back, a), 0.0);
  }
}

TEST(Matrix, TransposedEmpty) {
  Matrix t = Matrix().transposed();
  EXPECT_EQ(t.rows(), 0u);
  EXPECT_EQ(t.cols(), 0u);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a{{3, 4}};
  EXPECT_DOUBLE_EQ(testsupport::frobenius_norm(a), 5.0);
}

TEST(Matrix, SetZero) {
  Matrix a{{1, 2}, {3, 4}};
  a.set_zero();
  for (double v : a.data()) EXPECT_EQ(v, 0.0);
}

TEST(Matmul, SmallKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = matmul(a, b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matmul, IdentityIsNeutral) {
  Rng rng(7);
  Matrix a = random_normal(4, 4, rng);
  EXPECT_TRUE(allclose(matmul(a, Matrix::identity(4)), a));
  EXPECT_TRUE(allclose(matmul(Matrix::identity(4), a), a));
}

TEST(Matmul, ShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matmul, TnMatchesExplicitTranspose) {
  Rng rng(11);
  Matrix a = random_normal(5, 3, rng);
  Matrix b = random_normal(5, 4, rng);
  EXPECT_TRUE(allclose(matmul_tn(a, b), matmul(a.transposed(), b)));
}

TEST(Matmul, NtMatchesExplicitTranspose) {
  Rng rng(13);
  Matrix a = random_normal(4, 6, rng);
  Matrix b = random_normal(5, 6, rng);
  EXPECT_TRUE(allclose(matmul_nt(a, b), matmul(a, b.transposed())));
}

// Regression for the old `if (aik == 0.0) continue;` zero-skip in the
// matmul inner loops: skipping the multiply silently turned 0 * NaN and
// 0 * inf into 0, masking upstream numerical blow-ups.  IEEE requires the
// NaN to propagate into every output element the bad operand touches.
TEST(Matmul, ZeroTimesNanPropagates) {
  Matrix a{{0.0, 1.0}, {2.0, 0.0}};
  Matrix b(2, 2);
  b(0, 0) = std::numeric_limits<double>::quiet_NaN();
  b(0, 1) = std::numeric_limits<double>::infinity();
  b(1, 0) = 3.0;
  b(1, 1) = 4.0;
  Matrix c = matmul(a, b);
  // Row 0 multiplies the NaN/inf row of b by an explicit 0.
  EXPECT_TRUE(std::isnan(c(0, 0)));  // 0*NaN + 1*3
  EXPECT_TRUE(std::isnan(c(0, 1)));  // 0*inf + 1*4
  // Row 1 scales the bad row by 2: NaN and inf must survive.
  EXPECT_TRUE(std::isnan(c(1, 0)));
  EXPECT_TRUE(std::isinf(c(1, 1)) || std::isnan(c(1, 1)));
}

TEST(Matmul, TnAndNtPropagateNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix a(2, 2);  // all zeros
  Matrix b{{1.0, 2.0}, {3.0, 4.0}};
  b(0, 0) = nan;
  // tn(i, j) sums a(k, i) * b(k, j); the NaN at b(0, 0) reaches column 0.
  Matrix tn = matmul_tn(a, b);
  EXPECT_TRUE(std::isnan(tn(0, 0)));
  EXPECT_TRUE(std::isnan(tn(1, 0)));
  EXPECT_EQ(tn(1, 1), 0.0);  // untouched by the NaN: 0*2 + 0*4

  Matrix nt = matmul_nt(b, a);
  EXPECT_TRUE(std::isnan(nt(0, 0)));
  EXPECT_TRUE(std::isnan(nt(0, 1)));
}

// matmul, matmul_tn and gram split their output rows into parallel_for
// chunks; whatever the chunking, and whatever the pool, every product must
// carry the bits of one whole-matrix kernel call.  The shapes leave ragged row chunks
// (rows % 4 != 0), vector tails (N % 8 != 0) and several k chunks
// (K > 128), at every supported ISA level.  matmul_tn's output form and
// gram write into a NaN-filled destination of the right shape, so an
// element they failed to clear before accumulating, or that gram failed
// to mirror, would surface as a NaN.  gram must carry the bits of the
// whole A^T A call in both triangles.
TEST(MatmulChunking, BitwiseEqualsOneWholeMatrixKernelCall) {
  enum class Op { kNn, kTn, kTnInto, kGram };
  struct Case {
    Op op;
    std::size_t a_rows, a_cols, b_rows, b_cols;
    const char* name;
  };
  const Case cases[] = {
      {Op::kNn, 10, 513, 513, 513, "matmul 10x513 * 513x513"},
      {Op::kNn, 385, 385, 385, 37, "matmul 385x385 * 385x37"},
      {Op::kTn, 2048, 145, 2048, 145, "matmul_tn 2048x145^T * 2048x145"},
      {Op::kTnInto, 2048, 145, 2048, 145,
       "matmul_tn into NaN-filled 145x145"},
      {Op::kGram, 2048, 145, 2048, 145, "gram into NaN-filled 145x145"},
      {Op::kGram, 32, 513, 32, 513, "gram into NaN-filled 513x513"},
  };
  std::vector<kernels::Isa> levels{kernels::Isa::kScalar};
  if (kernels::supported(kernels::Isa::kAvx2)) {
    levels.push_back(kernels::Isa::kAvx2);
  }
  const kernels::Isa saved = kernels::active();
  exec::ThreadPool one(1), two(2), four(4);
  for (const kernels::Isa level : levels) {
    kernels::force(level);
    const kernels::KernelTable& kt = kernels::table(level);
    for (const Case& tc : cases) {
      Rng rng(static_cast<unsigned>(tc.a_rows * 7 + tc.b_cols));
      const Matrix a = random_normal(tc.a_rows, tc.a_cols, rng);
      const Matrix b =
          tc.op == Op::kGram ? a : random_normal(tc.b_rows, tc.b_cols, rng);
      Matrix want;
      switch (tc.op) {
        case Op::kNn:
          want = Matrix(a.rows(), b.cols());
          kt.gemm_nn(a.rows(), a.cols(), b.cols(), a.row_ptr(0), a.cols(),
                     b.row_ptr(0), b.cols(), want.row_ptr(0), want.cols());
          break;
        case Op::kTn:
        case Op::kTnInto:
        case Op::kGram:
          want = Matrix(a.cols(), b.cols());
          kt.gemm_tn(a.cols(), a.rows(), b.cols(), a.row_ptr(0), a.cols(),
                     b.row_ptr(0), b.cols(), want.row_ptr(0), want.cols());
          break;
      }
      const auto product = [&] {
        switch (tc.op) {
          case Op::kNn: return matmul(a, b);
          case Op::kTn: return matmul_tn(a, b);
          case Op::kTnInto: {
            Matrix c(a.cols(), b.cols(),
                     std::numeric_limits<double>::quiet_NaN());
            matmul_tn(a, b, c);
            return c;
          }
          case Op::kGram: {
            Matrix c(a.cols(), a.cols(),
                     std::numeric_limits<double>::quiet_NaN());
            gram(a, c);
            return c;
          }
        }
        return Matrix();
      };
      for (exec::ThreadPool* pool :
           {static_cast<exec::ThreadPool*>(nullptr), &one, &two, &four}) {
        exec::Context ctx(pool);
        SCOPED_TRACE(std::string(kernels::to_string(level)) + " " + tc.name +
                     " workers=" +
                     std::to_string(pool == nullptr ? 0 : pool->workers()));
        const Matrix got = product();
        ASSERT_EQ(got.rows(), want.rows());
        ASSERT_EQ(got.cols(), want.cols());
        EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                              want.data().size_bytes()),
                  0);
      }
    }
  }
  kernels::force(saved);
}

TEST(Allclose, DetectsDifference) {
  Matrix a{{1.0}};
  Matrix b{{1.0 + 1e-6}};
  EXPECT_FALSE(allclose(a, b, 1e-9, 1e-9));
  EXPECT_TRUE(allclose(a, b, 1e-3, 1e-3));
}

TEST(Allclose, ShapeMismatchIsFalse) {
  EXPECT_FALSE(allclose(Matrix(1, 2), Matrix(2, 1)));
}

TEST(MatrixPrint, ContainsDims) {
  std::ostringstream os;
  os << Matrix(2, 3);
  EXPECT_NE(os.str().find("2x3"), std::string::npos);
}

// Associativity-style property sweep over random shapes.
class MatmulProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatmulProperty, AssociativeWithinTolerance) {
  Rng rng(GetParam());
  std::uniform_int_distribution<std::size_t> dim(1, 12);
  const std::size_t m = dim(rng), k = dim(rng), n = dim(rng), p = dim(rng);
  Matrix a = random_normal(m, k, rng);
  Matrix b = random_normal(k, n, rng);
  Matrix c = random_normal(n, p, rng);
  EXPECT_TRUE(allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)),
                       1e-9, 1e-9));
}

TEST_P(MatmulProperty, DistributesOverAddition) {
  Rng rng(GetParam() + 1000);
  std::uniform_int_distribution<std::size_t> dim(1, 12);
  const std::size_t m = dim(rng), k = dim(rng), n = dim(rng);
  Matrix a = random_normal(m, k, rng);
  Matrix b = random_normal(k, n, rng);
  Matrix c = random_normal(k, n, rng);
  EXPECT_TRUE(allclose(matmul(a, b + c), matmul(a, b) + matmul(a, c), 1e-9,
                       1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatmulProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace spdkfac::tensor
