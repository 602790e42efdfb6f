#include "tensor/symmetric.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "tensor/linalg.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/random.hpp"

namespace spdkfac::tensor {
namespace {

/// pack_upper into a fresh buffer, then back the way the runtime unpacks
/// a packed factor: ema_unpack with init.
Matrix pack_unpack(const Matrix& dense) {
  const std::size_t d = dense.rows();
  std::vector<double> packed(packed_size(d));
  pack_upper(dense, packed);
  Matrix back(d, d);
  kernels::active_table().ema_unpack(packed.data(), d, back.row_ptr(0), d,
                                     0.0, /*init=*/true);
  return back;
}

TEST(PackedSize, MatchesTriangleNumbers) {
  EXPECT_EQ(packed_size(0), 0u);
  EXPECT_EQ(packed_size(1), 1u);
  EXPECT_EQ(packed_size(2), 3u);
  EXPECT_EQ(packed_size(64), 2080u);      // paper's smallest ResNet-50 factor
  EXPECT_EQ(packed_size(4608), 10619136u);  // paper's largest
}

TEST(PackUnpack, RoundTripsExactly) {
  Rng rng(42);
  for (std::size_t d : {1u, 2u, 5u, 17u, 64u}) {
    Matrix spd = random_spd(d, rng);
    Matrix back = pack_unpack(spd);
    EXPECT_EQ(max_abs_diff(spd, back), 0.0) << "d=" << d;
  }
}

TEST(PackUpper, WrongSpanSizeThrows) {
  Matrix a = Matrix::identity(3);
  std::vector<double> too_small(5);
  EXPECT_THROW(pack_upper(a, too_small), std::invalid_argument);
}

TEST(PackUnpack, UpperTriangleIsTruth) {
  // Asymmetric input: pack takes the upper triangle and unpack mirrors it.
  Matrix a{{1, 2}, {999, 3}};
  Matrix back = pack_unpack(a);
  EXPECT_EQ(back(0, 1), 2.0);
  EXPECT_EQ(back(1, 0), 2.0);
  EXPECT_EQ(back(1, 1), 3.0);
}

TEST(PackUnpack, InversesSurvivePackedTransport) {
  // The real optimizer ships each damped inverse as its factored form, a
  // lower-triangular matrix, packed in as many elements as a symmetric
  // factor.  Transport must be lossless and must not mirror: the receiver
  // gets the triangle back with exact zeros above the diagonal.  Its
  // stale contents (a previous step's, here NaN) must not survive.
  Rng rng(77);
  Matrix f;
  damped_cholesky_into(random_spd(130, rng), 1e-3, f);
  std::vector<double> packed(packed_size(130));
  pack_lower(f, packed);
  Matrix back(130, 130, std::numeric_limits<double>::quiet_NaN());
  unpack_lower(packed, back);
  EXPECT_EQ(std::memcmp(back.data().data(), f.data().data(),
                        f.data().size_bytes()),
            0);
  Matrix wrong(129, 129);
  EXPECT_THROW(unpack_lower(packed, wrong), std::invalid_argument);
  EXPECT_THROW(pack_lower(wrong, packed), std::invalid_argument);
}

class PackedRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedRoundTrip, RandomSymmetricRoundTrip) {
  const std::size_t d = GetParam();
  Rng rng(d);
  const Matrix r = random_normal(d, d, rng);
  const Matrix m = r + r.transposed();  // exactly symmetric
  EXPECT_EQ(max_abs_diff(pack_unpack(m), m), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Dims, PackedRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 31, 100));

}  // namespace
}  // namespace spdkfac::tensor
