// Unit tests for the runtime-dispatched microkernel tables
// (src/tensor/kernels): every supported ISA level is checked against a
// naive reference, and the determinism contract from kernels.hpp is
// enforced — per-element k-ascending accumulation independent of caller
// chunking, bitwise-stable repeats within a level, and bitwise equality
// across levels for the purely elementwise kernels the collectives use.
#include "tensor/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/random.hpp"

namespace spdkfac::tensor::kernels {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::vector<Isa> supported_levels() {
  std::vector<Isa> levels{Isa::kScalar};
  if (supported(Isa::kAvx2)) levels.push_back(Isa::kAvx2);
  return levels;
}

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  fill_normal(v, rng);
  return v;
}

void expect_bitwise_eq(const std::vector<double>& got,
                       const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // memcmp-style comparison so NaNs with equal payloads also pass.
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, double tol,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol * (1.0 + std::abs(want[i])))
        << what << " at " << i;
  }
}

// ---------------------------------------------------------------------------
// Dispatch.

TEST(KernelDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(supported(Isa::kScalar));
  EXPECT_EQ(table(Isa::kScalar).isa, Isa::kScalar);
  EXPECT_STREQ(to_string(Isa::kScalar), "scalar");
  EXPECT_STREQ(to_string(Isa::kAvx2), "avx2");
}

TEST(KernelDispatch, ActiveIsSupported) {
  EXPECT_TRUE(supported(active()));
  EXPECT_TRUE(supported(best_supported()));
  EXPECT_EQ(active_table().isa, active());
}

TEST(KernelDispatch, ForceRoundTrip) {
  const Isa before = active();
  force(Isa::kScalar);
  EXPECT_EQ(active(), Isa::kScalar);
  EXPECT_EQ(active_table().isa, Isa::kScalar);
  if (supported(Isa::kAvx2)) {
    force(Isa::kAvx2);
    EXPECT_EQ(active(), Isa::kAvx2);
  }
  force(before);
  EXPECT_EQ(active(), before);
}

TEST(KernelDispatch, UnsupportedLevelDegrades) {
  if (supported(Isa::kAvx2)) {
    GTEST_SKIP() << "avx2 supported here; degradation path not reachable";
  }
  EXPECT_EQ(table(Isa::kAvx2).isa, Isa::kScalar);
  EXPECT_THROW(force(Isa::kAvx2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-level conformance: each supported table vs a naive reference.

class KernelLevel : public ::testing::TestWithParam<Isa> {
 protected:
  const KernelTable& kt() const { return table(GetParam()); }
};

std::string level_name(const ::testing::TestParamInfo<Isa>& info) {
  return to_string(info.param);
}

TEST_P(KernelLevel, GemmNnMatchesReference) {
  Rng rng(101);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {4, 8, 8}, {7, 9, 13}, {37, 41, 29}, {8, 64, 32}};
  for (const auto& s : shapes) {
    const std::size_t rows = s[0], K = s[1], N = s[2];
    const auto a = random_vec(rows * K, rng);
    const auto b = random_vec(K * N, rng);
    auto c = random_vec(rows * N, rng);
    auto want = c;
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t j = 0; j < N; ++j) {
          want[i * N + j] += a[i * K + k] * b[k * N + j];
        }
      }
    }
    kt().gemm_nn(rows, K, N, a.data(), K, b.data(), N, c.data(), N);
    expect_close(c, want, 1e-12, "gemm_nn");
  }
}

TEST_P(KernelLevel, GemmTnMatchesReference) {
  Rng rng(102);
  // A is K x Acols; the kernel computes a `rows`-column block of A^T * B
  // starting at column `i0` (the pointer is pre-offset to the block).
  const std::size_t K = 23, Acols = 17, N = 11;
  const auto a = random_vec(K * Acols, rng);
  const auto b = random_vec(K * N, rng);
  for (std::size_t i0 : {std::size_t{0}, std::size_t{5}}) {
    const std::size_t rows = Acols - i0;
    auto c = random_vec(rows * N, rng);
    auto want = c;
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t j = 0; j < N; ++j) {
          want[i * N + j] += a[k * Acols + i0 + i] * b[k * N + j];
        }
      }
    }
    kt().gemm_tn(rows, K, N, a.data() + i0, Acols, b.data(), N, c.data(), N);
    expect_close(c, want, 1e-12, "gemm_tn");
  }
}

TEST_P(KernelLevel, GemmNtMatchesReference) {
  Rng rng(103);
  const std::size_t rows = 13, K = 19, M = 9;
  const auto a = random_vec(rows * K, rng);
  const auto b = random_vec(M * K, rng);
  auto c = random_vec(rows * M, rng);
  auto want = c;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < M; ++j) {
      for (std::size_t k = 0; k < K; ++k) {
        want[i * M + j] += a[i * K + k] * b[j * K + k];
      }
    }
  }
  kt().gemm_nt(rows, K, M, a.data(), K, b.data(), K, c.data(), M);
  expect_close(c, want, 1e-12, "gemm_nt");
}

// Chunk invariance is what makes matmul() bitwise-independent of the exec
// pool's row partitioning: a row block computed alone must produce exactly
// the bits it produces inside a larger call.  Every split offset is tried,
// so splits land inside and across 4-row tiles; K spans several of the
// kernels' k chunks and N leaves vector tails.
TEST_P(KernelLevel, GemmsAreRowChunkInvariant) {
  Rng rng(104);
  const std::size_t rows = 23, K = 300, N = 19;
  const auto a = random_vec(rows * K, rng);   // row-major rows x K
  const auto at = random_vec(K * rows, rng);  // row-major K x rows
  const auto b = random_vec(K * N, rng);      // row-major K x N
  const auto bt = random_vec(N * K, rng);     // row-major N x K
  const auto c0 = random_vec(rows * N, rng);

  auto whole_nn = c0;
  kt().gemm_nn(rows, K, N, a.data(), K, b.data(), N, whole_nn.data(), N);
  auto whole_tn = c0;
  kt().gemm_tn(rows, K, N, at.data(), rows, b.data(), N, whole_tn.data(), N);
  auto whole_nt = c0;
  kt().gemm_nt(rows, K, N, a.data(), K, bt.data(), K, whole_nt.data(), N);

  for (std::size_t split = 1; split < rows; ++split) {
    SCOPED_TRACE("split=" + std::to_string(split));
    auto parts = c0;
    kt().gemm_nn(split, K, N, a.data(), K, b.data(), N, parts.data(), N);
    kt().gemm_nn(rows - split, K, N, a.data() + split * K, K, b.data(), N,
                 parts.data() + split * N, N);
    expect_bitwise_eq(parts, whole_nn, "gemm_nn split");

    // The T-N variant splits column blocks of A.
    parts = c0;
    kt().gemm_tn(split, K, N, at.data(), rows, b.data(), N, parts.data(), N);
    kt().gemm_tn(rows - split, K, N, at.data() + split, rows, b.data(), N,
                 parts.data() + split * N, N);
    expect_bitwise_eq(parts, whole_tn, "gemm_tn split");

    parts = c0;
    kt().gemm_nt(split, K, N, a.data(), K, bt.data(), K, parts.data(), N);
    kt().gemm_nt(rows - split, K, N, a.data() + split * K, K, bt.data(), K,
                 parts.data() + split * N, N);
    expect_bitwise_eq(parts, whole_nt, "gemm_nt split");
  }
}

// Every element accumulates in place, k ascending, so a k range split into
// consecutive calls continues exactly the sum one call makes.  The blocked
// SPD inverse and the kernels' own k chunking rely on this; K spans several
// chunks and N/rows leave vector tails.
TEST_P(KernelLevel, GemmsAreKSplitInvariant) {
  Rng rng(107);
  const std::size_t rows = 7, K = 300, N = 19;
  const auto a = random_vec(rows * K, rng);   // row-major rows x K
  const auto at = random_vec(K * rows, rng);  // row-major K x rows
  const auto b = random_vec(K * N, rng);
  const auto c0 = random_vec(rows * N, rng);

  auto want = c0;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t j = 0; j < N; ++j) {
        want[i * N + j] += a[i * K + k] * b[k * N + j];
      }
    }
  }
  auto whole_nn = c0;
  kt().gemm_nn(rows, K, N, a.data(), K, b.data(), N, whole_nn.data(), N);
  expect_close(whole_nn, want, 1e-12, "gemm_nn long K");
  auto whole_tn = c0;
  kt().gemm_tn(rows, K, N, at.data(), rows, b.data(), N, whole_tn.data(), N);

  for (std::size_t cut : {std::size_t{37}, std::size_t{128}, std::size_t{150}}) {
    auto parts = c0;
    kt().gemm_nn(rows, cut, N, a.data(), K, b.data(), N, parts.data(), N);
    kt().gemm_nn(rows, K - cut, N, a.data() + cut, K, b.data() + cut * N, N,
                 parts.data(), N);
    expect_bitwise_eq(parts, whole_nn, "gemm_nn k split");
    parts = c0;
    kt().gemm_tn(rows, cut, N, at.data(), rows, b.data(), N, parts.data(), N);
    kt().gemm_tn(rows, K - cut, N, at.data() + cut * rows, rows,
                 b.data() + cut * N, N, parts.data(), N);
    expect_bitwise_eq(parts, whole_tn, "gemm_tn k split");
  }
}

TEST_P(KernelLevel, DotMatchesReferenceAndRepeatsBitwise) {
  Rng rng(105);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{31}, std::size_t{257}}) {
    const auto x = random_vec(n, rng);
    const auto y = random_vec(n, rng);
    double want = 0.0;
    for (std::size_t k = 0; k < n; ++k) want += x[k] * y[k];
    const double got = kt().dot(x.data(), y.data(), n);
    EXPECT_NEAR(got, want, 1e-12 * (1.0 + std::abs(want))) << "dot n=" << n;
    const double again = kt().dot(x.data(), y.data(), n);
    EXPECT_EQ(std::memcmp(&got, &again, sizeof(double)), 0)
        << "dot not deterministic, n=" << n;
  }
}

// add/max/scale feed the collectives' reduce loops; the header promises
// their bits are identical across ISA levels, so the reduction result does
// not depend on which level a rank runs at.
TEST_P(KernelLevel, ElementwiseBitwiseMatchesScalar) {
  Rng rng(106);
  const std::size_t n = 259;  // vector body + tail
  const auto src = random_vec(n, rng);
  const auto dst0 = random_vec(n, rng);
  const KernelTable& ref = table(Isa::kScalar);

  auto got = dst0, want = dst0;
  kt().add(got.data(), src.data(), n);
  ref.add(want.data(), src.data(), n);
  expect_bitwise_eq(got, want, "add");

  got = dst0, want = dst0;
  kt().max(got.data(), src.data(), n);
  ref.max(want.data(), src.data(), n);
  expect_bitwise_eq(got, want, "max");

  got = dst0, want = dst0;
  kt().scale(got.data(), n, 1.0 / 3.0);
  ref.scale(want.data(), n, 1.0 / 3.0);
  expect_bitwise_eq(got, want, "scale");
}

// std::max(dst, src) keeps dst when either operand is NaN; the vector max
// must agree or the fault-tolerant max-reduce changes behavior per ISA.
TEST_P(KernelLevel, MaxMatchesStdMaxNanSemantics) {
  std::vector<double> dst{1.0, kNan, -2.0, kNan, 5.0, 0.0, 1.0, 2.0, 3.0};
  std::vector<double> src{kNan, 3.0, -1.0, kNan, 4.0, kNan, 7.0, 1.0, kNan};
  auto want = dst;
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i] = std::max(want[i], src[i]);
  }
  kt().max(dst.data(), src.data(), dst.size());
  ASSERT_EQ(dst.size(), want.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(dst[i])) << "at " << i;
    } else {
      EXPECT_EQ(dst[i], want[i]) << "at " << i;
    }
  }
}

TEST_P(KernelLevel, EmaMatchesReferenceAndRepeatsBitwise) {
  Rng rng(107);
  const std::size_t n = 133;
  const auto fresh = random_vec(n, rng);
  const auto state0 = random_vec(n, rng);
  const double decay = 0.95;

  auto want = state0;
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = decay * want[i] + (1.0 - decay) * fresh[i];
  }
  auto got = state0;
  kt().ema(got.data(), fresh.data(), n, decay);
  // FMA contraction may round differently from the scalar reference — the
  // contract is closeness across levels, bitwise stability within one.
  expect_close(got, want, 1e-14, "ema");

  auto again = state0;
  kt().ema(again.data(), fresh.data(), n, decay);
  expect_bitwise_eq(again, got, "ema repeat");
}

TEST_P(KernelLevel, PackUnpackRoundTripBitwise) {
  Rng rng(108);
  for (std::size_t d : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{33}}) {
    const std::size_t packed_n = d * (d + 1) / 2;
    const auto packed = random_vec(packed_n, rng);
    std::vector<double> dense(d * d, kNan);
    kt().unpack_upper(packed.data(), d, dense.data(), d);
    // Dense result is exactly symmetric.
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t c = 0; c < d; ++c) {
        EXPECT_EQ(dense[r * d + c], dense[c * d + r]) << d;
      }
    }
    std::vector<double> back(packed_n, kNan);
    kt().pack_upper(dense.data(), d, d, back.data());
    expect_bitwise_eq(back, packed, "pack(unpack) round trip");
  }
}

// ema_unpack is the zero-copy fusion of unpack_upper + dense ema; on a
// bitwise-symmetric state it must equal the two-step version bit for bit
// (same level on both sides).
TEST_P(KernelLevel, EmaUnpackMatchesUnpackThenEma) {
  Rng rng(109);
  for (std::size_t d : {std::size_t{1}, std::size_t{5}, std::size_t{19},
                        std::size_t{34}}) {
    const std::size_t packed_n = d * (d + 1) / 2;
    const auto seed_packed = random_vec(packed_n, rng);
    const auto fresh_packed = random_vec(packed_n, rng);
    const double decay = 0.9;

    // Symmetric starting state, built by the same level's unpack.
    std::vector<double> state(d * d);
    kt().unpack_upper(seed_packed.data(), d, state.data(), d);

    // Reference: unpack to a dense intermediate, then dense EMA.
    std::vector<double> want = state;
    std::vector<double> dense(d * d);
    kt().unpack_upper(fresh_packed.data(), d, dense.data(), d);
    kt().ema(want.data(), dense.data(), d * d, decay);

    auto got = state;
    kt().ema_unpack(fresh_packed.data(), d, got.data(), d, decay, false);
    expect_bitwise_eq(got, want, "ema_unpack fold");

    // init=true is exactly unpack_upper.
    std::vector<double> init_got(d * d, kNan);
    kt().ema_unpack(fresh_packed.data(), d, init_got.data(), d, decay, true);
    expect_bitwise_eq(init_got, dense, "ema_unpack init");
  }
}

TEST_P(KernelLevel, SymmetrizeRowsMatchesScalarAndComposes) {
  Rng rng(110);
  for (std::size_t n : {std::size_t{1}, std::size_t{6}, std::size_t{35}}) {
    const auto a0 = random_vec(n * n, rng);
    auto got = a0, want = a0;
    kt().symmetrize_rows(got.data(), n, n, 0, n);
    table(Isa::kScalar).symmetrize_rows(want.data(), n, n, 0, n);
    expect_bitwise_eq(got, want, "symmetrize vs scalar");
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(got[r * n + c], got[c * n + r]);
      }
    }
    // Chunked row ranges compose to the full-range result (the matrix
    // symmetrize parallelizes over row chunks).
    if (n > 2) {
      auto parts = a0;
      kt().symmetrize_rows(parts.data(), n, n, 0, n / 2);
      kt().symmetrize_rows(parts.data(), n, n, n / 2, n);
      expect_bitwise_eq(parts, got, "symmetrize chunked");
    }
  }
}

TEST_P(KernelLevel, TransposeExact) {
  Rng rng(111);
  const std::size_t shapes[][2] = {
      {1, 1}, {1, 9}, {9, 1}, {4, 4}, {7, 13}, {32, 32}, {37, 65}, {64, 33}};
  for (const auto& s : shapes) {
    const std::size_t rows = s[0], cols = s[1];
    const auto in = random_vec(rows * cols, rng);
    std::vector<double> out(cols * rows, kNan);
    kt().transpose(in.data(), rows, cols, cols, out.data(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(out[c * rows + r], in[r * cols + c])
            << rows << "x" << cols << " at " << r << "," << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, KernelLevel,
                         ::testing::ValuesIn(supported_levels()), level_name);

// ---------------------------------------------------------------------------
// Cross-level closeness: the AVX2 GEMMs may round differently (FMA), but
// they must stay within a few ulps of the scalar reference.

TEST(KernelCrossLevel, GemmLevelsAgreeWithinTolerance) {
  if (!supported(Isa::kAvx2)) GTEST_SKIP() << "single level build/CPU";
  Rng rng(112);
  const std::size_t rows = 31, K = 47, N = 22;
  const auto a = random_vec(rows * K, rng);
  const auto b = random_vec(K * N, rng);
  const auto c0 = random_vec(rows * N, rng);

  auto scalar_c = c0, avx2_c = c0;
  table(Isa::kScalar).gemm_nn(rows, K, N, a.data(), K, b.data(), N,
                              scalar_c.data(), N);
  table(Isa::kAvx2).gemm_nn(rows, K, N, a.data(), K, b.data(), N,
                            avx2_c.data(), N);
  expect_close(avx2_c, scalar_c, 1e-13, "gemm_nn cross-level");
}

}  // namespace
}  // namespace spdkfac::tensor::kernels
