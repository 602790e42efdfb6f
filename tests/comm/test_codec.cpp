// Conformance suite for the collective payload codecs (comm/codec.hpp).
//
// Three layers of guarantees, matching the codec header's contract:
//
//   1. kernel primitives (absmax / int8 quantize / fp16 pack) are bitwise
//      identical across ISA levels — the foundation of cross-rank bitwise
//      results when ranks dispatch to different levels;
//   2. encode/decode round-trips stay within the documented analytic error
//      bounds, and the kTopK selection is deterministic (canonical wire
//      bytes, smallest-index tie-break);
//   3. the compressed collectives are bitwise identical across ranks on
//      every backend and world size, equal to the replayed-codec reference
//      (decode(encode(x_r)) reduced in rank order), and within the analytic
//      bound of the exact reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/codec.hpp"
#include "comm/collectives.hpp"
#include "tensor/kernels/kernels.hpp"
#include "testsupport/backends.hpp"
#include "testsupport/codec_names.hpp"

namespace spdkfac::comm {
namespace {

namespace kernels = spdkfac::tensor::kernels;

std::vector<double> random_values(std::size_t n, std::uint64_t seed,
                                  double lo = -10.0, double hi = 10.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

// The error-feedback residual of encode(kTopK, u, wire), unfused: u with
// the shipped positions zeroed.  residual may alias u.
void topk_residual(std::span<const double> u, std::span<const double> wire,
                   std::span<double> residual) {
  if (residual.data() != u.data()) {
    std::copy(u.begin(), u.end(), residual.begin());
  }
  for (const double packed : wire) {
    residual[unpack_topk_slot(packed).index] = 0.0;
  }
}

std::vector<double> round_trip(Codec codec, const std::vector<double>& src,
                               double ratio = 0.0) {
  std::vector<double> wire(wire_elements(codec, src.size(), ratio));
  std::vector<double> out(src.size());
  encode(codec, src, wire, ratio);
  decode(codec, wire, out, ratio);
  return out;
}

// -------------------------------------------------------------------------
// Kernel primitives: bitwise identical across ISA levels.
// -------------------------------------------------------------------------

class CodecKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::supported(kernels::Isa::kAvx2)) {
      GTEST_SKIP() << "single ISA level on this machine";
    }
  }
};

TEST_F(CodecKernels, PrimitivesBitwiseAcrossIsaLevels) {
  const kernels::KernelTable& scalar = kernels::table(kernels::Isa::kScalar);
  const kernels::KernelTable& avx2 = kernels::table(kernels::Isa::kAvx2);
  // Sizes straddling every vector width and remainder case.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{7}, std::size_t{8},
                        std::size_t{255}, std::size_t{256}, std::size_t{257},
                        std::size_t{1023}}) {
    std::vector<double> src = random_values(n, 0xC0DEC + n, -1e4, 1e4);
    // Seed in values that stress rounding: halfway cases, tiny, huge.
    if (n >= 4) {
      src[0] = 0.0;
      src[1] = 2049.0;      // fp16 RNE halfway case (between 2048 and 2050)
      src[2] = 6.1e-5;      // just above the half subnormal threshold
      src[3] = -65519.0;    // rounds to -inf in half? (max half is 65504)
    }

    EXPECT_EQ(scalar.absmax(src.data(), n), avx2.absmax(src.data(), n));

    const double amax = scalar.absmax(src.data(), n);
    const double inv = amax > 0.0 ? 127.0 / amax : 0.0;
    std::vector<signed char> q_s(n), q_v(n);
    scalar.int8_quantize(src.data(), n, inv, q_s.data());
    avx2.int8_quantize(src.data(), n, inv, q_v.data());
    EXPECT_EQ(q_s, q_v) << "int8 quantize diverges at n=" << n;

    std::vector<double> dq_s(n), dq_v(n);
    const double scale = amax / 127.0;
    scalar.int8_dequantize(q_s.data(), n, scale, dq_s.data());
    avx2.int8_dequantize(q_s.data(), n, scale, dq_v.data());
    EXPECT_EQ(dq_s, dq_v) << "int8 dequantize diverges at n=" << n;

    std::vector<std::uint16_t> h_s(n), h_v(n);
    scalar.fp16_pack(src.data(), n, h_s.data());
    avx2.fp16_pack(src.data(), n, h_v.data());
    EXPECT_EQ(h_s, h_v) << "fp16 pack diverges at n=" << n;

    std::vector<double> u_s(n), u_v(n);
    scalar.fp16_unpack(h_s.data(), n, u_s.data());
    avx2.fp16_unpack(h_s.data(), n, u_v.data());
    EXPECT_EQ(u_s, u_v) << "fp16 unpack diverges at n=" << n;
  }
}

TEST_F(CodecKernels, EncodeDecodeBitwiseAcrossIsaLevels) {
  const kernels::Isa before = kernels::active();
  const std::vector<double> src = random_values(1333, 0xB17);
  for (Codec codec : {Codec::kFp16, Codec::kInt8, Codec::kTopK}) {
    const double ratio = 0.05;
    std::vector<double> wire_scalar(wire_elements(codec, src.size(), ratio));
    std::vector<double> wire_avx2(wire_scalar.size());
    kernels::force(kernels::Isa::kScalar);
    encode(codec, src, wire_scalar, ratio);
    kernels::force(kernels::Isa::kAvx2);
    encode(codec, src, wire_avx2, ratio);
    EXPECT_EQ(wire_scalar, wire_avx2)
        << to_string(codec) << " wire bytes differ across ISA levels";

    std::vector<double> out_scalar(src.size()), out_avx2(src.size());
    kernels::force(kernels::Isa::kScalar);
    decode(codec, wire_scalar, out_scalar, ratio);
    kernels::force(kernels::Isa::kAvx2);
    decode(codec, wire_scalar, out_avx2, ratio);
    EXPECT_EQ(out_scalar, out_avx2)
        << to_string(codec) << " decode differs across ISA levels";
  }
  kernels::force(before);
}

// -------------------------------------------------------------------------
// Encode / decode round-trips and format invariants.
// -------------------------------------------------------------------------

TEST(CodecFormat, WireElementCounts) {
  EXPECT_EQ(wire_elements(Codec::kNone, 1000), 1000u);
  EXPECT_EQ(wire_elements(Codec::kFp16, 1000), 250u);
  EXPECT_EQ(wire_elements(Codec::kFp16, 1001), 251u);  // partial lane
  // int8: ceil(1000/256) = 4 scales + ceil(1000/8) = 125 byte-doubles.
  EXPECT_EQ(wire_elements(Codec::kInt8, 1000), 129u);
  EXPECT_EQ(wire_elements(Codec::kTopK, 1000, 0.01), 10u);
  EXPECT_EQ(wire_elements(Codec::kTopK, 1000, 0.0001), 1u);  // k >= 1
  EXPECT_EQ(wire_elements(Codec::kFp16, 0), 0u);
  EXPECT_EQ(wire_elements(Codec::kTopK, 0, 0.01), 0u);
}

TEST(CodecFormat, ResolveCodecHonoursCrossover) {
  const std::size_t big = kAutoCodecCrossoverElements;
  EXPECT_EQ(resolve_codec(Codec::kAuto, big - 1, false), Codec::kNone);
  EXPECT_EQ(resolve_codec(Codec::kAuto, big, false), Codec::kInt8);
  EXPECT_EQ(resolve_codec(Codec::kAuto, big, true), Codec::kFp16);
  // Concrete codecs pass through regardless of size.
  EXPECT_EQ(resolve_codec(Codec::kInt8, 1, false), Codec::kInt8);
  EXPECT_EQ(resolve_codec(Codec::kNone, big, true), Codec::kNone);
}

TEST(CodecFormat, FromStringRoundTrips) {
  using testsupport::codec_from_string;
  for (Codec codec : {Codec::kNone, Codec::kFp16, Codec::kInt8, Codec::kTopK,
                      Codec::kAuto}) {
    EXPECT_EQ(codec_from_string(to_string(codec)), codec);
  }
  EXPECT_THROW(codec_from_string("zstd"), std::invalid_argument);
}

TEST(CodecRoundTrip, Fp16WithinHalfUlp) {
  const std::vector<double> src = random_values(1001, 0xF16);
  const std::vector<double> out = round_trip(Codec::kFp16, src);
  for (std::size_t i = 0; i < src.size(); ++i) {
    // binary16 has 10 mantissa bits: RNE error <= |x| * 2^-11 * (1 + eps);
    // 2^-10 absorbs the double->float pre-rounding comfortably.
    EXPECT_NEAR(out[i], src[i], std::abs(src[i]) * 0x1p-10 + 1e-12)
        << "at i=" << i;
  }
}

TEST(CodecRoundTrip, Int8WithinHalfStepPerChunk) {
  const std::vector<double> src = random_values(1000, 0x138);
  const std::vector<double> out = round_trip(Codec::kInt8, src);
  for (std::size_t c = 0; c * kInt8ChunkElements < src.size(); ++c) {
    const std::size_t lo = c * kInt8ChunkElements;
    const std::size_t hi = std::min(src.size(), lo + kInt8ChunkElements);
    double amax = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      amax = std::max(amax, std::abs(src[i]));
    }
    for (std::size_t i = lo; i < hi; ++i) {
      EXPECT_NEAR(out[i], src[i], amax / 254.0 + 1e-12)
          << "chunk " << c << " element " << i;
    }
  }
}

TEST(CodecRoundTrip, Int8AllZeroChunkStaysZero) {
  const std::vector<double> src(600, 0.0);
  for (double v : round_trip(Codec::kInt8, src)) EXPECT_EQ(v, 0.0);
}

TEST(CodecRoundTrip, TopKSelectsLargestAndResidualCoversRest) {
  const double ratio = 0.01;  // k = 10 of 1000
  const std::vector<double> src = random_values(1000, 0x709C);
  std::vector<double> wire(wire_elements(Codec::kTopK, src.size(), ratio));
  encode(Codec::kTopK, src, wire, ratio);
  ASSERT_EQ(wire.size(), 10u);

  // Slots arrive in ascending index order, values are the f32 rounding of
  // the source, and every unselected |value| is <= every selected one.
  double selection_floor = 1e300;
  std::vector<bool> selected(src.size(), false);
  std::uint32_t prev_index = 0;
  for (std::size_t s = 0; s < wire.size(); ++s) {
    const TopKSlot slot = unpack_topk_slot(wire[s]);
    if (s > 0) {
      EXPECT_GT(slot.index, prev_index) << "non-canonical order";
    }
    prev_index = slot.index;
    ASSERT_LT(slot.index, src.size());
    EXPECT_EQ(slot.value, static_cast<float>(src[slot.index]));
    selected[slot.index] = true;
    selection_floor = std::min(selection_floor, std::abs(src[slot.index]));
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (!selected[i]) {
      EXPECT_LE(std::abs(src[i]), selection_floor);
    }
  }

  // decode + residual reconstructs: decoded slots are f32 roundings,
  // residual carries the unselected values exactly (and 0 where shipped).
  std::vector<double> decoded(src.size());
  decode(Codec::kTopK, wire, decoded, ratio);
  std::vector<double> residual(src.size());
  topk_residual(src, wire, residual);
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (selected[i]) {
      EXPECT_EQ(decoded[i], static_cast<double>(static_cast<float>(src[i])));
      EXPECT_EQ(residual[i], 0.0);
    } else {
      EXPECT_EQ(decoded[i], 0.0);
      EXPECT_EQ(residual[i], src[i]);
    }
  }

  // In-place residual (the error-feedback path aliases u) agrees.
  std::vector<double> aliased = src;
  topk_residual(aliased, wire, aliased);
  EXPECT_EQ(aliased, residual);
}

TEST(CodecRoundTrip, TopKTieBreaksOnSmallestIndex) {
  // Four equal-magnitude candidates; k = 2 must take indices 1 and 3 (the
  // first two in index order), never a permutation-dependent pair.
  std::vector<double> src = {0.0, 5.0, 0.0, -5.0, 5.0, 0.0, -5.0, 0.0};
  std::vector<double> wire(2);
  encode(Codec::kTopK, src, wire, 0.25);
  EXPECT_EQ(unpack_topk_slot(wire[0]).index, 1u);
  EXPECT_EQ(unpack_topk_slot(wire[1]).index, 3u);
}

// The selection is a total order (|value| descending, index ascending), so
// any correct selection algorithm ships the same wire as a full
// partial_sort.  Heavy ties, duplicates and signed zeros stress the
// tie-break; the values come from a handful of magnitudes of either sign,
// subnormals, the largest finite value and the infinities among them.
// The last case is the socket workload's gradient group: 199,434 normal
// values on a coarse grid, so the threshold magnitude repeats hundreds of
// times.
TEST(CodecRoundTrip, TopKSelectionMatchesPartialSortReference) {
  const auto expect_matches_reference = [](const std::vector<double>& src,
                                           double ratio) {
    const std::size_t n = src.size();
    std::vector<double> wire(wire_elements(Codec::kTopK, n, ratio));
    encode(Codec::kTopK, src, wire, ratio);

    const std::size_t k = wire.size();
    std::vector<std::uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    const auto kth = idx.begin() + static_cast<std::ptrdiff_t>(k);
    std::partial_sort(idx.begin(), kth, idx.end(),
                      [&src](std::uint32_t a, std::uint32_t b) {
                        const double fa = std::abs(src[a]);
                        const double fb = std::abs(src[b]);
                        if (fa != fb) return fa > fb;
                        return a < b;
                      });
    std::sort(idx.begin(), kth);
    std::vector<double> want(k);
    for (std::size_t i = 0; i < k; ++i) {
      want[i] = pack_topk_slot(
          TopKSlot{idx[i], static_cast<float>(src[idx[i]])});
    }
    ASSERT_EQ(wire.size(), want.size());
    EXPECT_EQ(std::memcmp(wire.data(), want.data(), k * sizeof(double)), 0)
        << "n=" << n << " ratio=" << ratio;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  const double pool[] = {0.0,   -0.0,  1.0,       -1.0,      2.5,
                         -2.5,  1e-3,  -1e-3,     7.0,       kSub,
                         -kSub, 3e-310, -3e-310,  kInf,      -kInf,
                         kMax,  -kMax};
  std::mt19937_64 rng(0x7095);
  for (const std::size_t pool_size : {std::size_t{9}, std::size(pool)}) {
    std::uniform_int_distribution<std::size_t> pick(0, pool_size - 1);
    for (std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{100},
                          std::size_t{1031}}) {
      std::vector<double> src(n);
      for (double& x : src) x = pool[pick(rng)];
      for (double ratio : {0.001, 0.05, 0.3, 0.9, 1.0}) {
        expect_matches_reference(src, ratio);
      }
    }
  }

  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<double> grid(199434);
  for (double& x : grid) x = std::round(normal(rng) * 64.0) / 64.0;
  expect_matches_reference(grid, 0.1);
}

// The key order reaches past the finite values: a NaN ranks above +-inf,
// +-inf tie with each other (lowest index first), then the largest finite
// magnitude — the same choice on every rank and every encode.
TEST(CodecRoundTrip, TopKOrdersNonFiniteByMagnitudeBits) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  for (const double nan : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()}) {
    const std::vector<double> src = {1.0, -kMax, kInf, 3.0,
                                     nan, -kInf, kMax, -2.0};
    const std::vector<std::vector<std::uint32_t>> want = {
        {4}, {2, 4}, {2, 4, 5}, {1, 2, 4, 5}, {1, 2, 4, 5, 6},
        {1, 2, 3, 4, 5, 6}};
    for (std::size_t k = 1; k <= want.size(); ++k) {
      const double ratio = static_cast<double>(k) / 8.0;
      std::vector<double> wire(wire_elements(Codec::kTopK, src.size(), ratio));
      std::vector<double> again(wire.size());
      ASSERT_EQ(wire.size(), k);
      encode(Codec::kTopK, src, wire, ratio);
      encode(Codec::kTopK, src, again, ratio);
      EXPECT_EQ(std::memcmp(wire.data(), again.data(), k * sizeof(double)),
                0)
          << "k=" << k;
      for (std::size_t s = 0; s < k; ++s) {
        const TopKSlot slot = unpack_topk_slot(wire[s]);
        EXPECT_EQ(slot.index, want[k - 1][s]) << "k=" << k << " slot " << s;
        const float shipped = static_cast<float>(src[slot.index]);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(slot.value),
                  std::bit_cast<std::uint32_t>(shipped))
            << "k=" << k << " slot " << s;
      }
    }
  }
}

// Top-k slots come off the wire, so decode and the encoded all-reduce's
// accumulate check each index against the destination size and the
// previous slot before writing, and name the bad index.
TEST(CodecRoundTrip, TopKDecodeRejectsOutOfRangeOrUnorderedSlots) {
  constexpr std::size_t kN = 10;
  constexpr double kRatio = 0.3;  // k = 3
  const auto wire_of = [](std::vector<std::uint32_t> indices) {
    std::vector<double> wire;
    for (const std::uint32_t i : indices) {
      wire.push_back(pack_topk_slot(TopKSlot{i, 1.0f}));
    }
    return wire;
  };
  const auto expect_rejects = [](const auto& run, const std::string& index) {
    try {
      run();
      ADD_FAILURE() << "slot index " << index << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("index " + index),
                std::string::npos)
          << e.what();
    }
  };

  std::vector<double> dst(kN);
  const std::vector<double> good = wire_of({0, 4, 9});
  decode(Codec::kTopK, good, dst, kRatio);
  EXPECT_EQ(dst[9], 1.0);

  const std::vector<std::pair<std::vector<std::uint32_t>, std::string>>
      forged = {{{0, 4, 10}, "10"},
                {{0, 4, 0xffffffffu}, "4294967295"},
                {{1, 1, 2}, "1"},
                {{5, 3, 7}, "3"}};
  for (const auto& [indices, bad] : forged) {
    const std::vector<double> wire = wire_of(indices);
    expect_rejects([&] { decode(Codec::kTopK, wire, dst, kRatio); }, bad);
    // Rank 1 ships the forged block; every rank rejects it after the
    // gather.
    for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage, ReduceOp::kMax}) {
      expect_rejects(
          [&] {
            Cluster::launch(Topology::flat(2), [&](Communicator& comm) {
              std::vector<double> data(kN);
              std::vector<double> scratch(
                  all_reduce_scratch_elements(Codec::kTopK, kN, 2, kRatio));
              const std::vector<double>& own =
                  comm.rank() == 1 ? wire : good;
              std::copy(own.begin(), own.end(),
                        scratch.begin() + comm.rank() * 3);
              all_reduce_encoded(comm, data, Codec::kTopK, op, kRatio,
                                 scratch);
            });
          },
          bad);
    }
  }
}

// topk_feedback_encode is the unfused error-feedback sequence in one step:
// inject the residuals, encode, zero the shipped positions, bank them.  It
// must give the same wire and residual bank bit for bit, and the encoded
// all-reduce's sparse accumulate the same sum as a dense decode-and-add,
// signed zeros included.  Members are uneven (a 129x128 weight, a 10x129
// one, 7 biases) and banked in separate buffers, as the arena carves them.
TEST(CodecRoundTrip, TopKFeedbackEncodeMatchesUnfusedSequence) {
  const std::size_t sizes[] = {129 * 128, 10 * 129, 7};
  const std::size_t n = sizes[0] + sizes[1] + sizes[2];
  for (const int world : {2, 3}) {
    for (const bool signed_zeros : {false, true}) {
      for (const double ratio : {0.1, 0.01}) {
        const std::size_t k = wire_elements(Codec::kTopK, n, ratio);
        std::vector<std::vector<double>> grad(world), bank(world);
        std::mt19937_64 rng(0xFEED + 10 * static_cast<std::uint64_t>(world) +
                            (signed_zeros ? 1 : 0));
        std::normal_distribution<double> normal(0.0, 1e-3);
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        for (int r = 0; r < world; ++r) {
          grad[r].resize(n);
          bank[r].resize(n);
          // Signed zeros: u = -0.0 + -0.0 except on a sparse random set,
          // fewer than k elements, so each rank's selection runs into the
          // zeros and ships -0.0f slots over its lowest indices — rank 0
          // over a middling range, rank 1 a short one, rank 2 a long one.
          const double nonzero_share = r == 0 ? 0.05 : r == 1 ? 0.08 : 0.02;
          for (std::size_t i = 0; i < n; ++i) {
            if (!signed_zeros) {
              grad[r][i] = normal(rng);
              bank[r][i] = 0.3 * normal(rng);
            } else {
              grad[r][i] = coin(rng) < nonzero_share ? normal(rng) : -0.0;
              bank[r][i] = -0.0;
            }
          }
        }

        // The unfused reference: inject -> encode -> topk_residual -> copy,
        // then decode every wire densely and add in rank order.
        std::vector<std::vector<double>> want_wire(world), want_bank(world);
        std::vector<double> want_sum(n);
        for (int r = 0; r < world; ++r) {
          std::vector<double> u = grad[r];
          for (std::size_t i = 0; i < n; ++i) u[i] += bank[r][i];
          want_wire[r].resize(k);
          encode(Codec::kTopK, u, want_wire[r], ratio);
          topk_residual(u, want_wire[r], u);
          want_bank[r] = u;
          std::vector<double> decoded(n);
          decode(Codec::kTopK, want_wire[r], decoded, ratio);
          if (r == 0) {
            want_sum = decoded;
          } else {
            detail::accumulate(want_sum, decoded, ReduceOp::kAverage);
          }
        }
        detail::finalize(want_sum, ReduceOp::kAverage, world);

        // Fused, inside a real encoded all-reduce; each rank reports its
        // wire block, its banks and the reduced sum.
        const auto results = Cluster::launch_collect(
            TransportKind::kInProcess, Topology::flat(world),
            [&](Communicator& comm) {
              const int rank = comm.rank();
              std::vector<double> payload = grad[rank];
              std::vector<std::vector<double>> banks;
              std::vector<std::span<double>> spans;
              std::size_t offset = 0;
              for (const std::size_t m : sizes) {
                banks.emplace_back(bank[rank].begin() + offset,
                                   bank[rank].begin() + offset + m);
                offset += m;
              }
              for (std::vector<double>& b : banks) spans.emplace_back(b);
              std::vector<double> scratch(
                  all_reduce_scratch_elements(Codec::kTopK, n, world, ratio));
              const std::span<double> own =
                  std::span<double>(scratch).subspan(rank * k, k);
              topk_feedback_encode(payload, spans, own, ratio);
              std::vector<double> out(own.begin(), own.end());
              for (const std::vector<double>& b : banks) {
                out.insert(out.end(), b.begin(), b.end());
              }
              all_reduce_encoded(comm, payload, Codec::kTopK,
                                 ReduceOp::kAverage, ratio, scratch);
              out.insert(out.end(), payload.begin(), payload.end());
              return out;
            });

        const auto same_bits = [](const double* a, const double* b,
                                  std::size_t len) {
          return std::memcmp(a, b, len * sizeof(double)) == 0;
        };
        for (int r = 0; r < world; ++r) {
          SCOPED_TRACE(::testing::Message()
                       << "P=" << world << " rank " << r << " ratio "
                       << ratio << (signed_zeros ? " signed zeros" : ""));
          ASSERT_EQ(results[r].size(), k + 2 * n);
          EXPECT_TRUE(same_bits(results[r].data(), want_wire[r].data(), k))
              << "wire";
          EXPECT_TRUE(same_bits(results[r].data() + k, want_bank[r].data(), n))
              << "residual bank";
          EXPECT_TRUE(same_bits(results[r].data() + k + n, want_sum.data(), n))
              << "reduced sum";
        }

        // At ratio 0.1 the selection runs past rank 0's nonzeros, and the
        // case must reach both outcomes of a rank-0 -0.0f slot: -0.0 where
        // every rank shipped -0.0 there, +0.0 where one did not.
        if (!signed_zeros || ratio != 0.1) continue;
        std::size_t kept_negative = 0;
        std::size_t turned_positive = 0;
        for (const double packed : want_wire[0]) {
          const TopKSlot slot = unpack_topk_slot(packed);
          if (slot.value != 0.0f || !std::signbit(slot.value)) continue;
          if (want_sum[slot.index] != 0.0) continue;
          ++(std::signbit(want_sum[slot.index]) ? kept_negative
                                                : turned_positive);
        }
        EXPECT_GT(kept_negative, 0u);
        EXPECT_GT(turned_positive, 0u);
      }
    }
  }
}

TEST(CodecRoundTrip, CanonicalWireBytesAreReproducible) {
  const std::vector<double> src = random_values(777, 0xCAFE);
  for (Codec codec : {Codec::kNone, Codec::kFp16, Codec::kInt8, Codec::kTopK}) {
    const double ratio = 0.03;
    std::vector<double> a(wire_elements(codec, src.size(), ratio));
    std::vector<double> b(a.size());
    encode(codec, src, a, ratio);
    encode(codec, src, b, ratio);
    EXPECT_EQ(a, b) << to_string(codec) << " wire bytes not reproducible";
  }
}

// -------------------------------------------------------------------------
// Compressed collectives: codec x backend x world size.
// -------------------------------------------------------------------------

struct CompressedCase {
  Codec codec;
  int world;
  TransportKind kind = TransportKind::kInProcess;
};

std::string compressed_case_name(
    const ::testing::TestParamInfo<CompressedCase>& info) {
  return std::string(to_string(info.param.codec)) + "_P" +
         std::to_string(info.param.world) + "_" +
         testsupport::backend_name(info.param.kind);
}

class CompressedAllReduce : public ::testing::TestWithParam<CompressedCase> {};

TEST_P(CompressedAllReduce, BitwiseAcrossRanksAndWithinAnalyticBounds) {
  const auto [codec, world, kind] = GetParam();
  SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(kind);
  const double ratio = 0.05;
  const Topology topo = Topology::flat(world);
  std::uint64_t seed = 0xAC0DEC + 977 * static_cast<std::uint64_t>(world) +
                       31 * static_cast<std::uint64_t>(codec);
  for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                          std::size_t{256}, std::size_t{257},
                          std::size_t{1000}}) {
      ++seed;
      std::vector<std::vector<double>> inputs(world);
      for (int r = 0; r < world; ++r) {
        inputs[r] = random_values(n, seed + static_cast<std::uint64_t>(r));
      }

      const auto results =
          Cluster::launch_collect(kind, topo, [&](Communicator& comm) {
            std::vector<double> data = inputs[comm.rank()];
            std::vector<double> scratch(
                all_reduce_scratch_elements(codec, n, world, ratio));
            compressed_all_reduce(comm, data, codec, op, ratio, scratch);
            return data;
          });

      for (int r = 1; r < world; ++r) {
        EXPECT_EQ(results[r], results[0])
            << to_string(codec) << " diverges on rank " << r << " n=" << n;
      }

      // The collective is *defined* as reducing the per-rank round-trips in
      // rank order — replay that serially and demand bitwise equality.
      std::vector<double> replay = round_trip(codec, inputs[0], ratio);
      for (int r = 1; r < world; ++r) {
        const std::vector<double> d = round_trip(codec, inputs[r], ratio);
        detail::accumulate(replay, d, op);
      }
      detail::finalize(replay, op, world);
      EXPECT_EQ(results[0], replay)
          << to_string(codec) << " != replayed-codec reference, n=" << n;

      // Analytic loss bound vs the exact reduction (kTopK excluded: its
      // loss is unbounded by design and accounted by error feedback).
      if (codec == Codec::kTopK) continue;
      std::vector<double> exact = inputs[0];
      for (int r = 1; r < world; ++r) {
        detail::accumulate(exact, inputs[r], op);
      }
      detail::finalize(exact, op, world);
      double per_rank_err = 0.0;  // max element error of one rank's codec
      switch (codec) {
        case Codec::kNone:
          per_rank_err = 0.0;
          break;
        case Codec::kFp16:
          per_rank_err = 10.0 * 0x1p-10;  // |x| <= 10, half ulp bound
          break;
        case Codec::kInt8:
          per_rank_err = 10.0 / 254.0;  // absmax <= 10, half-step bound
          break;
        default:
          break;
      }
      double tol = per_rank_err * world + 1e-12;
      if (op == ReduceOp::kAverage) tol = per_rank_err + 1e-12;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(results[0][i], exact[i], tol)
            << to_string(codec) << " exceeds analytic bound at i=" << i;
      }
    }
  }
}

std::vector<CompressedCase> compressed_cases() {
  std::vector<CompressedCase> cases;
  for (Codec codec : {Codec::kNone, Codec::kFp16, Codec::kInt8, Codec::kTopK}) {
    for (int world : {1, 2, 3, 4, 8}) cases.push_back({codec, world});
    for (int world : {2, 3}) {
      cases.push_back({codec, world, TransportKind::kSocket});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CodecByWorld, CompressedAllReduce,
                         ::testing::ValuesIn(compressed_cases()),
                         compressed_case_name);

class CompressedBroadcast : public ::testing::TestWithParam<CompressedCase> {};

TEST_P(CompressedBroadcast, EveryRankDecodesTheRootsWire) {
  const auto [codec, world, kind] = GetParam();
  SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(kind);
  const Topology topo = Topology::flat(world);
  std::uint64_t seed = 0xBCA57 + 13 * static_cast<std::uint64_t>(codec);
  for (int root = 0; root < world; ++root) {
    for (std::size_t n : {std::size_t{1}, std::size_t{257},
                          std::size_t{1000}}) {
      ++seed;
      const std::vector<double> payload = random_values(n, seed);
      const auto results =
          Cluster::launch_collect(kind, topo, [&](Communicator& comm) {
            // Non-roots start from garbage the broadcast must overwrite.
            std::vector<double> data(n, -1e99);
            if (comm.rank() == root) data = payload;
            std::vector<double> scratch(
                broadcast_scratch_elements(codec, n));
            compressed_broadcast(comm, data, codec, root, scratch);
            return data;
          });

      // The contract: every rank — root included — holds the decoded wire.
      const std::vector<double> expected = round_trip(codec, payload);
      for (int r = 0; r < world; ++r) {
        EXPECT_EQ(results[r], expected)
            << to_string(codec) << " root=" << root << " rank=" << r
            << " n=" << n;
      }
    }
  }
}

std::vector<CompressedCase> broadcast_cases() {
  std::vector<CompressedCase> cases;
  for (Codec codec : {Codec::kNone, Codec::kFp16, Codec::kInt8}) {
    for (int world : {1, 2, 3, 4, 8}) cases.push_back({codec, world});
    cases.push_back({codec, 3, TransportKind::kSocket});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CodecByWorld, CompressedBroadcast,
                         ::testing::ValuesIn(broadcast_cases()),
                         compressed_case_name);

}  // namespace
}  // namespace spdkfac::comm
