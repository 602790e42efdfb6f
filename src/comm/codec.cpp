#include "comm/codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/wire.hpp"
#include "tensor/kernels/kernels.hpp"

namespace spdkfac::comm {

namespace {

using tensor::kernels::active_table;

std::size_t div_up(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

std::size_t topk_count(std::size_t n, double ratio) {
  if (n == 0) return 0;
  const auto k = static_cast<std::size_t>(ratio * static_cast<double>(n));
  return std::min(n, std::max<std::size_t>(1, k));
}

// Modeled encode+decode seconds per element (both endpoints of a hop).
// Calibration constants in the spirit of perf::ComputeModel: codec kernels
// are elementwise/streaming, so on the modeled accelerator fabric they run
// at memory bandwidth — orders below the per-element wire cost on the
// bandwidth-bound configurations where compression pays, but nonzero, so a
// latency-bound message never prefers a codec on compute-cost grounds.
constexpr double kFp16CostPerElement = 2.0e-11;
constexpr double kInt8CostPerElement = 3.0e-11;
constexpr double kTopKCostPerElement = 5.0e-11;

}  // namespace

const char* to_string(Codec codec) noexcept {
  switch (codec) {
    case Codec::kNone:
      return "none";
    case Codec::kFp16:
      return "fp16";
    case Codec::kInt8:
      return "int8";
    case Codec::kTopK:
      return "topk";
    case Codec::kAuto:
      return "auto";
  }
  return "?";
}

Codec resolve_codec(Codec option, std::size_t elements,
                    bool gradient) noexcept {
  if (option != Codec::kAuto) return option;
  if (elements < kAutoCodecCrossoverElements) return Codec::kNone;
  return gradient ? Codec::kFp16 : Codec::kInt8;
}

std::size_t wire_elements(Codec codec, std::size_t n,
                          double topk_ratio) noexcept {
  switch (codec) {
    case Codec::kFp16:
      return div_up(n, 4);  // 4 halves per double
    case Codec::kInt8:
      // one scale double per chunk + 8 quantized bytes per double
      return div_up(n, kInt8ChunkElements) + div_up(n, 8);
    case Codec::kTopK:
      return topk_count(n, topk_ratio);
    case Codec::kNone:
    case Codec::kAuto:
      break;
  }
  return n;
}

double wire_ratio(Codec codec, double topk_ratio) noexcept {
  switch (codec) {
    case Codec::kFp16:
      return 0.25;
    case Codec::kInt8:
      return 1.0 / 8.0 + 1.0 / static_cast<double>(kInt8ChunkElements);
    case Codec::kTopK:
      return topk_ratio;
    case Codec::kNone:
    case Codec::kAuto:
      break;
  }
  return 1.0;
}

double codec_cost_per_element(Codec codec) noexcept {
  switch (codec) {
    case Codec::kFp16:
      return kFp16CostPerElement;
    case Codec::kInt8:
      return kInt8CostPerElement;
    case Codec::kTopK:
      return kTopKCostPerElement;
    case Codec::kNone:
    case Codec::kAuto:
      break;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

double pack_topk_slot(TopKSlot slot) noexcept {
  const std::uint64_t bits =
      (static_cast<std::uint64_t>(slot.index) << 32) |
      std::bit_cast<std::uint32_t>(slot.value);
  return std::bit_cast<double>(bits);
}

TopKSlot unpack_topk_slot(double packed) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(packed);
  return TopKSlot{static_cast<std::uint32_t>(bits >> 32),
                  std::bit_cast<float>(static_cast<std::uint32_t>(bits))};
}

void encode(Codec codec, std::span<const double> src, std::span<double> wire,
            double topk_ratio) {
  const std::size_t n = src.size();
  switch (codec) {
    case Codec::kFp16: {
      // The kernels write half/byte lanes straight into the wire doubles;
      // zero the final partial double first so the tail bytes are canonical
      // (byte-comparable across ranks and in golden tests).
      if (n % 4 != 0 && !wire.empty()) wire.back() = 0.0;
      active_table().fp16_pack(src.data(), n,
                               reinterpret_cast<std::uint16_t*>(wire.data()));
      return;
    }
    case Codec::kInt8: {
      const std::size_t chunks = div_up(n, kInt8ChunkElements);
      const auto& kt = active_table();
      if (n % 8 != 0 && !wire.empty()) wire.back() = 0.0;
      auto* bytes = reinterpret_cast<signed char*>(wire.data() + chunks);
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * kInt8ChunkElements;
        const std::size_t len = std::min(kInt8ChunkElements, n - begin);
        const double m = kt.absmax(src.data() + begin, len);
        const double scale = m / 127.0;
        wire[c] = scale;
        kt.int8_quantize(src.data() + begin, len,
                         m > 0.0 ? 127.0 / m : 0.0, bytes + begin);
      }
      return;
    }
    case Codec::kTopK: {
      const std::size_t k = topk_count(n, topk_ratio);
      // Deterministic selection: |value| descending, index ascending on
      // ties — a total order, so the selected set is independent of the
      // selection algorithm and of any threading above this call.  That
      // lets an O(n) nth_element pick the k survivors; only they are
      // sorted, into ascending index order.
      std::vector<std::uint32_t> idx(n);
      std::iota(idx.begin(), idx.end(), 0u);
      const auto kth = idx.begin() + static_cast<std::ptrdiff_t>(k);
      std::nth_element(idx.begin(), kth, idx.end(),
                       [&src](std::uint32_t a, std::uint32_t b) {
                         const double fa = std::abs(src[a]);
                         const double fb = std::abs(src[b]);
                         if (fa != fb) return fa > fb;
                         return a < b;
                       });
      std::sort(idx.begin(), kth);
      for (std::size_t i = 0; i < k; ++i) {
        wire[i] = pack_topk_slot(
            TopKSlot{idx[i], static_cast<float>(src[idx[i]])});
      }
      return;
    }
    case Codec::kNone:
    case Codec::kAuto:
      break;
  }
  std::copy(src.begin(), src.end(), wire.begin());
}

void decode(Codec codec, std::span<const double> wire, std::span<double> dst,
            double topk_ratio) {
  const std::size_t n = dst.size();
  switch (codec) {
    case Codec::kFp16:
      active_table().fp16_unpack(
          reinterpret_cast<const std::uint16_t*>(wire.data()), n, dst.data());
      return;
    case Codec::kInt8: {
      const std::size_t chunks = div_up(n, kInt8ChunkElements);
      const auto& kt = active_table();
      const auto* bytes =
          reinterpret_cast<const signed char*>(wire.data() + chunks);
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * kInt8ChunkElements;
        const std::size_t len = std::min(kInt8ChunkElements, n - begin);
        kt.int8_dequantize(bytes + begin, len, wire[c], dst.data() + begin);
      }
      return;
    }
    case Codec::kTopK: {
      std::fill(dst.begin(), dst.end(), 0.0);
      const std::size_t k = topk_count(n, topk_ratio);
      for (std::size_t i = 0; i < k; ++i) {
        const TopKSlot slot = unpack_topk_slot(wire[i]);
        dst[slot.index] = static_cast<double>(slot.value);
      }
      return;
    }
    case Codec::kNone:
    case Codec::kAuto:
      break;
  }
  std::copy(wire.begin(), wire.end(), dst.begin());
}

void topk_residual(std::span<const double> u, std::span<const double> wire,
                   std::span<double> residual) {
  if (residual.data() != u.data()) {
    std::copy(u.begin(), u.end(), residual.begin());
  }
  for (const double packed : wire) {
    residual[unpack_topk_slot(packed).index] = 0.0;
  }
}

// ---------------------------------------------------------------------------
// Compressed collectives
// ---------------------------------------------------------------------------

std::size_t all_reduce_scratch_elements(Codec codec, std::size_t n, int world,
                                        double topk_ratio) noexcept {
  return static_cast<std::size_t>(world) * wire_elements(codec, n, topk_ratio) +
         n;
}

std::size_t broadcast_scratch_elements(Codec codec, std::size_t n,
                                       double topk_ratio) noexcept {
  return wire_elements(codec, n, topk_ratio);
}

void all_reduce_encoded(Communicator& comm, std::span<double> data,
                        Codec codec, ReduceOp op, double topk_ratio,
                        std::span<double> scratch, int plan_task) {
  const int P = comm.size();
  const int rank = comm.rank();
  const std::size_t n = data.size();
  const std::size_t w = wire_elements(codec, n, topk_ratio);
  const auto codec_id = static_cast<std::uint16_t>(codec);
  const auto block = [&](int r) {
    return scratch.subspan(static_cast<std::size_t>(r) * w, w);
  };

  // Ring all-gather of the P encoded vectors: at step s, ship the block
  // received at step s-1 (own block at s=1) to the right neighbour.  The
  // frames carry the codec id, so the socket backend genuinely moves the
  // compressed bytes.
  const int right = (rank + 1) % P;
  const int left = (rank - 1 + P) % P;
  for (int s = 1; s < P; ++s) {
    const int send_block = (rank - s + 1 + P) % P;
    const int recv_block = (rank - s + P) % P;
    comm.send(right, block(send_block), wire::kDataTag, plan_task, codec_id);
    comm.recv(left, block(recv_block));
  }

  // Every rank decodes and reduces all P vectors in rank order 0..P-1 with
  // the elementwise kernels — bitwise identical across ranks by
  // construction, regardless of the gather's message timing.
  const std::span<double> temp = scratch.subspan(
      static_cast<std::size_t>(P) * w, n);
  decode(codec, block(0), data, topk_ratio);
  for (int r = 1; r < P; ++r) {
    decode(codec, block(r), temp, topk_ratio);
    detail::accumulate(data, temp, op);
  }
  detail::finalize(data, op, P);
}

void compressed_all_reduce(Communicator& comm, std::span<double> data,
                           Codec codec, ReduceOp op, double topk_ratio,
                           std::span<double> scratch, int plan_task) {
  const std::size_t w = wire_elements(codec, data.size(), topk_ratio);
  encode(codec, data,
         scratch.subspan(static_cast<std::size_t>(comm.rank()) * w, w),
         topk_ratio);
  all_reduce_encoded(comm, data, codec, op, topk_ratio, scratch, plan_task);
}

void compressed_broadcast(Communicator& comm, std::span<double> data,
                          Codec codec, int root, std::span<double> scratch,
                          int plan_task) {
  const int P = comm.size();
  const int rank = comm.rank();
  const std::size_t w = wire_elements(codec, data.size());
  const std::span<double> wire_buf = scratch.subspan(0, w);
  const auto codec_id = static_cast<std::uint16_t>(codec);

  if (rank == root) encode(codec, data, wire_buf);

  // Binomial tree over virtual ranks (root -> 0), mirroring the lossless
  // Communicator::broadcast but shipping the encoded vector.
  const int vrank = (rank - root + P) % P;
  int mask = 1;
  while (mask < P) {
    if (vrank & mask) {
      const int src = (((vrank & ~mask) % P) + root) % P;
      comm.recv(src, wire_buf);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    const int vdst = vrank | mask;
    if ((vrank & mask) == 0 && vdst < P) {
      comm.send((vdst + root) % P, wire_buf, wire::kDataTag, plan_task,
                codec_id);
    }
    mask >>= 1;
  }

  // The root decodes its own encoding too: every rank's post-broadcast
  // state is the decoded wire, bitwise identical across the cluster.
  decode(codec, wire_buf, data);
}

}  // namespace spdkfac::comm
