#include "comm/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/wire.hpp"

namespace spdkfac::comm {

namespace {

std::size_t topk_count(std::size_t n, double ratio) {
  if (n == 0) return 0;
  const auto k = static_cast<std::size_t>(ratio * static_cast<double>(n));
  return std::min(n, std::max<std::size_t>(1, k));
}

// Modeled top-k encode+decode seconds per element (both endpoints of a
// hop).  A calibration constant in the spirit of perf::ComputeModel: the
// codec is streaming, so on the modeled accelerator fabric it runs at
// memory bandwidth — orders below the per-element wire cost on the
// bandwidth-bound configurations where compression pays, but nonzero, so
// a latency-bound message still pays for its encode and decode.
constexpr double kTopKCostPerElement = 5.0e-11;

// ---------------------------------------------------------------------------
// Top-k selection
// ---------------------------------------------------------------------------

// The selection order, |value| descending then index ascending, read off
// one unsigned key per element: the bit pattern with the sign cleared is
// monotone in |x|, +-0 share key 0, and a NaN (exponent all ones, mantissa
// nonzero) ranks above +-inf.  Under it the selected set is every key above
// the k-th largest key tau, plus the lowest-index elements whose key equals
// tau until k are taken — so the search only has to find tau, and one
// ascending scan emits the slots already in canonical order.
std::uint64_t magnitude_key(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x) & ~(std::uint64_t{1} << 63);
}

// MSD radix digits: the 11 exponent bits first (bits 62..52, histogrammed
// during a pass the caller makes anyway), then four 13-bit mantissa digits
// over the surviving candidates until few enough remain for nth_element.
constexpr int kExponentShift = 52;
constexpr std::size_t kExponentBuckets = std::size_t{1} << 11;
constexpr int kDigitBits = 13;
constexpr std::size_t kDigitBuckets = std::size_t{1} << kDigitBits;
constexpr std::size_t kNthElementCandidates = 1024;

using ExponentHistogram = std::array<std::uint32_t, kExponentBuckets>;

std::size_t exponent_digit(std::uint64_t key) noexcept {
  return static_cast<std::size_t>(key >> kExponentShift);
}

// Walks a histogram down from its top bucket to the one holding the
// need-th largest key (1-based) and leaves need as the rank inside it.
std::size_t descend(std::span<const std::uint32_t> hist, std::size_t& need) {
  std::size_t b = hist.size();
  while (need > hist[--b]) need -= hist[b];
  return b;
}

struct TopKThreshold {
  std::uint64_t key = 0;  // tau, the k-th largest key
  std::size_t ties = 0;   // elements with key tau to take, lowest index first
};

// Finds tau for the k largest keys of u (1 <= k <= u.size()), given the
// exponent-digit histogram of u.
TopKThreshold find_threshold(std::span<const double> u,
                             const ExponentHistogram& hist, std::size_t k) {
  std::size_t need = k;
  const std::size_t top = descend(hist, need);

  // Branch-free gather (a branch here would mispredict on a good share of
  // the elements): every key is written, only candidates advance, so the
  // buffer needs one slot of slack.  The comm pump calls this every step;
  // the buffer keeps its size across calls, so a steady step allocates
  // nothing.
  thread_local std::vector<std::uint64_t> buffer;
  if (buffer.size() <= hist[top]) buffer.resize(std::size_t{hist[top]} + 1);
  std::size_t m = 0;
  for (const double x : u) {
    const std::uint64_t key = magnitude_key(x);
    buffer[m] = key;
    m += exponent_digit(key) == top;
  }
  std::span<std::uint64_t> candidates(buffer.data(), m);

  for (int shift = kExponentShift;
       candidates.size() > kNthElementCandidates && shift > 0;) {
    shift -= kDigitBits;
    const auto digit = [shift](std::uint64_t key) {
      return static_cast<std::size_t>(key >> shift) & (kDigitBuckets - 1);
    };
    std::array<std::uint32_t, kDigitBuckets> digits{};
    for (const std::uint64_t key : candidates) ++digits[digit(key)];
    const std::size_t b = descend(digits, need);
    const auto kept = std::remove_if(
        candidates.begin(), candidates.end(),
        [&digit, b](std::uint64_t key) { return digit(key) != b; });
    candidates = candidates.first(
        static_cast<std::size_t>(kept - candidates.begin()));
  }

  const auto nth = candidates.begin() + static_cast<std::ptrdiff_t>(need - 1);
  std::nth_element(candidates.begin(), nth, candidates.end(),
                   std::greater<>());
  // Every candidate above tau lies before nth; the rest of the need are
  // ties.
  const auto above = std::count_if(
      candidates.begin(), nth, [tau = *nth](std::uint64_t key) {
        return key > tau;
      });
  return {*nth, need - static_cast<std::size_t>(above)};
}

// Emits the selected slots of consecutive payload pieces in ascending index
// order, optionally banking each piece's error-feedback residual (the piece
// with its shipped positions zeroed).  Branch-free on the selection (a
// branch would mispredict on about `ratio` of the elements): every element
// is packed into the next free slot, only a selected one advances past it.
class SlotEmitter {
 public:
  SlotEmitter(TopKThreshold threshold, std::span<double> wire)
      : tau_(threshold.key),
        ties_(threshold.ties),
        out_(wire.data()),
        end_(wire.data() + wire.size()) {}

  void scan(std::span<const double> u, std::size_t base,
            std::span<double> residual = {}) {
    for (std::size_t i = 0; i < u.size(); ++i) {
      const double x = u[i];
      const std::uint64_t key = magnitude_key(x);
      bool take = key > tau_;
      if (key == tau_) [[unlikely]] {
        take = ties_ > 0;
        ties_ -= take;
      }
      // Past the k-th slot nothing more is selected.
      if (out_ != end_) {
        *out_ = pack_topk_slot(TopKSlot{static_cast<std::uint32_t>(base + i),
                                        static_cast<float>(x)});
        out_ += take;
      }
      if (!residual.empty()) residual[i] = take ? 0.0 : x;
    }
  }

 private:
  std::uint64_t tau_;
  std::size_t ties_;
  double* out_;
  double* end_;
};

[[noreturn]] void reject_slot(std::uint32_t index, const char* why,
                              std::size_t bound) {
  std::string what = "top-k slot index ";
  what += std::to_string(index);
  what += why;
  what += std::to_string(bound);
  throw std::invalid_argument(what);
}

// Calls fn(index, value) for each slot of a top-k block in wire order,
// after checking that the index addresses one of n elements and is above
// the previous slot's: a corrupt or forged frame throws instead of writing
// out of bounds.
template <class Fn>
void for_each_slot(std::span<const double> block, std::size_t n, Fn&& fn) {
  std::size_t next = 0;  // the smallest index the next slot may carry
  for (const double packed : block) {
    const TopKSlot slot = unpack_topk_slot(packed);
    if (slot.index >= n) {
      reject_slot(slot.index, " is out of range for element count ", n);
    }
    if (slot.index < next) {
      reject_slot(slot.index, " does not ascend past the previous slot's ",
                  next - 1);
    }
    next = std::size_t{slot.index} + 1;
    fn(slot.index, static_cast<double>(slot.value));
  }
}

bool has_slot(std::span<const double> block, std::uint32_t index) {
  const auto it = std::partition_point(
      block.begin(), block.end(), [index](double packed) {
        return unpack_topk_slot(packed).index < index;
      });
  return it != block.end() && unpack_topk_slot(*it).index == index;
}

// The sum of P top-k blocks of w slots each, in rank order, bitwise equal
// to decoding each and adding densely.  The dense path also adds +0.0
// wherever a later rank has no slot; that changes a value only when it
// turns a -0.0 into +0.0.  A -0.0 can only come from a rank-0 slot of
// -0.0f (a zero start is +0.0, and x + y is -0.0 only when both are), and
// survives the dense path only where every later rank shipped one too.
void sum_topk_blocks(std::span<const double> blocks, std::size_t w, int P,
                     std::span<double> data) {
  const std::size_t n = data.size();
  const auto block = [&](int r) {
    return blocks.subspan(static_cast<std::size_t>(r) * w, w);
  };
  std::fill(data.begin(), data.end(), 0.0);
  for_each_slot(block(0), n, [&](std::uint32_t i, double v) { data[i] = v; });
  for (int r = 1; r < P; ++r) {
    for_each_slot(block(r), n,
                  [&](std::uint32_t i, double v) { data[i] += v; });
  }
  const auto negative_zero = [](double x) {
    return x == 0.0 && std::signbit(x);
  };
  for (const double packed : block(0)) {
    const TopKSlot slot = unpack_topk_slot(packed);
    if (!negative_zero(slot.value) || !negative_zero(data[slot.index])) {
      continue;
    }
    for (int r = 1; r < P; ++r) {
      if (!has_slot(block(r), slot.index)) {
        data[slot.index] = 0.0;
        break;
      }
    }
  }
}

}  // namespace

const char* to_string(Codec codec) noexcept {
  switch (codec) {
    case Codec::kNone:
      return "none";
    case Codec::kTopK:
      return "topk";
  }
  return "?";
}

void check_codec(Codec codec, bool gradient, const char* field) {
  if (codec == Codec::kNone || (gradient && codec == Codec::kTopK)) return;
  std::string what = field;
  if (codec == Codec::kTopK) {
    what += " cannot be topk (factors are dense; sparsifying them breaks the "
            "Kronecker approximation)";
    throw std::invalid_argument(what);
  }
  const auto id = static_cast<unsigned>(codec);
  what += ": codec id ";
  what += std::to_string(id);
  static constexpr const char* kRetired[] = {nullptr, "fp16", "int8", nullptr,
                                             "auto"};
  if (id < std::size(kRetired) && kRetired[id] != nullptr) {
    what += " (";
    what += kRetired[id];
    what += ") is retired";
  } else {
    what += " is unknown";
  }
  what += gradient ? "; gradients take none or topk"
                   : "; factors ship lossless (none)";
  throw std::invalid_argument(what);
}

std::size_t wire_elements(Codec codec, std::size_t n,
                          double topk_ratio) noexcept {
  return codec == Codec::kTopK ? topk_count(n, topk_ratio) : n;
}

double codec_compute_cost(Codec codec, std::size_t n) noexcept {
  return codec == Codec::kTopK ? kTopKCostPerElement * static_cast<double>(n)
                               : 0.0;
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
  if (codec != Codec::kTopK) {
    std::copy(src.begin(), src.end(), wire.begin());
    return;
  }
  const std::size_t k = topk_count(src.size(), topk_ratio);
  if (k == 0) return;
  ExponentHistogram hist{};
  for (const double x : src) ++hist[exponent_digit(magnitude_key(x))];
  SlotEmitter(find_threshold(src, hist, k), wire).scan(src, 0);
}

void decode(Codec codec, std::span<const double> wire, std::span<double> dst,
            double topk_ratio) {
  if (codec != Codec::kTopK) {
    std::copy(wire.begin(), wire.end(), dst.begin());
    return;
  }
  const std::size_t n = dst.size();
  std::fill(dst.begin(), dst.end(), 0.0);
  for_each_slot(wire.first(topk_count(n, topk_ratio)), n,
                [&dst](std::uint32_t i, double v) { dst[i] = v; });
}

void topk_feedback_encode(std::span<double> payload,
                          std::span<const std::span<double>> residuals,
                          std::span<double> wire, double topk_ratio) {
  std::size_t covered = 0;
  for (const std::span<double> r : residuals) covered += r.size();
  if (covered != payload.size()) {
    throw std::invalid_argument(
        "topk_feedback_encode: residual spans do not tile the payload");
  }
  // Pass 1: u = g + r in place, and the exponent digits of u.
  ExponentHistogram hist{};
  std::size_t base = 0;
  for (const std::span<const double> r : residuals) {
    double* u = payload.data() + base;
    for (std::size_t i = 0; i < r.size(); ++i) {
      u[i] += r[i];
      ++hist[exponent_digit(magnitude_key(u[i]))];
    }
    base += r.size();
  }
  const std::size_t k = topk_count(payload.size(), topk_ratio);
  if (k == 0) return;
  // Pass 2 gathers tau's candidates; pass 3 emits the slots and banks r'.
  SlotEmitter emit(find_threshold(payload, hist, k), wire);
  base = 0;
  for (const std::span<double> r : residuals) {
    emit.scan(payload.subspan(base, r.size()), base, r);
    base += r.size();
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

  // Every rank decodes and reduces all P vectors in rank order 0..P-1 —
  // bitwise identical across ranks by construction, regardless of the
  // gather's message timing.
  if (codec == Codec::kTopK && op != ReduceOp::kMax) {
    sum_topk_blocks(scratch.first(static_cast<std::size_t>(P) * w), w, P,
                    data);
  } else {
    const std::span<double> temp = scratch.subspan(
        static_cast<std::size_t>(P) * w, n);
    decode(codec, block(0), data, topk_ratio);
    for (int r = 1; r < P; ++r) {
      decode(codec, block(r), temp, topk_ratio);
      detail::accumulate(data, temp, op);
    }
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

}  // namespace spdkfac::comm
