// Lossy/lossless payload codecs for collective communication — the seam
// that lets the planner trade accuracy for bytes-on-the-wire (ROADMAP item
// 5(a): compression shifts the m of the paper's alpha + beta*m model, Eq.
// (14), and is therefore re-derived through the planner rather than bolted
// onto the transport).
//
// Three codecs:
//
//   kFp16  — IEEE-754 binary16 quantization, 4 halves per wire double
//            (4x fewer bytes).  Lossless in structure: every element
//            survives, rounded to ~3 decimal digits.
//   kInt8  — per-chunk-scaled linear quantization: each 256-element chunk
//            carries one double scale (absmax/127) plus 8 signed bytes per
//            wire double (~7.8x fewer bytes).
//   kTopK  — top-k sparsification for gradients: the k = max(1,
//            floor(ratio*n)) largest-|value| elements ship as (index,
//            f32 value) slots, one wire double each; the unsent remainder
//            feeds a per-rank error-feedback residual added back into the
//            next step's gradient (see core::DistKfacOptimizer).  Selection
//            is deterministic: |value| descending, index ascending on ties,
//            read off the sign-cleared bit pattern of each element (a NaN
//            ranks above +-inf), in O(n) by a threshold search — see encode.
//
// Determinism.  Every codec's encode/decode runs on the kernel table's
// codec primitives, which are bitwise identical across ISA levels (see
// tensor/kernels/kernels.hpp), and the compressed collectives below
// all-gather the P encoded vectors and have *every* rank decode and reduce
// them in fixed rank order 0..P-1 — so results are bitwise identical on
// every rank, on every backend, at every ISA level, independent of the
// plan's algorithm annotation (which shapes cost modeling only).
//
// Error bounds the conformance suite holds the lossy codecs to (inputs
// x_r per rank, result vs the exact sum):
//
//   fp16:  |err_i| <= P * 2^-11 * max_r(|x_r,i|) * (1 + o(1))   (half ulp)
//   int8:  |err_i| <= P * max_r(absmax_chunk(x_r)) / 254        (half step)
//   topk:  exactly sum_r decode_r(encode_r(x_r)) — the reference replays
//          the codec, the loss is accounted by error feedback upstream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "comm/cluster.hpp"

namespace spdkfac::comm {

/// Payload codec of one collective task.  kAuto is an *option* value only:
/// the planner resolves it per step (to kInt8 for factor families, kFp16
/// for gradients, or kNone below the crossover size) and resolved
/// sched::Task codecs are never kAuto.
enum class Codec : std::uint8_t {
  kNone = 0,
  kFp16 = 1,
  kInt8 = 2,
  kTopK = 3,
  kAuto = 4,
};

const char* to_string(Codec codec) noexcept;

/// int8 quantization chunk: one scale double per 256 elements.
inline constexpr std::size_t kInt8ChunkElements = 256;

/// kAuto crossover: payloads below this many doubles stay lossless (the
/// alpha term dominates there, so shrinking m buys nothing but error).
inline constexpr std::size_t kAutoCodecCrossoverElements = 8192;

/// Resolves an option codec against a payload size: kAuto becomes kInt8
/// (factors) / kFp16 (gradients) at or above the crossover and kNone below
/// it; concrete codecs pass through.  Never returns kAuto.
Codec resolve_codec(Codec option, std::size_t elements, bool gradient) noexcept;

/// Wire payload length in doubles for n logical doubles under `codec`
/// (kTopK needs the ratio; n for kNone).
std::size_t wire_elements(Codec codec, std::size_t n,
                          double topk_ratio = 0.0) noexcept;

/// Asymptotic compressed/raw wire-size ratio — what the planner scales the
/// beta term of Eq. (14) by when re-deriving fusion groups and CT/NCT
/// placement under compression (1.0 for kNone).
double wire_ratio(Codec codec, double topk_ratio = 0.0) noexcept;

/// Modeled encode + decode compute seconds per element (folded into the
/// planner's adjusted beta alongside the wire ratio, and added by the
/// simulator's pricer as codec_compute_cost).
double codec_cost_per_element(Codec codec) noexcept;

/// Modeled total codec compute seconds for one collective over n elements.
inline double codec_compute_cost(Codec codec, std::size_t n) noexcept {
  return codec_cost_per_element(codec) * static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

/// Encodes src into wire (exactly wire_elements(codec, src.size(), ratio)
/// doubles).  kNone copies.  kTopK emits slots in ascending-index order
/// (canonical form — byte-comparable across ranks and runs) and selects by
/// the key bit_cast<uint64_t>(x) with the sign bit cleared, which is
/// monotone in |x| (+-0 share a key) and ranks a NaN above +-inf, so any
/// input — non-finite ones included — has one selection on every rank.
/// The selected set is every key above the k-th largest key tau plus the
/// lowest-index elements whose key equals tau, until k are taken; tau is
/// found by an MSD radix select (an 11-bit exponent digit, then 13-bit
/// digits over the surviving candidates, nth_element on the last few), so
/// the encode costs three streaming passes over src, O(n) in all.
void encode(Codec codec, std::span<const double> src, std::span<double> wire,
            double topk_ratio = 0.0);

/// Decodes wire into dst (dst.size() == the original element count).  Fully
/// writes dst: kTopK zero-fills then scatters its slots, and throws
/// std::invalid_argument naming the slot index if one is >= dst.size() or
/// not strictly above its predecessor — a corrupt or forged frame never
/// writes outside dst.
void decode(Codec codec, std::span<const double> wire, std::span<double> dst,
            double topk_ratio = 0.0);

/// One top-k wire slot: a u32 element index and the f32 value, packed into
/// one double's bit pattern.
struct TopKSlot {
  std::uint32_t index = 0;
  float value = 0.0f;
};

double pack_topk_slot(TopKSlot slot) noexcept;
TopKSlot unpack_topk_slot(double packed) noexcept;

/// Top-k error feedback fused with the encode, in three streaming passes
/// over the payload.  On entry payload holds the gradient g and residuals —
/// spans that tile payload in order (one per fused layer) — hold the banked
/// residual r.  On return payload holds u = g + r, wire holds
/// encode(kTopK, u) bit for bit, and each residual span holds its part of
/// u with the shipped positions zeroed (the f32 rounding of a shipped value
/// is not fed back — it is orders below the sparsification error).  Throws
/// std::invalid_argument if the residual spans do not tile payload.
void topk_feedback_encode(std::span<double> payload,
                          std::span<const std::span<double>> residuals,
                          std::span<double> wire, double topk_ratio);

// ---------------------------------------------------------------------------
// Compressed collectives
// ---------------------------------------------------------------------------

/// Scratch doubles compressed_all_reduce needs for n-element payloads:
/// world gathered wire vectors plus one decode temporary.
std::size_t all_reduce_scratch_elements(Codec codec, std::size_t n, int world,
                                        double topk_ratio = 0.0) noexcept;

/// Scratch doubles compressed_broadcast needs: one wire vector.
std::size_t broadcast_scratch_elements(Codec codec, std::size_t n,
                                       double topk_ratio = 0.0) noexcept;

/// In-place compressed all-reduce: encode the local vector, ring
/// all-gather the P encoded vectors (point-to-point frames tagged with the
/// codec id and `plan_task`, so the socket backend genuinely ships the
/// compressed bytes), then decode + reduce all P of them in rank order
/// 0..P-1 on every rank.  scratch must hold all_reduce_scratch_elements.
void compressed_all_reduce(Communicator& comm, std::span<double> data,
                           Codec codec, ReduceOp op, double topk_ratio,
                           std::span<double> scratch, int plan_task = -1);

/// compressed_all_reduce with the local encoding already placed in
/// scratch[rank*w, (rank+1)*w) — the error-feedback gradient path encodes
/// itself (topk_feedback_encode) so it banks the residual from the exact
/// wire content.  A kTopK sum or average never decodes densely: rank 0's
/// slots scatter over zeros and each later rank's add at their indices,
/// bitwise equal to the dense decode-and-add (signed zeros included), with
/// decode's bounds and order check on every block.
void all_reduce_encoded(Communicator& comm, std::span<double> data,
                        Codec codec, ReduceOp op, double topk_ratio,
                        std::span<double> scratch, int plan_task = -1);

/// In-place compressed broadcast: the root encodes, the wire vector ships
/// down a binomial tree, and *every* rank — the root included — overwrites
/// data with the decoded wire, so downstream state (e.g. CT inverses) is
/// bitwise identical across ranks.  scratch must hold
/// broadcast_scratch_elements.
void compressed_broadcast(Communicator& comm, std::span<double> data,
                          Codec codec, int root, std::span<double> scratch,
                          int plan_task = -1);

}  // namespace spdkfac::comm
