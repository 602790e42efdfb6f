// Lossless/lossy payload codecs for collective communication — the seam
// that lets the planner trade accuracy for bytes-on-the-wire (ROADMAP item
// 5(a): compression shifts the m of the paper's alpha + beta*m model, Eq.
// (14), and is therefore re-derived through the planner rather than bolted
// onto the transport).
//
// One lossy codec, for gradients only (factors always ship lossless):
//
//   kTopK  — top-k sparsification: the k = max(1, floor(ratio*n))
//            largest-|value| elements ship as (index, f32 value) slots,
//            one wire double each; the unsent remainder feeds a per-rank
//            error-feedback residual added back into the next step's
//            gradient (see core::DistKfacOptimizer).  Selection is
//            deterministic: |value| descending, index ascending on ties,
//            read off the sign-cleared bit pattern of each element (a NaN
//            ranks above +-inf), in O(n) by a threshold search — see
//            encode.
//
// Determinism.  The compressed all-reduce below all-gathers the P encoded
// vectors and has *every* rank decode and reduce them in fixed rank order
// 0..P-1 — so results are bitwise identical on every rank, on every
// backend, at every ISA level, independent of the plan's algorithm
// annotation (which shapes cost modeling only).  The conformance suite
// holds a top-k all-reduce to exactly sum_r decode_r(encode_r(x_r)): the
// reference replays the codec, and the loss is accounted by error feedback
// upstream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "comm/cluster.hpp"

namespace spdkfac::comm {

/// Payload codec of one collective task.  The values are the codec ids
/// socket frame headers carry, so kTopK keeps id 3; ids 1, 2 and 4 belonged
/// to the retired fp16, int8 and auto codecs and are never valid.
enum class Codec : std::uint8_t {
  kNone = 0,
  kTopK = 3,
};

const char* to_string(Codec codec) noexcept;

/// Throws std::invalid_argument unless `codec` is kNone, or kTopK for a
/// `gradient` payload (factors are dense and ship lossless).  The message
/// starts with `field`, gives the numeric id, and names the codec a retired
/// id belonged to (1 fp16, 2 int8, 4 auto).
void check_codec(Codec codec, bool gradient, const char* field);

/// Wire payload length in doubles for n logical doubles under `codec`
/// (kTopK needs the ratio; n for kNone).
std::size_t wire_elements(Codec codec, std::size_t n,
                          double topk_ratio = 0.0) noexcept;

/// Modeled encode + decode compute seconds of one collective over n
/// logical elements — what the simulator adds to a compressed gradient
/// all-reduce's wire time (0 for kNone).
double codec_compute_cost(Codec codec, std::size_t n) noexcept;

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

}  // namespace spdkfac::comm
