// Checkpoint journal: the on-disk format behind
// DistKfacOptimizer::save_checkpoint / restore_checkpoint.
//
// A checkpoint is a versioned, CRC-guarded record journal.  The file opens
// with an 8-byte magic + format version, then carries a sequence of
// self-describing records — each a (type, index, length, payload, crc32)
// frame — and closes with a kEnd record whose index is the record count.
// Every frame is independently integrity-checked (CRC-32 over the header
// and payload), so a truncated file, a flipped bit, or a record from a
// different format version is rejected with a std::runtime_error naming the
// failure instead of silently restoring garbage — the property the
// kill-during-checkpoint story needs: a half-written journal is *detectably*
// half-written.
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern (std::bit_cast through uint64), which is what makes a restored
// run bitwise identical to the uninterrupted one — no text round-trip, no
// locale, no precision loss.
//
// The journal layer is deliberately dumb: it knows frames, not optimizers.
// What goes *into* the frames (weights, Kronecker factors, the profiler
// state, the planning timing) is decided by the save/restore members in
// checkpoint.cpp, and the record-type enum below is the contract between
// the two.  Tests drive Writer/Reader directly to lock down corruption
// detection without an optimizer in the loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace spdkfac::core::journal {

/// Format magic ("SPDKFAC" + journal revision marker) and version.  Bump
/// kVersion on any layout change; Reader rejects mismatches.
inline constexpr char kMagic[8] = {'S', 'P', 'D', 'K', 'F', 'A', 'C', 'J'};
inline constexpr std::uint32_t kVersion = 1;

/// Record types of version-1 journals.  Matrix records carry their layer
/// index in the frame's `index` field.
enum class RecordType : std::uint16_t {
  kMeta = 1,      ///< run counters + shape of everything that follows
  kWeights = 2,   ///< layer weight matrix
  kFactorA = 3,   ///< running-average Kronecker factor A_l
  kFactorG = 4,   ///< running-average Kronecker factor G_l
  kInverseA = 5,  ///< damped inverse of A_l (may be 0x0 before first inverse)
  kInverseG = 6,  ///< damped inverse of G_l
  kProfiler = 7,  ///< perf::OnlineProfiler::serialize() vector
  kTiming = 8,    ///< the planning PassTiming in effect
  kEnd = 9,       ///< terminator; index == number of preceding records
  /// Per-layer top-k error-feedback residual (index = layer; payload is
  /// u64 element count + that many f64s).  Written only when the optimizer
  /// runs grad_codec == kTopK; absent records restore as zeroed residuals,
  /// so version-1 journals from before compression stay readable.
  kGradResidual = 10,
  /// Whose inverses the saved ones are (payload: u64 saving rank, then per
  /// layer the i64 holder — -1: every rank computed or received them, r:
  /// only owner r did).  Absent in journals from before layer-granular
  /// placement, which replicated every inverse: all restore as -1.
  kInverseHolders = 11,
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`,
/// continuing from `seed` (pass a previous return value to chain buffers).
std::uint32_t crc32(std::span<const unsigned char> bytes,
                    std::uint32_t seed = 0);

/// Little-endian payload builder.  Accumulates into an in-memory byte
/// vector handed to Writer::record().
class Payload {
 public:
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void put_f64s(std::span<const double> values);
  /// rows, cols, then row-major data.
  void put_matrix(const tensor::Matrix& m);

  std::span<const unsigned char> bytes() const noexcept { return bytes_; }

 private:
  std::vector<unsigned char> bytes_;
};

/// Cursor over a record's payload.  Every getter throws std::runtime_error
/// ("checkpoint: truncated record payload") on over-read — a frame whose
/// CRC passed can still be *semantically* short if written by a buggy or
/// foreign producer.
class PayloadView {
 public:
  explicit PayloadView(std::span<const unsigned char> bytes) : bytes_(bytes) {}

  std::uint64_t get_u64();
  double get_f64();
  std::vector<double> get_f64s(std::size_t count);
  tensor::Matrix get_matrix();
  bool exhausted() const noexcept { return offset_ == bytes_.size(); }

 private:
  std::span<const unsigned char> bytes_;
  std::size_t offset_ = 0;
};

/// Streams a journal out.  The header is written on construction; call
/// record() per frame and finish() exactly once (writes kEnd and flushes).
/// Throws std::runtime_error when the underlying stream fails.
class Writer {
 public:
  explicit Writer(std::ostream& out);
  void record(RecordType type, std::uint16_t index,
              std::span<const unsigned char> payload);
  void record(RecordType type, std::uint16_t index, const Payload& payload) {
    record(type, index, payload.bytes());
  }
  void finish();

 private:
  std::ostream& out_;
  std::uint16_t records_ = 0;
  bool finished_ = false;
};

/// Streams a journal in.  The header is validated on construction; next()
/// yields records until the kEnd terminator (then std::nullopt forever).
/// Throws std::runtime_error on bad magic, unsupported version, CRC
/// mismatch, truncation, or a record-count mismatch at kEnd.
class Reader {
 public:
  struct Record {
    RecordType type{};
    std::uint16_t index = 0;
    std::vector<unsigned char> payload;
    PayloadView view() const { return PayloadView(payload); }
  };

  explicit Reader(std::istream& in);
  std::optional<Record> next();

 private:
  std::istream& in_;
  std::uint16_t records_ = 0;
  bool done_ = false;
};

}  // namespace spdkfac::core::journal
