// Length-prefixed wire protocol of the out-of-process (socket) transport.
//
// Every message the socket backend moves between ranks is one *frame*: a
// fixed 32-byte header followed by the payload doubles.  The header carries
// enough to validate the stream (magic, version), identify the sender
// (rank), and tag the traffic class (data / barrier / handshake) plus the
// sched::IterationPlan task the payload realizes and the comm::Codec the
// payload is encoded with — the same metadata the async engine's OpRecords
// carry in-process:
//
//   offset  size  field
//        0     4  magic          0x53'50'44'4B ("SPDK", little-endian)
//        4     2  version        protocol version (kVersion)
//        6     2  tag            traffic class (kDataTag / kBarrierTag / ...)
//        8     4  src            sender rank (int32)
//       12     4  plan_task      plan task id, -1 for out-of-plan traffic
//       16     8  elements       payload length in doubles (uint64)
//       24     2  codec          comm::Codec id (0 = raw doubles)
//       26     6  reserved       must be zero
//       32  8*elements           payload (raw IEEE-754 bits, host-endian;
//                                codec != 0: the encoded wire vector)
//
// All multi-byte fields are little-endian (encode/decode below serialize
// byte-by-byte, so the layout is identical regardless of host struct
// padding).  decode_header() rejects bad magic, unknown versions and
// absurd payload lengths with a typed status instead of trusting the
// stream — a torn or corrupt connection must fail loudly, never hang or
// over-allocate.  FrameParser reassembles frames from arbitrary byte
// chunks (short socket reads tear frames at any offset) and goes into a
// terminal corrupt state on the first bad header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace spdkfac::comm::wire {

inline constexpr std::uint32_t kMagic = 0x5350'444B;  // "SPDK"
/// v2 widened the header from 24 to 32 bytes to carry the payload codec id
/// (compressed collectives) plus reserved space.
inline constexpr std::uint16_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 32;

/// Traffic classes (header `tag`).
inline constexpr std::uint16_t kDataTag = 0;
inline constexpr std::uint16_t kBarrierTag = 0xB0;
inline constexpr std::uint16_t kHandshakeTag = 0xC0;
/// Liveness ping (empty payload): emitted by blocked ranks every quarter
/// deadline so an alive-but-waiting peer is never declared dead.  Filtered
/// out of every recv stream; its arrival resets the sender's deadline.
inline constexpr std::uint16_t kHeartbeatTag = 0xD0;
/// Failure notice (payload: one double holding the dead rank): broadcast
/// best-effort by whichever rank's deadline fired first, so every survivor
/// surfaces a RankFailure naming the *root* dead rank.
inline constexpr std::uint16_t kFailureTag = 0xE0;
/// Control-plane traffic (ctl/protocol.hpp): a command line from spdkfacctl
/// to the daemon's ctl socket, and the daemon's success / error reply.
/// Payloads are UTF-8 text packed into doubles (ctl::pack_text) riding the
/// same framed protocol as rank-to-rank data, so the daemon's ctl endpoint
/// reuses FrameParser verbatim.
inline constexpr std::uint16_t kCtlRequestTag = 0xF0;
inline constexpr std::uint16_t kCtlOkTag = 0xF1;
inline constexpr std::uint16_t kCtlErrTag = 0xF2;

/// Sanity cap on one frame's payload (doubles): 1 Gi elements = 8 GiB.  A
/// header announcing more is corruption, not a real message — rejecting it
/// keeps a flipped length byte from turning into an 8 GiB allocation.
inline constexpr std::uint64_t kMaxElements = 1ull << 30;

struct FrameHeader {
  std::uint16_t version = kVersion;
  std::uint16_t tag = kDataTag;
  std::int32_t src = 0;
  std::int32_t plan_task = -1;
  std::uint64_t elements = 0;
  /// comm::Codec id of the payload encoding (0: raw doubles).  For codec
  /// frames `elements` counts the *wire* doubles actually shipped.
  std::uint16_t codec = 0;

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

enum class DecodeStatus {
  kOk,
  kBadMagic,
  kBadVersion,
  kOversize,
};

const char* to_string(DecodeStatus status) noexcept;

/// Serializes `header` into out[0..kHeaderBytes); out must be large enough.
void encode_header(const FrameHeader& header, std::span<unsigned char> out);

/// Parses a header from in[0..kHeaderBytes) (in must hold at least that
/// many bytes).  On kOk, `out` holds the decoded fields; on any other
/// status `out` is unspecified and the stream must be abandoned.
DecodeStatus decode_header(std::span<const unsigned char> in,
                           FrameHeader& out);

/// Encodes one complete frame (header + payload bytes) into a contiguous
/// buffer — what the senders enqueue per peer.
std::vector<unsigned char> encode_frame(const FrameHeader& header,
                                        std::span<const double> payload);

struct Frame {
  FrameHeader header;
  std::vector<double> payload;
};

/// Incremental frame reassembler for a byte stream that tears frames at
/// arbitrary offsets (short reads).  feed() appends bytes and extracts
/// every complete frame; a bad header makes the parser corrupt —
/// terminally: further feeds are ignored and error() reports why.
class FrameParser {
 public:
  /// Appends bytes to the stream.  Returns false once the stream is
  /// corrupt (the first bad header; see error()).
  bool feed(std::span<const unsigned char> bytes);

  bool has_frame() const noexcept { return !frames_.empty(); }

  /// Pops the oldest complete frame (has_frame() must be true).
  Frame pop_frame();

  bool corrupt() const noexcept { return status_ != DecodeStatus::kOk; }
  DecodeStatus error() const noexcept { return status_; }

  /// Bytes buffered but not yet assembled into a frame.
  std::size_t pending_bytes() const noexcept { return buf_.size() - cursor_; }

 private:
  void extract_frames();

  std::vector<unsigned char> buf_;
  std::size_t cursor_ = 0;  ///< consumed prefix of buf_
  std::deque<Frame> frames_;
  DecodeStatus status_ = DecodeStatus::kOk;
};

}  // namespace spdkfac::comm::wire
