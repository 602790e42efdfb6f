// Wire-protocol unit + fuzz tests, and transport-backend smoke tests.
//
// The protocol tests need no processes: encode/decode round-trips, torn
// reads reassembled by FrameParser at every (randomized) chunking, and
// corrupt headers (bad magic / version / oversize length) rejected cleanly
// — never a hang, never a giant allocation.  The backend smoke tests drive
// each Transport through the launcher: point-to-point ordering, barrier,
// zero-length and large (short-read) messages, heartbeat rate limiting and
// filtering, and child-failure propagation.  The launcher test checks that
// a launch failing midway leaves no rank behind.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/topology.hpp"
#include "comm/transport.hpp"
#include "comm/wire.hpp"
#include "testsupport/backends.hpp"

namespace spdkfac::comm {
namespace {

using testsupport::backend_name;
using testsupport::kAllTransports;

// ---------------------------------------------------------------------------
// Header encode/decode
// ---------------------------------------------------------------------------

TEST(WireHeader, RoundTripsAllFields) {
  wire::FrameHeader header;
  header.tag = wire::kBarrierTag;
  header.src = 7;
  header.plan_task = 123;
  header.elements = 99;
  header.codec = 3;  // comm::Codec::kTopK payload

  unsigned char raw[wire::kHeaderBytes];
  wire::encode_header(header, raw);
  wire::FrameHeader decoded;
  ASSERT_EQ(wire::decode_header(raw, decoded), wire::DecodeStatus::kOk);
  EXPECT_EQ(decoded, header);
}

TEST(WireHeader, RoundTripsRandomCorpus) {
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<std::uint32_t> tag_dist(0, 0xFFFF);
  std::uniform_int_distribution<std::int32_t> src_dist(-1, 1 << 20);
  std::uniform_int_distribution<std::int32_t> task_dist(-1, 1 << 24);
  std::uniform_int_distribution<std::uint64_t> len_dist(0, wire::kMaxElements);
  std::uniform_int_distribution<std::uint32_t> codec_dist(0, 0xFFFF);

  for (int i = 0; i < 500; ++i) {
    wire::FrameHeader header;
    header.tag = static_cast<std::uint16_t>(tag_dist(rng));
    header.src = src_dist(rng);
    header.plan_task = task_dist(rng);
    header.elements = len_dist(rng);
    header.codec = static_cast<std::uint16_t>(codec_dist(rng));

    unsigned char raw[wire::kHeaderBytes];
    wire::encode_header(header, raw);
    wire::FrameHeader decoded;
    ASSERT_EQ(wire::decode_header(raw, decoded), wire::DecodeStatus::kOk);
    ASSERT_EQ(decoded, header);
  }
}

TEST(WireHeader, LayoutIsLittleEndian) {
  wire::FrameHeader header;
  header.elements = 2;
  header.codec = 3;  // comm::Codec::kTopK
  unsigned char raw[wire::kHeaderBytes];
  wire::encode_header(header, raw);
  // magic "SPDK" = 0x5350444B little-endian: 4B 44 50 53.
  EXPECT_EQ(raw[0], 0x4B);
  EXPECT_EQ(raw[1], 0x44);
  EXPECT_EQ(raw[2], 0x50);
  EXPECT_EQ(raw[3], 0x53);
  EXPECT_EQ(raw[4], wire::kVersion);
  EXPECT_EQ(raw[16], 2);   // elements, low byte first
  EXPECT_EQ(raw[23], 0);
  EXPECT_EQ(raw[24], 3);   // codec id
  EXPECT_EQ(raw[25], 0);
  for (int i = 26; i < 32; ++i) EXPECT_EQ(raw[i], 0);  // reserved
}

TEST(WireHeader, RejectsBadMagic) {
  wire::FrameHeader header;
  unsigned char raw[wire::kHeaderBytes];
  wire::encode_header(header, raw);
  raw[0] ^= 0xFF;
  wire::FrameHeader decoded;
  EXPECT_EQ(wire::decode_header(raw, decoded), wire::DecodeStatus::kBadMagic);
}

TEST(WireHeader, RejectsBadVersion) {
  wire::FrameHeader header;
  header.version = wire::kVersion + 1;
  unsigned char raw[wire::kHeaderBytes];
  wire::encode_header(header, raw);
  wire::FrameHeader decoded;
  EXPECT_EQ(wire::decode_header(raw, decoded),
            wire::DecodeStatus::kBadVersion);
}

TEST(WireHeader, RejectsOversizeLength) {
  wire::FrameHeader header;
  header.elements = wire::kMaxElements + 1;
  unsigned char raw[wire::kHeaderBytes];
  wire::encode_header(header, raw);
  wire::FrameHeader decoded;
  EXPECT_EQ(wire::decode_header(raw, decoded), wire::DecodeStatus::kOversize);
}

// ---------------------------------------------------------------------------
// FrameParser reassembly
// ---------------------------------------------------------------------------

std::vector<unsigned char> frame_bytes(int src, int plan_task,
                                       const std::vector<double>& payload) {
  wire::FrameHeader header;
  header.src = src;
  header.plan_task = plan_task;
  header.elements = payload.size();
  return wire::encode_frame(header, payload);
}

TEST(FrameParser, SingleFeedYieldsFrame) {
  wire::FrameParser parser;
  const std::vector<double> payload = {1.5, -2.25, 3.0};
  ASSERT_TRUE(parser.feed(frame_bytes(3, 42, payload)));
  ASSERT_TRUE(parser.has_frame());
  const wire::Frame frame = parser.pop_frame();
  EXPECT_EQ(frame.header.src, 3);
  EXPECT_EQ(frame.header.plan_task, 42);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(parser.has_frame());
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(FrameParser, ByteAtATimeReassembles) {
  const std::vector<double> payload = {1.0, 2.0};
  const auto bytes = frame_bytes(0, -1, payload);
  wire::FrameParser parser;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_FALSE(parser.has_frame()) << "frame complete too early at " << i;
    ASSERT_TRUE(parser.feed({&bytes[i], 1}));
  }
  ASSERT_TRUE(parser.has_frame());
  EXPECT_EQ(parser.pop_frame().payload, payload);
}

TEST(FrameParser, RandomChunkingReassemblesManyFrames) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> len_dist(0, 40);
  std::uniform_real_distribution<double> val_dist(-10.0, 10.0);

  // Concatenate a stream of frames, then feed it in random-size chunks.
  std::vector<std::vector<double>> payloads;
  std::vector<unsigned char> stream;
  for (int f = 0; f < 50; ++f) {
    std::vector<double> payload(len_dist(rng));
    for (double& v : payload) v = val_dist(rng);
    const auto bytes = frame_bytes(f % 4, f, payload);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    payloads.push_back(std::move(payload));
  }

  wire::FrameParser parser;
  std::uniform_int_distribution<std::size_t> chunk_dist(1, 37);
  std::size_t offset = 0;
  std::size_t popped = 0;
  while (offset < stream.size()) {
    const std::size_t n = std::min(chunk_dist(rng), stream.size() - offset);
    ASSERT_TRUE(parser.feed({stream.data() + offset, n}));
    offset += n;
    while (parser.has_frame()) {
      const wire::Frame frame = parser.pop_frame();
      ASSERT_LT(popped, payloads.size());
      EXPECT_EQ(frame.payload, payloads[popped]);
      EXPECT_EQ(frame.header.plan_task, static_cast<int>(popped));
      ++popped;
    }
  }
  EXPECT_EQ(popped, payloads.size());
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(FrameParser, CorruptHeaderIsTerminal) {
  auto bytes = frame_bytes(0, -1, {1.0});
  bytes[0] ^= 0xFF;  // break the magic
  wire::FrameParser parser;
  EXPECT_FALSE(parser.feed(bytes));
  EXPECT_TRUE(parser.corrupt());
  EXPECT_EQ(parser.error(), wire::DecodeStatus::kBadMagic);
  // Further feeds (even valid frames) are ignored.
  EXPECT_FALSE(parser.feed(frame_bytes(0, -1, {2.0})));
  EXPECT_FALSE(parser.has_frame());
}

TEST(FrameParser, FuzzCorruptedStreamsNeverHangOrYieldGarbage) {
  // Seeded corpus: random valid streams with one random byte flipped.  The
  // parser must either still produce only frames with intact headers
  // (flip hit a payload byte) or go terminally corrupt — and never crash,
  // hang, or over-allocate (oversize lengths are rejected by decode).
  std::mt19937 rng(20210713);
  std::uniform_real_distribution<double> val_dist(-1.0, 1.0);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<unsigned char> stream;
    std::uniform_int_distribution<std::size_t> len_dist(0, 12);
    const int frames = 1 + static_cast<int>(rng() % 5);
    for (int f = 0; f < frames; ++f) {
      std::vector<double> payload(len_dist(rng));
      for (double& v : payload) v = val_dist(rng);
      const auto bytes = frame_bytes(f, f, payload);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    const std::size_t flip = rng() % stream.size();
    stream[flip] ^= static_cast<unsigned char>(1 + rng() % 255);

    wire::FrameParser parser;
    std::size_t offset = 0;
    std::uniform_int_distribution<std::size_t> chunk_dist(1, 64);
    bool alive = true;
    while (alive && offset < stream.size()) {
      const std::size_t n = std::min(chunk_dist(rng), stream.size() - offset);
      alive = parser.feed({stream.data() + offset, n});
      offset += n;
      while (parser.has_frame()) {
        const wire::Frame frame = parser.pop_frame();
        ASSERT_LE(frame.payload.size(), wire::kMaxElements);
      }
    }
    if (!alive) {
      EXPECT_TRUE(parser.corrupt());
      EXPECT_NE(parser.error(), wire::DecodeStatus::kOk);
    }
  }
}

// ---------------------------------------------------------------------------
// Backend smoke tests (both transports through the launcher)
// ---------------------------------------------------------------------------

class TransportBackend : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override {
    SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(GetParam());
  }
};

TEST_P(TransportBackend, PointToPointPreservesOrderAndBits) {
  const Topology topo = Topology::flat(2);
  const auto results = Cluster::launch_collect(
      GetParam(), topo, [](Communicator& comm) -> std::vector<double> {
        std::vector<double> got;
        if (comm.rank() == 0) {
          comm.send(1, std::vector<double>{1.0, -0.0, 1e-308});
          comm.send(1, std::vector<double>{});  // zero-length frame
          comm.send(1, std::vector<double>{42.5});
        } else {
          std::vector<double> first(3), empty, third(1);
          comm.recv(0, first);
          comm.recv(0, empty);
          comm.recv(0, third);
          got.insert(got.end(), first.begin(), first.end());
          got.insert(got.end(), third.begin(), third.end());
        }
        return got;
      });
  ASSERT_EQ(results.size(), 2u);
  const std::vector<double> expected = {1.0, -0.0, 1e-308, 42.5};
  ASSERT_EQ(results[1].size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Bitwise, not value, comparison: -0.0 and denormals must survive.
    EXPECT_EQ(std::memcmp(&results[1][i], &expected[i], sizeof(double)), 0);
  }
}

TEST_P(TransportBackend, BarrierSeparatesPhases) {
  const Topology topo = Topology::flat(4);
  const auto results = Cluster::launch_collect(
      GetParam(), topo, [](Communicator& comm) -> std::vector<double> {
        // Neighbour exchange, barrier, reversed exchange: without a real
        // barrier the second phase's messages could be consumed by the
        // first phase's pending recv (lengths differ, recv would throw).
        const int next = (comm.rank() + 1) % comm.size();
        const int prev = (comm.rank() + comm.size() - 1) % comm.size();
        std::vector<double> one(1, comm.rank());
        comm.send(next, one);
        comm.recv(prev, one);
        comm.barrier();
        std::vector<double> two(2, comm.rank());
        comm.send(prev, two);
        comm.recv(next, two);
        comm.barrier();
        return {one[0], two[0]};
      });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)][0], (r + 3) % 4);
    EXPECT_EQ(results[static_cast<std::size_t>(r)][1], (r + 1) % 4);
  }
}

TEST_P(TransportBackend, LargeMessagesStreamThrough) {
  // Bigger than a socket's kernel buffer, so the frame arrives through
  // many short reads the parser must reassemble.
  const Topology topo = Topology::flat(2);
  constexpr std::size_t kBig = 40000;  // 320 KB of doubles
  const auto results = Cluster::launch_collect(
      GetParam(), topo, [](Communicator& comm) -> std::vector<double> {
        if (comm.rank() == 0) {
          std::vector<double> big(kBig);
          std::iota(big.begin(), big.end(), 0.0);
          comm.send(1, big);
          return {};
        }
        std::vector<double> big(kBig);
        comm.recv(0, big);
        // Spot-check, and return a checksum instead of 320 KB per rank.
        double checksum = 0.0;
        for (std::size_t i = 0; i < big.size(); ++i) {
          if (big[i] != static_cast<double>(i)) return {-1.0};
          checksum += big[i];
        }
        return {checksum};
      });
  const double expected = static_cast<double>(kBig) * (kBig - 1) / 2.0;
  ASSERT_EQ(results[1].size(), 1u);
  EXPECT_EQ(results[1][0], expected);
}

TEST_P(TransportBackend, HeartbeatsAreRateLimitedCountedAndFiltered) {
  // Each rank pings twice back to back, sleeps past the heartbeat interval
  // and pings again, then sends one data message to every peer.  The rate
  // limiter must let exactly one round through per interval, and every
  // receiver must skip the pings queued ahead of the data.
  constexpr double kTimeout = 2.0;  // heartbeat interval: a quarter, 0.5 s
  const Topology topo = Topology::flat(3);
  const auto results = Cluster::launch_collect(
      GetParam(), topo, [](Communicator& comm) -> std::vector<double> {
        Transport& t = comm.transport();
        t.heartbeat();  // launched disarmed: a no-op
        const auto disarmed = static_cast<double>(t.heartbeats_sent());
        t.set_timeout(kTimeout);  // before this rank's first send
        t.heartbeat();
        t.heartbeat();
        const auto burst = static_cast<double>(t.heartbeats_sent());
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kTimeout / 4.0 + 0.1));
        t.heartbeat();
        const auto later = static_cast<double>(t.heartbeats_sent());

        const int me = comm.rank();
        for (int peer = 0; peer < comm.size(); ++peer) {
          if (peer != me) comm.send(peer, std::vector<double>{me + 0.5, -0.0});
        }
        double intact = 1.0;
        for (int peer = 0; peer < comm.size(); ++peer) {
          if (peer == me) continue;
          std::vector<double> got(2);
          comm.recv(peer, got);
          if (got[0] != peer + 0.5 || !std::signbit(got[1])) intact = 0.0;
        }
        return {disarmed, burst, later, intact};
      });
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0], 0.0) << "disarmed heartbeat() must not ping";
    EXPECT_EQ(r[1], 1.0) << "two back-to-back calls are one round";
    EXPECT_EQ(r[2], 2.0) << "a call past the interval is a new round";
    EXPECT_EQ(r[3], 1.0) << "data behind the pings arrived damaged";
  }
}

TEST_P(TransportBackend, WorkerFailurePropagates) {
  const Topology topo = Topology::flat(2);
  EXPECT_THROW(
      Cluster::launch_collect(GetParam(), topo,
                              [](Communicator& comm) -> std::vector<double> {
                                if (comm.rank() == 1) {
                                  throw std::runtime_error("rank 1 died");
                                }
                                return {};
                              }),
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TransportBackend, ::testing::ValuesIn(kAllTransports),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      return backend_name(info.param);
    });

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

// Helper-process body: a 4-rank socket launch whose third pipe() fails
// (fds >= 3 closed, RLIMIT_NOFILE = 6, and each forked rank keeps one read
// end open).  Exit status 0: the launch threw "pipe failed" and left no
// forked rank alive or unreaped; 1: the rlimit could not be set; 2: no
// throw; 3: a rank outlived the throw; 4: the wrong error.
[[noreturn]] void launch_with_too_few_fds() {
  ::close_range(3, ~0U, 0);
  rlimit lim{};
  ::getrlimit(RLIMIT_NOFILE, &lim);
  lim.rlim_cur = 6;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(1);
  int code = 2;
  try {
    Cluster::launch_collect(
        TransportKind::kSocket, Topology::flat(4),
        [](Communicator&) { return std::vector<double>{}; });
  } catch (const std::runtime_error& e) {
    code = 4;
    if (std::string(e.what()).find("pipe failed") != std::string::npos) {
      code = ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD ? 0 : 3;
    }
  }
  ::_exit(code);
}

TEST(Launcher, FailedPipeReapsTheRanksAlreadyForked) {
  SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(TransportKind::kSocket);
  // The helper leads its own process group, so a rank it leaks (left
  // waiting on peers that were never forked) dies with the group.
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    ::setpgid(0, 0);
    launch_with_too_few_fds();
  }
  ::setpgid(helper, helper);
  int status = 0;
  pid_t reaped = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((reaped = ::waitpid(helper, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(-helper, SIGKILL);  // leaked ranks, or a helper past the deadline
  if (reaped == 0) ::waitpid(helper, &status, 0);
  ASSERT_EQ(reaped, helper) << "helper did not exit within 20 s";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: setrlimit failed, 2: launch did not throw, 3: a forked rank "
         "outlived the throw, 4: wrong error";
}

// ---------------------------------------------------------------------------
// Factory validation
// ---------------------------------------------------------------------------

TEST(TransportFactories, RejectBadArguments) {
  EXPECT_THROW(make_in_process_group(0), std::invalid_argument);
  EXPECT_THROW(make_in_process_transport(make_in_process_group(2), 2),
               std::invalid_argument);
  EXPECT_THROW(make_socket_transport({"/tmp/x", 0}, 0), std::invalid_argument);
  EXPECT_THROW(make_socket_transport({"/tmp/x", 2}, 5), std::invalid_argument);
}

TEST(TransportNames, RoundTrip) {
  for (const TransportKind kind : kAllTransports) {
    EXPECT_EQ(transport_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(transport_from_string("carrier-pigeon"), std::invalid_argument);
}

}  // namespace
}  // namespace spdkfac::comm
