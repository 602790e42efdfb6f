// Control-plane building blocks: text packing, the framed request/reply
// exchange over a real Unix socket, socket-path validation, Prometheus
// rendering, and the live trace recorder's lane packing + strict JSON.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/transport.hpp"
#include "comm/wire.hpp"
#include "ctl/client.hpp"
#include "ctl/metrics.hpp"
#include "ctl/protocol.hpp"
#include "ctl/server.hpp"
#include "ctl/trace_recorder.hpp"
#include "sim/trace.hpp"
#include "testsupport/json_validator.hpp"
#include "util/json.hpp"

namespace spdkfac {
namespace {

using testsupport::valid_json;

std::string test_socket_path(const std::string& tag) {
  return comm::default_tmp_dir() + "/spdkfac-ctl-" + tag + "-" +
         std::to_string(::getpid()) + ".sock";
}

TEST(CtlProtocol, PackUnpackRoundTrip) {
  for (const std::string& text :
       {std::string(), std::string("status"),
        std::string("set lr=0.125"), std::string(1000, 'x'),
        std::string("emb\0edded", 9), std::string("exactly8"),
        std::string("nine char")}) {
    const std::vector<double> payload = ctl::pack_text(text);
    EXPECT_EQ(ctl::unpack_text(payload), text);
  }
}

TEST(CtlProtocol, UnpackRejectsMalformedPayloads) {
  EXPECT_THROW(ctl::unpack_text({}), std::runtime_error);
  std::vector<double> payload = ctl::pack_text("twelve bytes");
  payload.resize(1);  // length header says 12, zero bytes shipped
  EXPECT_THROW(ctl::unpack_text(payload), std::runtime_error);
}

TEST(CtlProtocol, TextFrameParsesBackThroughWireParser) {
  const auto bytes =
      ctl::encode_text_frame(comm::wire::kCtlRequestTag, "profile");
  comm::wire::FrameParser parser;
  ASSERT_TRUE(parser.feed(bytes));
  ASSERT_TRUE(parser.has_frame());
  const comm::wire::Frame frame = parser.pop_frame();
  EXPECT_EQ(frame.header.tag, comm::wire::kCtlRequestTag);
  EXPECT_EQ(ctl::unpack_text(frame.payload), "profile");
}

TEST(CtlSocketPath, TooLongPathThrowsWithBothLengths) {
  const std::string long_path = "/tmp/" + std::string(200, 'a') + ".sock";
  try {
    comm::validate_socket_path(long_path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sun_path"), std::string::npos) << what;
    EXPECT_NE(what.find(long_path), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(comm::max_socket_path_bytes())),
              std::string::npos)
        << what;
  }
  EXPECT_THROW(ctl::CtlServer server(long_path), std::invalid_argument);
}

TEST(CtlServerClient, RoundTripsEveryFrameAndReportsErrors) {
  const std::string path = test_socket_path("roundtrip");
  ctl::CtlServer server(path);
  std::thread client_thread([&] {
    ctl::CtlClient client(path, 5.0);
    ctl::Response ok = client.request("echo hello");
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.body, "echo: echo hello");
    ctl::Response err = client.request("boom");
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.body, "kaboom");
  });
  const ctl::CtlServer::Handler handler = [](const std::string& cmd) {
    if (cmd == "boom") throw std::runtime_error("kaboom");
    return ctl::Response{true, "echo: " + cmd};
  };
  std::size_t handled = 0;
  while (handled < 2) {
    handled += server.handle(handler, 100);
  }
  client_thread.join();
  EXPECT_EQ(handled, 2u);
}

TEST(CtlServerClient, SurvivesAClientThatDisconnects) {
  const std::string path = test_socket_path("disconnect");
  ctl::CtlServer server(path);
  {
    ctl::CtlClient client(path, 5.0);
    // connect and immediately go away
  }
  const ctl::CtlServer::Handler handler = [](const std::string&) {
    return ctl::Response{true, ""};
  };
  EXPECT_EQ(server.handle(handler, 50), 0u);
  // A fresh client still gets service afterwards.
  std::thread client_thread([&] {
    ctl::CtlClient client(path, 5.0);
    EXPECT_TRUE(client.request("ping").ok);
  });
  std::size_t handled = 0;
  while (handled < 1) handled += server.handle(handler, 100);
  client_thread.join();
}

TEST(CtlServer, UnlinksSocketOnDestruction) {
  const std::string path = test_socket_path("unlink");
  {
    ctl::CtlServer server(path);
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
  }
  struct stat st{};
  EXPECT_NE(::stat(path.c_str(), &st), 0);
}

TEST(Metrics, RendersPrometheusTextExposition) {
  const std::vector<ctl::Metric> metrics{
      {"spdkfac_steps_total", "Optimizer steps completed",
       ctl::Metric::Type::kCounter, 42.0},
      {"spdkfac_last_iteration_seconds", "Wall time of the last step",
       ctl::Metric::Type::kGauge, 0.125},
  };
  const std::string text = ctl::render_prometheus(metrics);
  EXPECT_NE(text.find("# HELP spdkfac_steps_total Optimizer steps completed"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE spdkfac_steps_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("\nspdkfac_steps_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spdkfac_last_iteration_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("\nspdkfac_last_iteration_seconds 0.125\n"),
            std::string::npos);
}

/// One recorded interval on the compute or comm stream.
sim::ScheduledTask event(std::string label, sim::TaskKind kind, int stream,
                         double start, double end) {
  return {.kind = kind,
          .start = start,
          .end = end,
          .label = std::move(label),
          .resources = {stream}};
}

constexpr int kCompute = ctl::TraceRecorder::kComputeStream;
constexpr int kComm = ctl::TraceRecorder::kCommStream;

TEST(TraceRecorder, PacksOverlappingEventsOntoDistinctLanes) {
  ctl::TraceRecorder recorder;
  // Two overlapping compute intervals -> two compute lanes; a third that
  // starts after the first ended reuses lane 0.  One comm interval.
  recorder.add(event("factor_a0", sim::TaskKind::kFactorComp, kCompute, 0.0,
                     1.0));
  recorder.add(event("factor_g0", sim::TaskKind::kFactorComp, kCompute, 0.5,
                     1.5));
  recorder.add(event("inverse", sim::TaskKind::kInverseComp, kCompute, 1.0,
                     2.0));
  recorder.add(event("ar@A", sim::TaskKind::kFactorComm, kComm, 0.25, 0.75));
  const std::string trace = recorder.to_chrome_trace("test-run");
  std::string error;
  EXPECT_TRUE(valid_json(trace, &error)) << error << "\n" << trace;
  EXPECT_NE(trace.find("\"compute-0\""), std::string::npos);
  EXPECT_NE(trace.find("\"compute-1\""), std::string::npos);
  EXPECT_NE(trace.find("\"comm-0\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"factor_comm\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"factor_comp\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"inverse_comp\""), std::string::npos);
  // The comm event's tid sits after both compute lanes.
  EXPECT_NE(trace.find(R"("cat":"factor_comm","ph":"X","pid":1,"tid":2)"),
            std::string::npos)
      << trace;
}

TEST(TraceRecorder, RendersThroughTheSimulatorTraceWriter) {
  ctl::TraceRecorder recorder;
  // Recorded out of start order; the recorder sorts, packs and then hands
  // the schedule to sim::to_chrome_trace, so its output is byte-equal to
  // rendering the packed schedule by hand.
  recorder.add(event("bcast[T0]", sim::TaskKind::kInverseComm, kComm, 0.5,
                     0.75));
  recorder.add(event("A0", sim::TaskKind::kFactorComp, kCompute, 0.0, 1.0));
  recorder.add(event("sync", sim::TaskKind::kOther, kComm, 0.25, 0.75));
  recorder.add(event("inv[T0]", sim::TaskKind::kInverseComp, kCompute, 0.5,
                     1.5));
  sim::Schedule packed;
  packed.tasks = {
      event("A0", sim::TaskKind::kFactorComp, 0, 0.0, 1.0),
      event("sync", sim::TaskKind::kOther, 2, 0.25, 0.75),
      event("bcast[T0]", sim::TaskKind::kInverseComm, 3, 0.5, 0.75),
      event("inv[T0]", sim::TaskKind::kInverseComp, 1, 0.5, 1.5),
  };
  EXPECT_EQ(recorder.to_chrome_trace("shared"),
            sim::to_chrome_trace(packed,
                                 {"compute-0", "compute-1", "comm-0",
                                  "comm-1"},
                                 "shared"));
}

TEST(TraceRecorder, RejectsEventsOffTheTwoStreams) {
  ctl::TraceRecorder recorder;
  EXPECT_THROW(recorder.add(event("x", sim::TaskKind::kOther, 2, 0.0, 1.0)),
               std::invalid_argument);
  sim::ScheduledTask gang = event("y", sim::TaskKind::kOther, kCompute, 0, 1);
  gang.resources.push_back(kComm);
  EXPECT_THROW(recorder.add(gang), std::invalid_argument);
  EXPECT_EQ(recorder.to_chrome_trace("rejected").find(R"("ph":"X")"),
            std::string::npos);
}

TEST(TraceRecorder, LongTimestampsKeepFullPrecision) {
  ctl::TraceRecorder recorder;
  // 100 seconds in: a 6-significant-digit emitter would render both events
  // at the same microsecond tick.
  recorder.add(event("a", sim::TaskKind::kFactorComp, kCompute, 100.000001,
                     100.000002));
  recorder.add(event("b", sim::TaskKind::kFactorComp, kCompute, 100.000003,
                     100.000004));
  const std::string trace = recorder.to_chrome_trace("precision");
  EXPECT_TRUE(valid_json(trace));
  // Expected strings replicate the recorder's own ts expression, so these
  // are exact matches — and they differ, where 6 significant figures would
  // have collapsed both to 1.00000e+08.
  const std::string ts_a = util::json_number(100.000001 * 1e6);
  const std::string ts_b = util::json_number(100.000003 * 1e6);
  EXPECT_NE(ts_a, ts_b);
  EXPECT_NE(trace.find("\"ts\":" + ts_a), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ts\":" + ts_b), std::string::npos) << trace;
}

TEST(TraceRecorder, EmptyRecorderStillEmitsValidTrace) {
  ctl::TraceRecorder recorder;
  const std::string trace = recorder.to_chrome_trace("empty");
  std::string error;
  EXPECT_TRUE(valid_json(trace, &error)) << error;
}

}  // namespace
}  // namespace spdkfac
