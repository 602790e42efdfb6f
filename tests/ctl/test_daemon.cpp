// End-to-end control plane: every spdkfacctl command answered by a live
// daemon, live `set` taking effect without a restart (bitwise-equivalent
// to an inline loop applying the same tunables), rejected sets leaving the
// options untouched, and the determinism contract — hammering the ctl
// socket during training must not perturb the trained weights.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/transport.hpp"
#include "core/dist_kfac.hpp"
#include "ctl/client.hpp"
#include "ctl/daemon.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "tensor/random.hpp"
#include "testsupport/json_validator.hpp"
#include "util/json.hpp"

namespace spdkfac {
namespace {

using testsupport::valid_json;

constexpr int kWorld = 2;
constexpr std::size_t kLayers = 3;  // conv, conv, linear of make_small_cnn

std::string test_socket_path(const std::string& tag) {
  return comm::default_tmp_dir() + "/spdkfacd-" + tag + "-" +
         std::to_string(::getpid()) + ".sock";
}

/// Pinned planning profile: daemon runs must be pure functions of seeds and
/// directives (no wall-clock-dependent plans) for bitwise comparisons.
sched::PassTiming fixed_profile() {
  sched::PassTiming t;
  for (std::size_t l = 0; l < kLayers; ++l) {
    t.a_ready.push_back(1e-4 * static_cast<double>(l + 1));
    t.g_ready.push_back(1e-3 + 1e-4 * static_cast<double>(l + 1));
    t.grad_ready.push_back(1e-3 + 1.5e-4 * static_cast<double>(l + 1));
  }
  t.backward_end = 2e-3;
  return t;
}

ctl::DaemonOptions daemon_options(const std::string& tag) {
  ctl::DaemonOptions opts;
  opts.socket_path = test_socket_path(tag);
  opts.world = kWorld;
  opts.optimizer.profile = fixed_profile();
  return opts;
}

/// Runs a daemon, drives it from this thread through a CtlClient (the
/// driver must end with a `shutdown` request), and returns the daemon for
/// weight/step inspection.  Rethrows any daemon-side fatal error.
void drive_daemon(ctl::Daemon& daemon,
                  const std::string& socket_path,
                  const std::function<void(ctl::CtlClient&)>& driver) {
  std::exception_ptr daemon_error;
  std::thread serving([&] {
    try {
      daemon.run();
    } catch (...) {
      daemon_error = std::current_exception();
    }
  });
  try {
    ctl::CtlClient client(socket_path, 10.0);
    driver(client);
  } catch (...) {
    daemon.request_shutdown();
    serving.join();
    throw;
  }
  // Idempotent: covers a driver that bailed early (gtest ASSERT) without
  // issuing its shutdown request, so join() cannot hang.
  daemon.request_shutdown();
  serving.join();
  if (daemon_error) std::rethrow_exception(daemon_error);
}

/// Blocks until the daemon has completed `steps` optimizer steps.
void await_steps(const ctl::Daemon& daemon, std::size_t steps) {
  while (daemon.steps_completed() < steps) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(CtlDaemon, EveryCommandAnswersAgainstALiveDaemon) {
  const ctl::DaemonOptions opts = daemon_options("commands");
  ctl::Daemon daemon(opts);
  drive_daemon(daemon, opts.socket_path, [&](ctl::CtlClient& client) {
    ctl::Response r = client.request("step 2");
    ASSERT_TRUE(r.ok) << r.body;
    await_steps(daemon, 2);

    r = client.request("status");
    ASSERT_TRUE(r.ok) << r.body;
    std::string error;
    EXPECT_TRUE(valid_json(r.body, &error)) << error << "\n" << r.body;
    EXPECT_NE(r.body.find("\"step\": 2"), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"strategy\": \"SPD-KFAC\""), std::string::npos)
        << r.body;
    EXPECT_NE(r.body.find("\"world\": 2"), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"failed\": false"), std::string::npos) << r.body;

    r = client.request("profile");
    ASSERT_TRUE(r.ok) << r.body;
    EXPECT_TRUE(valid_json(r.body, &error)) << error << "\n" << r.body;
    EXPECT_NE(r.body.find("\"layers\": 3"), std::string::npos) << r.body;

    r = client.request("plan");
    ASSERT_TRUE(r.ok) << r.body;
    EXPECT_NE(r.body.find("task"), std::string::npos) << r.body;

    r = client.request("cache");
    ASSERT_TRUE(r.ok) << r.body;
    EXPECT_TRUE(valid_json(r.body, &error)) << error << "\n" << r.body;
    EXPECT_NE(r.body.find("\"hits\""), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"misses\""), std::string::npos) << r.body;

    r = client.request("metrics");
    ASSERT_TRUE(r.ok) << r.body;
    EXPECT_NE(r.body.find("# TYPE spdkfac_steps_total counter"),
              std::string::npos)
        << r.body;
    EXPECT_NE(r.body.find("\nspdkfac_steps_total 2\n"), std::string::npos)
        << r.body;
    EXPECT_NE(r.body.find("spdkfac_world_size 2"), std::string::npos)
        << r.body;
    EXPECT_NE(r.body.find("spdkfac_wire_bytes_per_iteration"),
              std::string::npos)
        << r.body;

    r = client.request("trace");
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(valid_json(r.body, &error)) << error;
    // A real run's trace has both lanes populated.
    EXPECT_NE(r.body.find("\"compute-0\""), std::string::npos);
    EXPECT_NE(r.body.find("\"comm-0\""), std::string::npos);
    // Events carry the simulator's breakdown categories.
    EXPECT_TRUE(r.body.find("\"cat\":\"factor_comp\"") != std::string::npos ||
                r.body.find("\"cat\":\"inverse_comp\"") != std::string::npos)
        << r.body;
    EXPECT_TRUE(r.body.find("\"cat\":\"factor_comm\"") != std::string::npos ||
                r.body.find("\"cat\":\"grad_comm\"") != std::string::npos)
        << r.body;

    r = client.request("replan");
    EXPECT_TRUE(r.ok) << r.body;

    r = client.request("set lr=0.07");
    ASSERT_TRUE(r.ok) << r.body;
    r = client.request("status");
    ASSERT_TRUE(r.ok);
    EXPECT_NE(r.body.find("\"lr\": 0.07"), std::string::npos) << r.body;

    r = client.request("bogus");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.body.find("unknown command"), std::string::npos) << r.body;

    EXPECT_TRUE(client.request("shutdown").ok);
  });
  EXPECT_EQ(daemon.steps_completed(), 2u);
  EXPECT_EQ(daemon.rank0_weights().size(), kLayers);
}

TEST(CtlDaemon, RejectedSetLeavesOptionsUntouched) {
  const ctl::DaemonOptions opts = daemon_options("reject");
  ctl::Daemon daemon(opts);
  drive_daemon(daemon, opts.socket_path, [&](ctl::CtlClient& client) {
    ctl::Response before = client.request("status");
    ASSERT_TRUE(before.ok);

    for (const char* bad :
         {"set lr=-1", "set lr=0", "set stat_decay=1.5", "set kl_clip=-2",
          "set factor_update_freq=0", "set factor_update_freq=1.5",
          "set replan_interval=-3", "set no_such_tunable=1", "set lr=abc",
          "set lr", "set", "step -1", "step 3x", "step 0", "step 1 2",
          "step +2", "step 18446744073709551616"}) {
      ctl::Response r = client.request(bad);
      EXPECT_FALSE(r.ok) << bad << " was accepted: " << r.body;
    }

    ctl::Response after = client.request("status");
    ASSERT_TRUE(after.ok);
    EXPECT_EQ(before.body, after.body)
        << "rejected commands must not change anything status reports";

    // The daemon still trains after the rejections.
    ASSERT_TRUE(client.request("step 1").ok);
    await_steps(daemon, 1);
    EXPECT_TRUE(client.request("shutdown").ok);
  });
  EXPECT_EQ(daemon.steps_completed(), 1u);
}

TEST(CtlDaemon, ConstructorRejectsInvalidConfigurations) {
  ctl::DaemonOptions opts = daemon_options("ctor");
  opts.world = 0;
  EXPECT_THROW(ctl::Daemon daemon(opts), std::invalid_argument);

  opts = daemon_options("ctor");
  opts.optimizer.transport = comm::TransportKind::kSocket;
  EXPECT_THROW(ctl::Daemon daemon(opts), std::invalid_argument);

  opts = daemon_options("ctor");
  opts.optimizer.lr = -1.0;
  EXPECT_THROW(ctl::Daemon daemon(opts), std::invalid_argument);

  opts = daemon_options("ctor");
  opts.socket_path = "/tmp/" + std::string(200, 'd') + ".sock";
  EXPECT_THROW(ctl::Daemon daemon(opts), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Live `set` equivalence: daemon run with `set lr/damping` between steps ==
// inline loop applying the same set_tunable calls at the same boundaries.
// ---------------------------------------------------------------------------

/// The daemon's training loop, replicated inline (same seeds, same model,
/// same hooked passes), with tunable changes applied after `set_after`
/// steps.  Returns rank 0's final weights.
std::vector<tensor::Matrix> inline_reference_run(
    const ctl::DaemonOptions& opts, std::size_t steps_before,
    const std::vector<std::pair<std::string, double>>& sets,
    std::size_t steps_after) {
  std::vector<tensor::Matrix> weights;
  comm::Cluster::launch(opts.world, [&](comm::Communicator& comm) {
    tensor::Rng init(opts.init_seed);
    nn::Sequential model =
        nn::make_small_cnn(opts.in_channels, opts.image_hw, opts.conv1,
                           opts.conv2, opts.classes, init);
    auto layers = model.preconditioned_layers();
    core::DistKfacOptimizer optimizer(layers, comm, opts.optimizer);
    nn::SyntheticClassification data(opts.classes, opts.in_channels,
                                     opts.image_hw, opts.data_seed,
                                     opts.noise);
    tensor::Rng shard(100 + static_cast<std::uint64_t>(comm.rank()));
    nn::SoftmaxCrossEntropy loss;
    const auto one_step = [&] {
      nn::Batch batch = data.sample(opts.batch, shard);
      const nn::PassHooks hooks = optimizer.pass_hooks();
      loss.forward(model.forward(batch.inputs, hooks), batch.labels);
      model.backward(loss.backward(), hooks);
      optimizer.step();
    };
    for (std::size_t s = 0; s < steps_before; ++s) one_step();
    for (const auto& [name, value] : sets) {
      optimizer.set_tunable(name, value);
    }
    for (std::size_t s = 0; s < steps_after; ++s) one_step();
    if (comm.rank() == 0) {
      for (nn::PreconditionedLayer* layer : layers) {
        weights.push_back(layer->weight());
      }
    }
  });
  return weights;
}

void expect_bitwise_equal(const std::vector<tensor::Matrix>& a,
                          const std::vector<tensor::Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t l = 0; l < a.size(); ++l) {
    ASSERT_EQ(a[l].data().size(), b[l].data().size()) << "layer " << l;
    for (std::size_t i = 0; i < a[l].data().size(); ++i) {
      // Bitwise: EXPECT_EQ on doubles is exact equality, which is what the
      // determinism contract promises (0.0 == -0.0 aside, which training
      // weights never hit).
      EXPECT_EQ(a[l].data()[i], b[l].data()[i])
          << "layer " << l << " element " << i;
    }
  }
}

TEST(CtlDaemon, LiveSetMatchesInlineReferenceBitwise) {
  constexpr std::size_t kBefore = 3, kAfter = 3;
  const std::vector<std::pair<std::string, double>> kSets{
      {"lr", 0.01}, {"damping", 0.05}};

  const ctl::DaemonOptions opts = daemon_options("liveset");
  ctl::Daemon daemon(opts);
  drive_daemon(daemon, opts.socket_path, [&](ctl::CtlClient& client) {
    ASSERT_TRUE(client.request("step " + std::to_string(kBefore)).ok);
    await_steps(daemon, kBefore);  // sets must land at the same boundary
    for (const auto& [name, value] : kSets) {
      ctl::Response r = client.request("set " + name + "=" +
                                       util::format_double(value));
      ASSERT_TRUE(r.ok) << r.body;
    }
    ASSERT_TRUE(client.request("step " + std::to_string(kAfter)).ok);
    await_steps(daemon, kBefore + kAfter);
    // The set really took effect without a restart.
    ctl::Response status = client.request("status");
    ASSERT_TRUE(status.ok);
    EXPECT_NE(status.body.find("\"lr\": 0.01"), std::string::npos)
        << status.body;
    EXPECT_NE(status.body.find("\"damping\": 0.05"), std::string::npos)
        << status.body;
    EXPECT_TRUE(client.request("shutdown").ok);
  });

  const std::vector<tensor::Matrix> reference =
      inline_reference_run(opts, kBefore, kSets, kAfter);
  expect_bitwise_equal(daemon.rank0_weights(), reference);
}

// ---------------------------------------------------------------------------
// Determinism under ctl load: reads must never perturb training.
// ---------------------------------------------------------------------------

TEST(CtlDaemon, CtlReadsNeverPerturbTrainingBitwise) {
  constexpr std::size_t kSteps = 6;

  // Quiet run: queue all steps, wait, shut down.
  const ctl::DaemonOptions quiet_opts = daemon_options("quiet");
  ctl::Daemon quiet(quiet_opts);
  drive_daemon(quiet, quiet_opts.socket_path, [&](ctl::CtlClient& client) {
    ASSERT_TRUE(client.request("step " + std::to_string(kSteps)).ok);
    await_steps(quiet, kSteps);
    EXPECT_TRUE(client.request("shutdown").ok);
  });

  // Hammered run: same steps, but every read command fired continuously
  // from two client threads while training runs.
  const ctl::DaemonOptions loud_opts = daemon_options("loud");
  ctl::Daemon loud(loud_opts);
  drive_daemon(loud, loud_opts.socket_path, [&](ctl::CtlClient& client) {
    std::atomic<bool> done{false};
    std::vector<std::thread> hammers;
    for (int h = 0; h < 2; ++h) {
      hammers.emplace_back([&, h] {
        ctl::CtlClient mine(loud_opts.socket_path, 10.0);
        const std::vector<std::string> reads{
            "status", "profile", "plan", "cache", "metrics", "trace"};
        std::size_t i = static_cast<std::size_t>(h);
        while (!done.load()) {
          ctl::Response r = mine.request(reads[i++ % reads.size()]);
          EXPECT_TRUE(r.ok) << r.body;
        }
      });
    }
    ASSERT_TRUE(client.request("step " + std::to_string(kSteps)).ok);
    await_steps(loud, kSteps);
    done.store(true);
    for (std::thread& t : hammers) t.join();
    EXPECT_TRUE(client.request("shutdown").ok);
  });

  ASSERT_EQ(quiet.steps_completed(), kSteps);
  ASSERT_EQ(loud.steps_completed(), kSteps);
  expect_bitwise_equal(quiet.rank0_weights(), loud.rank0_weights());
}

// Batch mode: auto_steps drains and the daemon exits without a shutdown.
TEST(CtlDaemon, BatchModeExitsAfterAutoSteps) {
  ctl::DaemonOptions opts = daemon_options("batch");
  opts.auto_steps = 2;
  opts.run_until_shutdown = false;
  ctl::Daemon daemon(opts);
  daemon.run();
  EXPECT_EQ(daemon.steps_completed(), 2u);
  EXPECT_EQ(daemon.rank0_weights().size(), kLayers);

  // Identical batch run reproduces identical weights (fixed profile).
  ctl::Daemon again(opts);
  again.run();
  expect_bitwise_equal(daemon.rank0_weights(), again.rank0_weights());
}

}  // namespace
}  // namespace spdkfac
