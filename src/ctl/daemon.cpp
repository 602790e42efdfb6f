#include "ctl/daemon.hpp"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "comm/transport.hpp"
#include "ctl/metrics.hpp"
#include "ctl/server.hpp"
#include "ctl/trace_recorder.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "sched/serialize.hpp"
#include "sim/iteration.hpp"
#include "tensor/random.hpp"
#include "util/json.hpp"

namespace spdkfac::ctl {

namespace {

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + util::json_number(values[i]);
  }
  return out + "]";
}

/// Parses the `set` argument "name=value"; throws std::invalid_argument on
/// anything else (including a value strtod does not fully consume).
std::pair<std::string, double> parse_assignment(const std::string& arg) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) {
    throw std::invalid_argument("set expects name=value, got '" + arg + "'");
  }
  const std::string name = arg.substr(0, eq);
  const std::string text = arg.substr(eq + 1);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("set " + name + ": '" + text +
                                "' is not a number");
  }
  return {name, value};
}

/// Parses a `step` count: decimal digits only (no sign, no trailing
/// characters), at least 1 and within size_t; nullopt otherwise.
std::optional<std::size_t> parse_step_count(const std::string& text) {
  std::size_t n = 0;
  const char* last = text.data() + text.size();
  const auto [end, err] = std::from_chars(text.data(), last, n);
  if (err != std::errc{} || end != last || n == 0) return std::nullopt;
  return n;
}

/// Splits a command line on single spaces into [verb, args...].
std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > pos) words.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return words;
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : opts_(std::move(options)) {
  if (opts_.world < 1) {
    throw std::invalid_argument("Daemon: world must be >= 1");
  }
  comm::validate_socket_path(opts_.socket_path);
  opts_.optimizer.validate();
  if (opts_.optimizer.transport != comm::TransportKind::kInProcess) {
    throw std::invalid_argument(
        "Daemon: ranks are in-process threads (the ctl plane shares rank "
        "0's address space); transport must be inproc");
  }
  cursor_.assign(static_cast<std::size_t>(opts_.world), 0);
}

void Daemon::run() {
  comm::Cluster::launch(opts_.world,
                        [this](comm::Communicator& comm) { rank_main(comm); });
}

void Daemon::rank_main(comm::Communicator& comm) {
  tensor::Rng init(opts_.init_seed);
  nn::Sequential model =
      nn::make_small_cnn(opts_.in_channels, opts_.image_hw, opts_.conv1,
                         opts_.conv2, opts_.classes, init);
  auto layers = model.preconditioned_layers();
  core::DistKfacOptimizer optimizer(layers, comm, opts_.optimizer);
  nn::SyntheticClassification data(opts_.classes, opts_.in_channels,
                                   opts_.image_hw, opts_.data_seed,
                                   opts_.noise);
  tensor::Rng shard(100 + static_cast<std::uint64_t>(comm.rank()));
  nn::SoftmaxCrossEntropy loss;

  double last_loss = 0.0;
  const std::function<void()> train_one_step = [&] {
    nn::Batch batch = data.sample(opts_.batch, shard);
    const nn::PassHooks hooks =
        opts_.hooked ? optimizer.pass_hooks() : nn::PassHooks{};
    last_loss = loss.forward(model.forward(batch.inputs, hooks), batch.labels);
    model.backward(loss.backward(), hooks);
    optimizer.step();
  };

  if (comm.rank() != 0) {
    worker_loop(comm, optimizer, train_one_step);
    return;
  }

  // ----- rank 0: ctl service + training, one thread ------------------------
  CtlServer server(opts_.socket_path);
  TraceRecorder recorder;
  optimizer.set_task_listener(
      [&recorder](const sched::Task& task, double start_s, double end_s) {
        recorder.add({.kind = sim::breakdown_kind(task.kind), .start = start_s,
                      .end = end_s, .label = task.label,
                      .resources = {TraceRecorder::kComputeStream}});
      });

  std::size_t budget = opts_.auto_steps;
  bool shutdown_req = false;
  std::string failure;  ///< non-empty once a step threw; stepping stops
  Directive pending;
  std::size_t records_harvested = 0;
  std::size_t ctl_requests = 0;
  std::size_t rank_failures = 0;
  double last_step_s = 0.0, step_s_sum = 0.0;

  // Options as the *next* step will see them: the live options plus every
  // queued-but-unpublished set — what `set` validates against and what
  // `status` reports, so a set is visible the moment it is accepted.
  const auto effective_options = [&] {
    core::DistKfacOptions eff = optimizer.options();
    for (const auto& [name, value] : pending.sets) {
      eff = core::with_tunable(eff, name, value);
    }
    return eff;
  };

  const auto status_json = [&] {
    const core::DistKfacOptions eff = effective_options();
    std::string out = "{";
    out += "\"step\": " + std::to_string(optimizer.steps());
    out += ", \"replan_epoch\": " + std::to_string(optimizer.replan_count());
    out += ", \"strategy\": " +
           util::json_string(core::to_string(optimizer.strategy()));
    out += ", \"world\": " + std::to_string(comm.size());
    out += ", \"pending_steps\": " + std::to_string(budget);
    out += ", \"last_loss\": " + util::json_number(last_loss);
    out += ", \"lr\": " + util::json_number(eff.lr);
    out += ", \"damping\": " + util::json_number(eff.damping);
    out += ", \"stat_decay\": " + util::json_number(eff.stat_decay);
    out += ", \"kl_clip\": " + util::json_number(eff.kl_clip);
    out += ", \"factor_update_freq\": " +
           std::to_string(eff.factor_update_freq);
    out += ", \"inverse_update_freq\": " +
           std::to_string(eff.inverse_update_freq);
    out += ", \"replan_interval\": " + std::to_string(eff.replan_interval);
    out += ", \"plan_tasks\": " + std::to_string(optimizer.plan().tasks.size());
    out +=
        ", \"plan_collectives\": " +
        std::to_string(optimizer.plan().num_collectives());
    out += ", \"failed\": ";
    out += failure.empty() ? "false" : "true";
    if (!failure.empty()) {
      out += ", \"failure\": " + util::json_string(failure);
    }
    out += "}";
    return out;
  };

  const auto profile_json = [&] {
    const perf::ProfileSnapshot snap = optimizer.profiler().snapshot();
    std::vector<double> inverse;
    for (std::size_t t = 0; t < 2 * snap.layers(); ++t) {
      inverse.push_back(optimizer.profiler().inverse_seconds(t));
    }
    std::string out = "{";
    out += "\"layers\": " + std::to_string(snap.layers());
    out += ", \"factor_a_s\": " + json_array(snap.factor_a);
    out += ", \"factor_g_s\": " + json_array(snap.factor_g);
    out += ", \"forward_s\": " + json_array(snap.forward);
    out += ", \"backward_s\": " + json_array(snap.backward);
    out += ", \"inverse_s\": " + json_array(inverse);
    out += ", \"collective_ops\": " +
           std::to_string(optimizer.profiler().collective_ops());
    out += ", \"collective_seconds\": " +
           util::json_number(optimizer.profiler().collective_seconds());
    out += ", \"collective_elements\": " +
           std::to_string(optimizer.profiler().collective_elements());
    out += "}";
    return out;
  };

  const auto cache_json = [&] {
    const sched::PlanCache& cache = optimizer.plan_cache();
    const double lookups = static_cast<double>(cache.hits() + cache.misses());
    std::string out = "{";
    out += "\"hits\": " + std::to_string(cache.hits());
    out += ", \"misses\": " + std::to_string(cache.misses());
    out += ", \"entries\": " + std::to_string(cache.size());
    out += ", \"hit_rate\": " +
           util::json_number(lookups > 0.0
                                 ? static_cast<double>(cache.hits()) / lookups
                                 : 0.0);
    out += "}";
    return out;
  };

  const auto metrics_text = [&] {
    using Type = Metric::Type;
    const std::size_t steps = optimizer.steps();
    std::vector<Metric> ms{
        {"spdkfac_steps_total", "Optimizer steps completed", Type::kCounter,
         static_cast<double>(steps)},
        {"spdkfac_pending_steps", "Steps queued but not yet run",
         Type::kGauge, static_cast<double>(budget)},
        {"spdkfac_world_size", "Ranks in the training cluster", Type::kGauge,
         static_cast<double>(comm.size())},
        {"spdkfac_replans_total", "Planning-profile refreshes",
         Type::kCounter, static_cast<double>(optimizer.replan_count())},
        {"spdkfac_last_iteration_seconds", "Wall time of the last step",
         Type::kGauge, last_step_s},
        {"spdkfac_iteration_seconds_sum", "Wall time across all steps",
         Type::kCounter, step_s_sum},
        {"spdkfac_iteration_seconds_count", "Steps timed", Type::kCounter,
         static_cast<double>(steps)},
        {"spdkfac_wire_bytes_per_iteration",
         "Post-codec collective payload bytes of one step's plan",
         Type::kGauge, static_cast<double>(optimizer.plan().wire_bytes())},
        {"spdkfac_raw_bytes_per_iteration",
         "Pre-codec collective payload bytes of one step's plan",
         Type::kGauge, static_cast<double>(optimizer.plan().raw_bytes())},
        {"spdkfac_arena_bytes_saved_per_iteration",
         "Bytes per step the zero-copy arena stopped copying or zeroing",
         Type::kGauge,
         static_cast<double>(optimizer.arena_bytes_saved_per_step())},
        {"spdkfac_plan_cache_hits_total", "Plan cache hits", Type::kCounter,
         static_cast<double>(optimizer.plan_cache().hits())},
        {"spdkfac_plan_cache_misses_total", "Plan cache misses",
         Type::kCounter, static_cast<double>(optimizer.plan_cache().misses())},
        {"spdkfac_plan_cache_entries", "Plans currently cached", Type::kGauge,
         static_cast<double>(optimizer.plan_cache().size())},
        {"spdkfac_collective_ops_total",
         "Collectives executed by the async engine", Type::kCounter,
         static_cast<double>(optimizer.profiler().collective_ops())},
        {"spdkfac_collective_seconds_total",
         "Engine execution time across all collectives", Type::kCounter,
         optimizer.profiler().collective_seconds()},
        {"spdkfac_heartbeats_total",
         "Liveness ping rounds emitted by this rank's transport",
         Type::kCounter,
         static_cast<double>(comm.transport().heartbeats_sent())},
        {"spdkfac_rank_failures_total",
         "Steps aborted by a rank failure", Type::kCounter,
         static_cast<double>(rank_failures)},
        {"spdkfac_ctl_requests_total", "Ctl commands served", Type::kCounter,
         static_cast<double>(ctl_requests)},
    };
    return render_prometheus(ms);
  };

  const CtlServer::Handler handler = [&](const std::string& line) {
    ++ctl_requests;
    const std::vector<std::string> words = split_words(line);
    const std::string verb = words.empty() ? "" : words[0];
    if (verb == "status") return Response{true, status_json()};
    if (verb == "profile") return Response{true, profile_json()};
    if (verb == "plan") {
      return Response{true, sched::plan_to_text(optimizer.plan())};
    }
    if (verb == "cache") return Response{true, cache_json()};
    if (verb == "metrics") return Response{true, metrics_text()};
    if (verb == "trace") {
      return Response{true, recorder.to_chrome_trace("spdkfacd")};
    }
    if (verb == "replan") {
      pending.replan = true;
      return Response{true, "replan armed for the next factor step"};
    }
    if (verb == "set") {
      if (words.size() != 2) {
        return Response{false, "usage: set <tunable>=<value>"};
      }
      const auto [name, value] = parse_assignment(words[1]);
      // Validate against the effective options; with_tunable throws (and
      // nothing is queued) on an unknown name or a rejected value.
      core::with_tunable(effective_options(), name, value);
      pending.sets.emplace_back(name, value);
      return Response{true,
                      name + " = " + util::format_double(value) +
                          " (applies from the next step)"};
    }
    if (verb == "step") {
      if (!failure.empty()) {
        return Response{false, "daemon is failed: " + failure};
      }
      std::optional<std::size_t> n = 1;
      if (words.size() > 1) {
        n = words.size() == 2 ? parse_step_count(words[1]) : std::nullopt;
      }
      // The queue itself must not wrap either.
      if (!n || *n > std::numeric_limits<std::size_t>::max() - budget) {
        return Response{false, "usage: step [count >= 1]"};
      }
      budget += *n;
      return Response{true,
                      "queued " + std::to_string(*n) + " step(s), " +
                          std::to_string(budget) + " pending"};
    }
    if (verb == "shutdown") {
      shutdown_req = true;
      return Response{true, "shutting down"};
    }
    return Response{false,
                    "unknown command '" + verb +
                        "' (expected status, profile, plan, cache, metrics, "
                        "trace, replan, set, step or shutdown)"};
  };

  for (;;) {
    // Idle (nothing queued): block in poll ticks so a quiet daemon costs
    // ~nothing.  Steps queued: a pure drain, then train.
    const int wait_ms = (budget == 0 && !shutdown_req) ? 50 : 0;
    server.handle(handler, wait_ms);
    if (external_shutdown_.load()) shutdown_req = true;
    if (!opts_.run_until_shutdown && budget == 0) shutdown_req = true;

    const bool step_now = budget > 0 && failure.empty() && !shutdown_req;
    if (!step_now && !shutdown_req && pending.sets.empty() &&
        !pending.replan) {
      continue;  // nothing to publish; keep serving
    }

    Directive directive = std::exchange(pending, Directive{});
    directive.step = step_now;
    directive.shutdown = shutdown_req;
    publish(directive);
    for (const auto& [name, value] : directive.sets) {
      optimizer.set_tunable(name, value);
    }
    if (directive.replan) optimizer.force_replan();
    if (directive.shutdown) break;
    if (!directive.step) continue;

    const auto t0 = std::chrono::steady_clock::now();
    try {
      train_one_step();
    } catch (const std::exception& e) {
      failure = e.what();
      ++rank_failures;
      budget = 0;
      continue;  // keep the ctl plane alive so `status` can report it
    }
    last_step_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    step_s_sum += last_step_s;
    --budget;
    steps_done_.store(optimizer.steps());

    // Stitch the step's collectives into the trace (compute intervals
    // arrived live through the task listener).  plan() is still the plan
    // the step ran; out-of-plan traffic (the profile sync) is kOther.
    const std::vector<comm::OpRecord> records =
        optimizer.comm_records(records_harvested);
    records_harvested += records.size();
    for (const comm::OpRecord& rec : records) {
      if (rec.failed) continue;
      const sim::TaskKind kind =
          rec.plan_task < 0
              ? sim::TaskKind::kOther
              : sim::breakdown_kind(optimizer.plan().task(rec.plan_task).kind);
      recorder.add({.kind = kind, .start = rec.start_s, .end = rec.end_s,
                    .label = rec.name,
                    .resources = {TraceRecorder::kCommStream}});
    }
  }

  rank0_weights_.clear();
  for (nn::PreconditionedLayer* layer : layers) {
    rank0_weights_.push_back(layer->weight());
  }
}

void Daemon::worker_loop(comm::Communicator& comm,
                         core::DistKfacOptimizer& optimizer,
                         const std::function<void()>& train_one_step) {
  for (;;) {
    const Directive directive = await_directive(comm.rank());
    for (const auto& [name, value] : directive.sets) {
      optimizer.set_tunable(name, value);
    }
    if (directive.replan) optimizer.force_replan();
    if (directive.shutdown) return;
    if (!directive.step) continue;
    try {
      train_one_step();
    } catch (const std::exception&) {
      // Rank 0 saw the matching failure in its own step (collectives fail
      // together); it stops issuing step directives, so just keep waiting
      // for the shutdown directive.
    }
  }
}

void Daemon::publish(Directive directive) {
  std::lock_guard lock(mu_);
  log_.push_back(std::move(directive));
  // Trim the prefix every worker has consumed (cursor_[0] is rank 0's slot
  // and never advances; skip it).
  std::uint64_t min_cursor = log_base_ + log_.size();
  for (std::size_t r = 1; r < cursor_.size(); ++r) {
    min_cursor = std::min(min_cursor, cursor_[r]);
  }
  while (log_base_ < min_cursor && !log_.empty()) {
    log_.pop_front();
    ++log_base_;
  }
  cv_.notify_all();
}

Daemon::Directive Daemon::await_directive(int rank) {
  std::unique_lock lock(mu_);
  auto& cursor = cursor_[static_cast<std::size_t>(rank)];
  cv_.wait(lock, [&] { return log_base_ + log_.size() > cursor; });
  const Directive directive = log_[cursor - log_base_];
  ++cursor;
  return directive;
}

}  // namespace spdkfac::ctl
