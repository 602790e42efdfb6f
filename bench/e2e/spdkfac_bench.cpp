// spdkfac_bench — the repository's end-to-end benchmark (see README.md).
//
// Trains real models through the public API on a 2-rank cluster and reports
// the end-to-end metrics (step time, throughput, set-up time, peak memory);
// with --trace each repetition also runs a traced pass right after the
// untraced one and reports the per-layer breakdown of its steps.  Every
// repetition runs in a fresh child process, so peak RSS and allocator state
// never leak between repetitions or workloads; a workload repeats for about
// --seconds, and at least kMinReps times.
//
//   spdkfac_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace]
//                 [--out PATH]
//
// Writes PATH (default BENCH_e2e.json) and exits 1 when a correctness check
// fails.
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/codec.hpp"
#include "core/dist_kfac.hpp"
#include "ledger.hpp"
#include "models/model_spec.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "perf/models.hpp"
#include "sched/planner.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/symmetric.hpp"
#include "util/json.hpp"

using namespace spdkfac;
using bench::StepMarks;
using Clock = std::chrono::steady_clock;

namespace {

// Load shape shared by every workload.  pool_size 2 per rank fills the
// 4-core reference host; 1 and 0 measured noisier run to run.
constexpr int kWorld = 2;
constexpr std::size_t kPoolSize = 2;
constexpr std::size_t kBatch = 32;
constexpr double kNoise = 1.0;
constexpr double kDamping = 0.1;
constexpr std::size_t kClasses = 10;
constexpr int kWarmupSteps = 10;  // not timed; the first one is set-up
constexpr int kMinReps = 3;       // setup_s / peak_rss_mb are rep medians
constexpr int kPlanSamples = 50;

struct Workload {
  const char* name;
  bool cnn;  ///< make_small_cnn(3, 16, 16, 32, 10), else make_mlp(widths)
  std::vector<std::size_t> widths;
  core::DistStrategy strategy;
  bool hooked;
  comm::TransportKind transport;
  comm::Codec grad_codec;
  bool fixed_profile;  ///< timing_from_model profile instead of live
  double lr;
  int timed_steps;
};

std::vector<std::size_t> deep_mlp_widths() {
  std::vector<std::size_t> widths(13, 128);  // 12 hidden layers of 128
  widths.push_back(kClasses);
  return widths;
}

// Why each workload exists is in README.md; in short: the paper's default
// configuration, the same layers used the D-KFAC way, a dense-algebra-bound
// MLP on a stable plan, and a comm-bound deep MLP over real sockets.
const std::vector<Workload>& workloads() {
  using core::DistStrategy;
  using comm::Codec;
  using comm::TransportKind;
  static const std::vector<Workload> all = {
      {"cnn-spd-live", true, {}, DistStrategy::kSpdKfac, true,
       TransportKind::kInProcess, Codec::kNone, false, 0.05, 50},
      {"cnn-dkfac-posthoc", true, {}, DistStrategy::kDKfac, false,
       TransportKind::kInProcess, Codec::kNone, false, 0.05, 50},
      {"mlp-wide-lbp", false, {256, 384, 384, kClasses},
       DistStrategy::kSpdKfac, true, TransportKind::kInProcess, Codec::kNone,
       true, 0.05, 50},
      {"mlp-deep-socket-topk", false, deep_mlp_widths(),
       DistStrategy::kSpdKfac, true, TransportKind::kSocket, Codec::kTopK,
       true, 0.01, 100},
  };
  return all;
}

int steps_per_rep(const Workload& w, bool trace) {
  return kWarmupSteps + w.timed_steps * (trace ? 2 : 1);
}

/// Independent streams from one --seed (splitmix64 finalizer).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

core::DistKfacOptions options_for(const Workload& w) {
  core::DistKfacOptions opts;
  opts.strategy = w.strategy;
  opts.lr = w.lr;
  opts.damping = kDamping;
  opts.pool_size = kPoolSize;
  opts.transport = w.transport;
  opts.grad_codec = w.grad_codec;
  if (w.grad_codec == comm::Codec::kTopK) opts.topk_ratio = 0.1;
  if (w.fixed_profile) {
    const models::ModelSpec spec = w.cnn
                                       ? models::conv_spec(3, 16, 16, 32, 10)
                                       : models::mlp_spec(w.widths);
    opts.profile = sched::timing_from_model(
        spec, kBatch,
        perf::ClusterCalibration::for_topology(comm::Topology::flat(kWorld))
            .compute,
        /*second_order=*/true);
  }
  return opts;
}

/// Median wall time of plan_iteration on the optimizer's own planning
/// inputs (layer shapes, planning profile, options, cost models).  The
/// optimizer exposes no accessor for the ScheduleOptions it plans with, so
/// this mirrors DistKfacOptimizer::begin_step (src/core/dist_kfac.cpp), the
/// source of truth: a change to its strategy mapping must be copied here.
double plan_ms(const core::DistKfacOptimizer& optimizer,
               const std::vector<nn::PreconditionedLayer*>& layers,
               const comm::Communicator& comm) {
  const core::DistKfacOptions& o = optimizer.options();
  sched::ScheduleInputs inputs;
  inputs.world_size = comm.size();
  inputs.timing = optimizer.planning_profile();
  for (const nn::PreconditionedLayer* layer : layers) {
    inputs.layers.push_back({layer->dim_a(), layer->dim_g(),
                             tensor::packed_size(layer->dim_a()),
                             tensor::packed_size(layer->dim_g()),
                             layer->weight_grad().size()});
  }
  sched::ScheduleOptions opt;
  opt.balance = o.balance;
  opt.grad_fusion_threshold = o.grad_fusion_threshold;
  opt.collective_algo = o.collective_algo;
  opt.factor_codec = o.factor_codec;
  opt.grad_codec = o.grad_codec;
  opt.topk_ratio = o.topk_ratio;
  if (o.strategy == core::DistStrategy::kDKfac) {
    opt.factor_comm = sched::FactorCommMode::kBulk;
    opt.inverse = sched::InverseMode::kLocalAll;
  } else {
    opt.factor_comm = o.factor_comm;
    opt.inverse = sched::InverseMode::kLBP;
  }
  const sched::ScheduleCosts costs{o.allreduce_model, o.broadcast_model,
                                   o.inverse_model,
                                   comm::AlgorithmSelector(comm.topology())};
  std::vector<double> samples;
  for (int i = 0; i < kPlanSamples; ++i) {
    const auto t0 = Clock::now();
    const sched::IterationPlan plan = sched::plan_iteration(inputs, opt, costs);
    samples.push_back(seconds_since(t0));
    if (plan.tasks.empty()) throw std::logic_error("plan_ms: empty plan");
  }
  return median(std::move(samples)) * 1e3;
}

/// FNV-1a over the bit patterns of every weight.
std::uint64_t weight_hash(const std::vector<nn::PreconditionedLayer*>& layers) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const nn::PreconditionedLayer* layer : layers) {
    for (double v : layer->weight().data()) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 64; b += 8) {
        h = (h ^ ((bits >> b) & 0xff)) * 0x100000001b3ull;
      }
    }
  }
  return h;
}

// Per-layer metrics a rank ships home, in this order; trace.overhead_frac
// is added from the step samples once all repetitions are in.
const std::vector<std::string>& rank_layer_names() {
  static const std::vector<std::string> names = {
      "step.ff_bp_ms",         "step.factor_comp_ms",
      "step.factor_comm_ms",   "step.inverse_comp_ms",
      "step.inverse_comm_ms",  "step.grad_comm_ms",
      "step.other_ms",         "step.wall_ms",
      "nn.forward_ms",         "nn.backward_ms",
      "tensor.factor_busy_ms", "tensor.inverse_busy_ms",
      "core.update_busy_ms",   "core.step_call_ms",
      "core.arena_saved_bytes", "comm.factor_busy_ms",
      "comm.grad_busy_ms",     "comm.bcast_busy_ms",
      "comm.queue_wait_ms",    "comm.hidden_frac",
      "comm.ops_per_step",     "comm.wire_bytes",
      "comm.raw_bytes",        "comm.ops_failed",
      "sched.plan_ms",         "sched.plan_cache_hit_ratio",
      "sched.replans_per_step", "perf.inverse_model_ratio",
      "perf.allreduce_model_ratio"};
  return names;
}

/// What one rank reports, flattened to doubles for launch_collect.
struct RankReport {
  std::uint64_t weight_hash = 0;
  bool finite = true;
  double first_loss = 0.0, final_loss = 0.0;
  // Rank 0 only.
  double setup_s = 0.0, peak_rss_mb = 0.0, timed_wall_s = 0.0;
  std::vector<double> step_s, traced_step_s;
  std::vector<double> layer;  ///< rank_layer_names() order; traced only

  std::vector<double> encode() const {
    std::vector<double> out{static_cast<double>(weight_hash >> 32),
                            static_cast<double>(weight_hash & 0xffffffffull),
                            finite ? 1.0 : 0.0,
                            first_loss,
                            final_loss,
                            setup_s,
                            peak_rss_mb,
                            timed_wall_s};
    for (const auto* v : {&step_s, &traced_step_s, &layer}) {
      out.push_back(static_cast<double>(v->size()));
      out.insert(out.end(), v->begin(), v->end());
    }
    return out;
  }

  static RankReport decode(std::span<const double> in) {
    std::size_t pos = 0;
    const auto next = [&] {
      if (pos >= in.size()) throw std::runtime_error("short rank report");
      return in[pos++];
    };
    RankReport r;
    const auto hi = static_cast<std::uint64_t>(next());
    r.weight_hash = (hi << 32) | static_cast<std::uint64_t>(next());
    r.finite = next() != 0.0;
    r.first_loss = next();
    r.final_loss = next();
    r.setup_s = next();
    r.peak_rss_mb = next();
    r.timed_wall_s = next();
    for (auto* v : {&r.step_s, &r.traced_step_s, &r.layer}) {
      const auto n = static_cast<std::size_t>(next());
      for (std::size_t i = 0; i < n; ++i) v->push_back(next());
    }
    return r;
  }
};

RankReport train_rank(const Workload& w, std::uint64_t seed, bool trace,
                      Clock::time_point launched, comm::Communicator& comm) {
  const bool rank0 = comm.rank() == 0;
  const bool record = trace && rank0;
  // Declared before the optimizer: its task listener writes here.
  std::mutex tasks_mu;
  bench::TracedPass pass;

  tensor::Rng init(derive(seed, 1));
  nn::Sequential model =
      w.cnn ? nn::make_small_cnn(3, 16, 16, 32, kClasses, init)
            : nn::make_mlp(w.widths, init);
  const auto layers = model.preconditioned_layers();
  const core::DistKfacOptions opts = options_for(w);
  core::DistKfacOptimizer optimizer(layers, comm, opts);
  const nn::SyntheticClassification data(kClasses, w.cnn ? 3 : w.widths[0],
                                         w.cnn ? 16 : 1, derive(seed, 2),
                                         kNoise);
  tensor::Rng shard(derive(seed, 3 + static_cast<std::uint64_t>(comm.rank())));
  nn::SoftmaxCrossEntropy loss;

  const auto train_step = [&](const nn::Batch& batch, StepMarks& m) {
    m.begin = optimizer.engine_now_s();
    const nn::PassHooks hooks =
        w.hooked ? optimizer.pass_hooks() : nn::PassHooks{};
    const nn::Tensor4D logits = model.forward(batch.inputs, hooks);
    m.forward_end = optimizer.engine_now_s();
    const double value = loss.forward(logits, batch.labels);
    const nn::Tensor4D grad = loss.backward();
    m.backward_begin = optimizer.engine_now_s();
    model.backward(grad, hooks);
    m.backward_end = optimizer.engine_now_s();
    optimizer.step();
    m.end = optimizer.engine_now_s();
    return value;
  };

  RankReport report;
  const int traced_from = kWarmupSteps + w.timed_steps;
  std::size_t hits0 = 0, misses0 = 0;
  double timed_begin = 0.0;
  for (int s = 0; s < steps_per_rep(w, trace); ++s) {
    if (record && s == traced_from) {
      hits0 = optimizer.plan_cache().hits();
      misses0 = optimizer.plan_cache().misses();
      optimizer.set_task_listener(
          [&](const sched::Task& task, double start, double end) {
            std::lock_guard lock(tasks_mu);
            pass.tasks.push_back({task.kind, task.dim, start, end});
          });
    }
    const nn::Batch batch = data.sample(kBatch, shard);
    StepMarks m;
    const double value = train_step(batch, m);
    if (s == 0) {
      report.first_loss = value;
      if (rank0) report.setup_s = seconds_since(launched);
    }
    report.finite = report.finite && std::isfinite(value);
    report.final_loss = value;
    if (s < kWarmupSteps) continue;
    if (s == kWarmupSteps) timed_begin = m.begin;
    if (s < traced_from) {
      report.step_s.push_back(m.wall());
      if (s == traced_from - 1) report.timed_wall_s = m.end - timed_begin;
    } else {
      report.traced_step_s.push_back(m.wall());
    }
    if (record && s >= traced_from) {
      pass.steps.push_back(m);
      pass.plans.push_back(
          std::make_shared<const sched::IterationPlan>(optimizer.plan()));
    }
  }
  report.weight_hash = weight_hash(layers);
  if (!rank0) return report;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (record) {
    optimizer.set_task_listener({});
    pass.records = optimizer.comm_records();
    pass.allreduce_model = opts.allreduce_model;
    pass.inverse_model = opts.inverse_model;
    std::map<std::string, double> metrics = bench::ledger_metrics(pass);
    const auto hits = static_cast<double>(optimizer.plan_cache().hits() - hits0);
    const auto misses =
        static_cast<double>(optimizer.plan_cache().misses() - misses0);
    metrics["sched.plan_cache_hit_ratio"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    // Plans actually built: replan_count() also counts the refreshes of a
    // fixed profile, which never change the plan.
    metrics["sched.replans_per_step"] =
        misses / static_cast<double>(w.timed_steps);
    metrics["core.arena_saved_bytes"] =
        static_cast<double>(optimizer.arena_bytes_saved_per_step());
    metrics["sched.plan_ms"] = plan_ms(optimizer, layers, comm);
    for (const std::string& name : rank_layer_names()) {
      report.layer.push_back(metrics.at(name));
    }
  }
  return report;
}

/// One repetition, run inside its own process: {correct, attempted steps,
/// failed steps} followed by rank 0's encoded report when training ran.
std::vector<double> run_rep(const Workload& w, std::uint64_t seed,
                            bool trace) {
  const auto attempted = static_cast<double>(steps_per_rep(w, trace));
  try {
    const auto launched = Clock::now();
    const auto per_rank = comm::Cluster::launch_collect(
        w.transport, comm::Topology::flat(kWorld),
        [&](comm::Communicator& comm) {
          return train_rank(w, seed, trace, launched, comm).encode();
        });
    // Correctness gate: replicas agree bitwise, losses stay finite, and
    // training made progress on every rank.
    bool ok = true;
    std::uint64_t rank0_hash = 0;
    for (const auto& encoded : per_rank) {
      const RankReport r = RankReport::decode(encoded);
      if (&encoded == &per_rank.front()) rank0_hash = r.weight_hash;
      if (r.weight_hash != rank0_hash) {
        std::fprintf(stderr, "%s: rank weights differ\n", w.name);
        ok = false;
      }
      if (!r.finite || !(r.final_loss < r.first_loss)) {
        std::fprintf(stderr, "%s: loss %g -> %g did not decrease\n", w.name,
                     r.first_loss, r.final_loss);
        ok = false;
      }
    }
    std::vector<double> out{ok ? 1.0 : 0.0, attempted, ok ? 0.0 : attempted};
    out.insert(out.end(), per_rank[0].begin(), per_rank[0].end());
    return out;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", w.name, e.what());
    return {0.0, attempted, attempted};
  }
}

/// Runs `fn` in a forked child and returns what it produced, or an empty
/// vector when the child died without reporting.  The caller must be
/// single-threaded.
std::vector<double> in_child(const std::function<std::vector<double>()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::system_error(errno, std::generic_category());
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::system_error(errno, std::generic_category());
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      const std::vector<double> out = fn();
      const auto* p = reinterpret_cast<const char*>(out.data());
      std::size_t left = out.size() * sizeof(double);
      while (left > 0) {
        const ssize_t n = ::write(fds[1], p, left);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 1;
          break;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::vector<char> bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      bytes.size() % sizeof(double) != 0) {
    return {};
  }
  std::vector<double> out(bytes.size() / sizeof(double));
  std::copy(bytes.begin(), bytes.end(), reinterpret_cast<char*>(out.data()));
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_frac") || ends("_ratio")) return "ratio";
  if (ends("_bytes")) return "bytes";
  return "count";
}

struct WorkloadResult {
  const Workload* workload = nullptr;
  int reps = 0;
  bool correct = true;
  double attempted = 0.0, failed = 0.0;
  std::vector<std::string> fingerprints;  ///< final-loss bits, per rep
  double first_loss = 0.0, final_loss = 0.0;
  std::vector<Metric> metrics;
  std::vector<std::map<std::string, double>> rep_metrics;
};

std::string hex_bits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

WorkloadResult run_workload(const Workload& w, std::uint64_t seed,
                            double seconds, bool trace) {
  WorkloadResult result;
  result.workload = &w;
  std::vector<RankReport> reports;
  // After kMinReps, the run ends on the repetition boundary nearest to
  // --seconds.
  const auto t0 = Clock::now();
  while (result.reps < kMinReps ||
         seconds_since(t0) * (1.0 + 0.5 / result.reps) < seconds) {
    const std::vector<double> raw =
        in_child([&] { return run_rep(w, seed, trace); });
    ++result.reps;
    if (raw.size() < 3) {
      const auto attempted = static_cast<double>(steps_per_rep(w, trace));
      result.correct = false;
      result.attempted += attempted;
      result.failed += attempted;
      continue;
    }
    result.correct = result.correct && raw[0] == 1.0;
    result.attempted += raw[1];
    result.failed += raw[2];
    if (raw.size() > 3) {
      reports.push_back(
          RankReport::decode(std::span<const double>(raw).subspan(3)));
    }
  }
  if (reports.empty()) return result;

  result.first_loss = reports.front().first_loss;
  result.final_loss = reports.front().final_loss;
  std::vector<double> pooled, setup, rss;
  double samples = 0.0, wall = 0.0;
  for (const RankReport& r : reports) {
    result.fingerprints.push_back(hex_bits(r.final_loss));
    pooled.insert(pooled.end(), r.step_s.begin(), r.step_s.end());
    samples += static_cast<double>(kWorld * kBatch * r.step_s.size());
    wall += r.timed_wall_s;
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);

    std::map<std::string, double> rep{
        {"step_ms_p50", quantile(r.step_s, 0.5) * 1e3},
        {"step_ms_p90", quantile(r.step_s, 0.9) * 1e3},
        {"samples_per_s",
         static_cast<double>(kWorld * kBatch * r.step_s.size()) /
             r.timed_wall_s},
        {"setup_s", r.setup_s},
        {"peak_rss_mb", r.peak_rss_mb}};
    if (trace) {
      for (std::size_t i = 0; i < r.layer.size(); ++i) {
        rep[rank_layer_names()[i]] = r.layer[i];
      }
      rep["trace.overhead_frac"] =
          quantile(r.traced_step_s, 0.5) / quantile(r.step_s, 0.5) - 1.0;
    }
    result.rep_metrics.push_back(std::move(rep));
  }
  result.metrics = {
      {"step_ms_p50", quantile(pooled, 0.5) * 1e3, "ms"},
      {"step_ms_p90", quantile(pooled, 0.9) * 1e3, "ms"},
      {"samples_per_s", samples / wall, "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", median(rss), "MB"},
  };
  if (trace) {
    std::vector<std::string> names = rank_layer_names();
    names.push_back("trace.overhead_frac");
    for (const std::string& name : names) {
      std::vector<double> values;
      for (const auto& rep : result.rep_metrics) values.push_back(rep.at(name));
      result.metrics.push_back({name, median(std::move(values)), unit_of(name)});
    }
  }
  return result;
}

/// Single-thread fixed-size GEMM throughput on the active kernel table
/// (GFLOP/s) — a host-speed reading, so drift between runs shows up in the
/// header instead of being read as a regression.
double gemm_probe_gflops() {
  constexpr std::size_t n = 192;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<double>(i % 17) * 0.01;
    b[i] = static_cast<double>(i % 13) * 0.02;
  }
  const auto& k = tensor::kernels::active_table();
  const auto t0 = Clock::now();
  std::size_t calls = 0;
  do {
    k.gemm_nn(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    ++calls;
  } while (seconds_since(t0) < 1.0);
  if (!std::isfinite(c[0])) throw std::logic_error("gemm probe diverged");
  return 2.0 * static_cast<double>(n * n * n * calls) / seconds_since(t0) /
         1e9;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string git_describe() {
  const std::string root = SPDKFAC_SOURCE_DIR;
  if (::access((root + "/.git").c_str(), F_OK) != 0) return "unknown";
  const std::string cmd =
      "git -C '" + root + "' describe --always --dirty 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  ::pclose(pipe);
  std::string out = got ? buf : "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += util::json_string(metrics[i].name);
    out += ": {\"value\": ";
    out += util::json_number(metrics[i].value);
    out += ", \"unit\": ";
    out += util::json_string(metrics[i].unit);
    out += "}";
  }
  return out + "}";
}

std::string json_workload(const WorkloadResult& r) {
  const Workload& w = *r.workload;
  const bool topk = w.grad_codec == comm::Codec::kTopK;
  std::string out = "    {\"name\": ";
  out += util::json_string(w.name);
  out += ",\n     \"config\": {\"model\": ";
  out += util::json_string(w.cnn ? "small_cnn(3,16,16,32,10)" : "mlp");
  out += ", \"layers\": ";
  out += util::json_number(static_cast<double>(w.cnn ? 3 : w.widths.size() - 1));
  out += ", \"strategy\": ";
  out += util::json_string(core::to_string(w.strategy));
  out += ", \"hooked\": ";
  out += w.hooked ? "true" : "false";
  out += ", \"transport\": ";
  out += util::json_string(comm::to_string(w.transport));
  out += ", \"factor_codec\": \"none\", \"grad_codec\": ";
  out += util::json_string(comm::to_string(w.grad_codec));
  out += ", \"topk_ratio\": ";
  out += util::json_number(topk ? 0.1 : 0.0);
  out += ", \"profile\": ";
  out += util::json_string(w.fixed_profile ? "fixed" : "live");
  out += ", \"lr\": ";
  out += util::json_number(w.lr);
  out += ", \"warmup_steps\": ";
  out += util::json_number(kWarmupSteps);
  out += ", \"timed_steps\": ";
  out += util::json_number(w.timed_steps);
  out += "},\n     \"reps\": ";
  out += util::json_number(r.reps);
  out += ", \"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": ";
  out += util::json_number(r.attempted);
  out += ", \"failed\": ";
  out += util::json_number(r.failed);
  out += ", \"first_loss\": ";
  out += util::json_number(r.first_loss);
  out += ", \"final_loss\": ";
  out += util::json_number(r.final_loss);
  out += ",\n     \"loss_fingerprints\": [";
  for (std::size_t i = 0; i < r.fingerprints.size(); ++i) {
    out += (i == 0 ? "" : ", ") + util::json_string(r.fingerprints[i]);
  }
  out += "],\n     \"metrics\": ";
  out += json_metrics(r.metrics);
  out += ",\n     \"rep_metrics\": [";
  for (std::size_t i = 0; i < r.rep_metrics.size(); ++i) {
    out += i == 0 ? "\n       {" : ",\n       {";
    bool first = true;
    for (const auto& [name, value] : r.rep_metrics[i]) {
      out += first ? "" : ", ";
      first = false;
      out += util::json_string(name) + ": " + util::json_number(value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "spdkfac_bench: %s\nusage: spdkfac_bench [--workload "
               "NAME|all] [--seed N] [--seconds S] [--trace] [--out PATH]\n"
               "workloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "all", out_path = "BENCH_e2e.json";
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = true;
      } else if (arg == "--out") {
        out_path = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : workloads()) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) usage(("unknown workload " + workload).c_str());

  // Workloads run in forked children, so this process stays
  // single-threaded until they are all done.
  std::vector<WorkloadResult> results;
  bool correct = true;
  for (const Workload* w : selected) {
    results.push_back(run_workload(*w, seed, seconds, trace));
    const WorkloadResult& r = results.back();
    correct = correct && r.correct;
    std::printf("%s: %d reps, %s, %.0f/%.0f steps failed\n", w->name, r.reps,
                r.correct ? "correct" : "INCORRECT", r.failed, r.attempted);
    for (const Metric& m : r.metrics) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  const double gflops = gemm_probe_gflops();
  std::string doc = "{\n  \"bench\": \"e2e\",\n  \"header\": {\"nproc\": ";
  doc += util::json_number(static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  doc += ", \"cpu\": " + util::json_string(cpu_model());
  doc += ", \"isa\": ";
  doc += util::json_string(
      tensor::kernels::to_string(tensor::kernels::active()));
  doc += ", \"gemm_gflops\": " + util::json_number(gflops);
  doc += ", \"git\": " + util::json_string(git_describe());
  doc += ", \"world\": " + util::json_number(kWorld);
  doc += ", \"pool_size\": " + util::json_number(kPoolSize);
  doc += ", \"batch\": " + util::json_number(kBatch);
  doc += ", \"noise\": " + util::json_number(kNoise);
  doc += ", \"damping\": " + util::json_number(kDamping);
  doc += ", \"seed\": " + util::json_number(static_cast<double>(seed));
  doc += ", \"seconds\": " + util::json_number(seconds);
  doc += ", \"trace\": ";
  doc += trace ? "true" : "false";
  doc += "},\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    doc += (i == 0 ? "" : ",\n") + json_workload(results[i]);
  }
  doc += "\n  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  const bool written =
      f != nullptr && std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "spdkfac_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("gemm probe %.2f GFLOP/s; wrote %s\n", gflops, out_path.c_str());
  return correct ? 0 : 1;
}
