// Shared helpers for the per-figure benchmark harnesses and the examples:
// console tables, machine-readable BENCH_*.json emission (so the perf
// trajectory is tracked across PRs), the paper-testbed calibrations, and
// the small-CNN distributed-training harness (bench_overlap and the
// examples use the same cluster/model setup).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "perf/models.hpp"
#include "sched/plan.hpp"
#include "tensor/matrix.hpp"
#include "util/json.hpp"

namespace spdkfac::bench {

/// The paper's 64x RTX2080Ti testbed calibration (shared instance — every
/// figure bench prices against the same constants).
inline const perf::ClusterCalibration& cal64() {
  static const perf::ClusterCalibration cal =
      perf::ClusterCalibration::paper_rtx2080ti_64gpu();
  return cal;
}

/// Real distributed training of a small CNN — the shared harness behind
/// bench_overlap and examples/distributed_training.
struct DistTrainConfig {
  int world = 4;
  int steps = 5;
  bool hooked = true;  ///< pass_hooks() in-pass submission (Fig. 6)
  std::size_t in_channels = 1;
  std::size_t image_hw = 12;
  std::size_t conv1 = 8, conv2 = 16;
  std::size_t classes = 5;
  std::size_t batch = 8;
  std::uint64_t init_seed = 99;   ///< shared across ranks => identical replicas
  std::uint64_t data_seed = 3;
  double noise = 0.0;
  /// Every rank's optimizer, including the cluster backend it runs on
  /// (`transport`): in-process threads, or one process per rank over shared
  /// memory / Unix sockets.  The numerics are bitwise identical on every
  /// backend.
  core::DistKfacOptions optimizer;
};

struct DistTrainResult {
  std::vector<tensor::Matrix> rank0_weights;
  double rank0_loss = 0.0;                  ///< last step's cross-entropy
  double rank0_first_loss = 0.0;            ///< first step's
  double wall_seconds = 0.0;                ///< whole run, rank 0
  std::vector<double> step_seconds;         ///< per-step wall, rank 0
  std::size_t broadcast_cts = 0;            ///< CTs of the final placement
  /// Fraction of rank 0's communication busy time that executed while the
  /// forward/backward passes were still running — comm the pipelining hid
  /// behind computation (engine-clock interval accounting).
  double overlap_fraction = 0.0;
  /// Post-codec / pre-codec collective payload bytes of one step's plan
  /// (IterationPlan::wire_bytes / raw_bytes) — equal unless a codec is on.
  std::size_t wire_bytes_per_step = 0;
  std::size_t raw_bytes_per_step = 0;
};

/// Trains on the optimizer's transport through Cluster::launch_collect:
/// rank 0 measures everything itself and ships it back as doubles, so every
/// backend reports the same fields.
inline DistTrainResult dist_train(const DistTrainConfig& cfg) {
  const auto per_rank = comm::Cluster::launch_collect(
      cfg.optimizer.transport, comm::Topology::flat(cfg.world),
      [&cfg](comm::Communicator& comm) {
        tensor::Rng init(cfg.init_seed);
        nn::Sequential model =
            nn::make_small_cnn(cfg.in_channels, cfg.image_hw, cfg.conv1,
                               cfg.conv2, cfg.classes, init);
        auto layers = model.preconditioned_layers();
        core::DistKfacOptimizer optimizer(layers, comm, cfg.optimizer);
        nn::SyntheticClassification data(cfg.classes, cfg.in_channels,
                                         cfg.image_hw, cfg.data_seed,
                                         cfg.noise);
        tensor::Rng shard(100 + comm.rank());
        nn::SoftmaxCrossEntropy loss;

        // Pass windows on the engine clock, so op records (same clock) can
        // be classified as hidden-behind-compute or exposed.
        std::vector<std::pair<double, double>> pass_windows;
        std::vector<double> step_seconds;
        const auto t0 = std::chrono::steady_clock::now();
        double first_loss = 0.0, last_loss = 0.0;
        for (int s = 0; s < cfg.steps; ++s) {
          const auto step_t0 = std::chrono::steady_clock::now();
          nn::Batch batch = data.sample(cfg.batch, shard);
          const double pass_begin = optimizer.engine_now_s();
          const nn::PassHooks hooks =
              cfg.hooked ? optimizer.pass_hooks() : nn::PassHooks{};
          last_loss = loss.forward(model.forward(batch.inputs, hooks),
                                   batch.labels);
          if (s == 0) first_loss = last_loss;
          model.backward(loss.backward(), hooks);
          pass_windows.emplace_back(pass_begin, optimizer.engine_now_s());
          optimizer.step();
          step_seconds.push_back(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     step_t0)
                                     .count());
        }
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

        std::vector<double> out;
        if (comm.rank() != 0) return out;
        double busy = 0.0, hidden = 0.0;
        for (const comm::OpRecord& r : optimizer.comm_records()) {
          busy += r.end_s - r.start_s;
          for (const auto& [b, e] : pass_windows) {
            hidden +=
                std::max(0.0, std::min(r.end_s, e) - std::max(r.start_s, b));
          }
        }
        out.push_back(last_loss);
        out.push_back(first_loss);
        out.push_back(wall);
        out.push_back(static_cast<double>(optimizer.placement().num_cts()));
        out.push_back(busy > 0.0 ? hidden / busy : 0.0);
        out.push_back(static_cast<double>(optimizer.plan().wire_bytes()));
        out.push_back(static_cast<double>(optimizer.plan().raw_bytes()));
        out.push_back(static_cast<double>(step_seconds.size()));
        out.insert(out.end(), step_seconds.begin(), step_seconds.end());
        out.push_back(static_cast<double>(layers.size()));
        for (auto* l : layers) {
          const tensor::Matrix& w = l->weight();
          out.push_back(static_cast<double>(w.rows()));
          out.push_back(static_cast<double>(w.cols()));
          out.insert(out.end(), w.data().begin(), w.data().end());
        }
        return out;
      });

  DistTrainResult result;
  const std::vector<double>& enc = per_rank.at(0);
  std::size_t pos = 0;
  auto next = [&]() { return enc.at(pos++); };
  result.rank0_loss = next();
  result.rank0_first_loss = next();
  result.wall_seconds = next();
  result.broadcast_cts = static_cast<std::size_t>(next());
  result.overlap_fraction = next();
  result.wire_bytes_per_step = static_cast<std::size_t>(next());
  result.raw_bytes_per_step = static_cast<std::size_t>(next());
  const auto n_steps = static_cast<std::size_t>(next());
  for (std::size_t s = 0; s < n_steps; ++s) {
    result.step_seconds.push_back(next());
  }
  const auto n_layers = static_cast<std::size_t>(next());
  for (std::size_t l = 0; l < n_layers; ++l) {
    const auto rows = static_cast<std::size_t>(next());
    const auto cols = static_cast<std::size_t>(next());
    tensor::Matrix w(rows, cols);
    for (double& v : w.data()) v = next();
    result.rank0_weights.push_back(std::move(w));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Per-config summary statistics + BENCH_*.json emission
// ---------------------------------------------------------------------------

struct SampleStats {
  double mean = 0.0, p50 = 0.0, p90 = 0.0;
};

inline SampleStats stats(std::vector<double> samples) {
  SampleStats s;
  if (samples.empty()) return s;
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&samples](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
  };
  s.p50 = quantile(0.5);
  s.p90 = quantile(0.9);
  return s;
}

/// Collects per-config scalar fields and writes BENCH_<name>.json in the
/// working directory — the machine-readable perf record tracked across PRs:
///   {"bench": "<name>", "configs": [{"name": "...", "<field>": v, ...}]}
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void add(const std::string& config,
           std::vector<std::pair<std::string, double>> fields) {
    configs_.emplace_back(config, std::move(fields));
  }

  /// Convenience: the standard iteration-time block.
  void add_timing(const std::string& config, const SampleStats& s,
                  double overlap_fraction,
                  std::vector<std::pair<std::string, double>> extra = {}) {
    std::vector<std::pair<std::string, double>> fields{
        {"mean_s", s.mean},
        {"p50_s", s.p50},
        {"p90_s", s.p90},
        {"overlap_fraction", overlap_fraction}};
    fields.insert(fields.end(), extra.begin(), extra.end());
    add(config, std::move(fields));
  }

  /// Timing block with the per-iteration bytes-on-wire alongside the times,
  /// so compression wins show up in the cross-PR BENCH_*.json trajectory
  /// (wire == raw whenever the config runs lossless).
  void add_timing(const std::string& config, const SampleStats& s,
                  double overlap_fraction, std::size_t wire_bytes_per_iter,
                  std::size_t raw_bytes_per_iter,
                  std::vector<std::pair<std::string, double>> extra = {}) {
    extra.insert(extra.begin(),
                 {{"wire_bytes_per_iter",
                   static_cast<double>(wire_bytes_per_iter)},
                  {"raw_bytes_per_iter",
                   static_cast<double>(raw_bytes_per_iter)}});
    add_timing(config, s, overlap_fraction, std::move(extra));
  }

  /// The document BENCH_<name>.json will hold — strict JSON regardless of
  /// locale (util::format_double is locale-free) and of the field values
  /// (NaN/Inf become null; JSON has no tokens for them).
  std::string to_json() const {
    std::string out = "{\n  \"bench\": " + util::json_string(bench_name_) +
                      ",\n  \"configs\": [";
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      out += (i == 0 ? "" : ",");
      out += "\n    {\"name\": " + util::json_string(configs_[i].first);
      for (const auto& [key, value] : configs_[i].second) {
        out += ", " + util::json_string(key) + ": " + util::json_number(value);
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  /// Writes BENCH_<name>.json; prints the path.  Throws on I/O failure.
  void write() const {
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("BenchJson: cannot open " + path);
    }
    const std::string doc = to_json();
    const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (written != doc.size()) {
      throw std::runtime_error("BenchJson: short write to " + path);
    }
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>>
      configs_;
};

inline void print_header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void print_row_divider(int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Simple fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_cells = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
      }
      std::putchar('\n');
    };
    print_cells(columns_);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    print_row_divider(static_cast<int>(total));
    for (const auto& row : rows_) print_cells(row);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string seconds(double s) { return fmt("%.4f", s); }
inline std::string millis(double s) { return fmt("%.1f", s * 1e3); }
inline std::string mega(double x) { return fmt("%.1f", x / 1e6); }

}  // namespace spdkfac::bench
