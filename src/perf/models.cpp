#include "perf/models.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace spdkfac::perf {

double ExpModel::operator()(double x) const noexcept {
  return alpha * std::exp(beta * x);
}

LinearModel fit_linear(std::span<const double> xs,
                       std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    throw std::invalid_argument("fit_linear: need >= 2 matching samples");
  }
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    throw std::invalid_argument("fit_linear: degenerate x samples");
  }
  LinearModel m;
  m.beta = (n * sxy - sx * sy) / denom;
  m.alpha = (sy - m.beta * sx) / n;
  return m;
}

ExpModel fit_exponential(std::span<const double> xs,
                         std::span<const double> ys) {
  std::vector<double> logy(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    if (ys[i] <= 0.0) {
      throw std::invalid_argument("fit_exponential: ys must be positive");
    }
    logy[i] = std::log(ys[i]);
  }
  const LinearModel lin = fit_linear(xs, logy);
  return ExpModel{std::exp(lin.alpha), lin.beta};
}

double r_squared(std::span<const double> predicted,
                 std::span<const double> observed) {
  if (predicted.size() != observed.size() || observed.empty()) {
    throw std::invalid_argument("r_squared: size mismatch");
  }
  double mean = 0.0;
  for (double y : observed) mean += y;
  mean /= static_cast<double>(observed.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    ss_res += (observed[i] - predicted[i]) * (observed[i] - predicted[i]);
    ss_tot += (observed[i] - mean) * (observed[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double InverseModel::time(std::size_t d) const noexcept {
  const double x = static_cast<double>(d);
  switch (form) {
    case Form::kExponential:
      return alpha * std::exp(beta * x);
    case Form::kCubic:
      return alpha + beta * x * x * x;
  }
  return 0.0;
}

ClusterCalibration ClusterCalibration::paper_rtx2080ti_64gpu() {
  ClusterCalibration cal;
  cal.name = "paper-rtx2080ti-64gpu-100GbIB";
  cal.world_size = 64;
  cal.allreduce.model = LinearModel{1.22e-2, 1.45e-9};
  cal.broadcast.model = LinearModel{1.59e-2, 7.85e-10};
  // Small-message broadcast startup ~0.45 ms (NCCL-scale) and half the
  // per-element large-message cost (tree overlap); see the field comment.
  cal.bcast_fabric.model = LinearModel{4.5e-4, 3.9e-10};
  // Cubic Cholesky law with a 0.15 ms launch floor, matching Fig. 8's
  // endpoint: 1.5e-4 + 3.2e-13 * 8192^3 = 0.176 s.
  cal.inverse = InverseModel::cubic(1.5e-4, 3.2e-13);
  // Effective throughputs chosen so the simulated single-GPU breakdown of
  // ResNet-50 (batch 32) reproduces Fig. 2: FF&BP ~0.20 s, FactorComp
  // ~0.26 s, InverseComp ~0.29 s (the last follows from the inverse model
  // alone).  See bench_breakdown and EXPERIMENTS.md.
  cal.compute = ComputeModel{};
  return cal;
}

ClusterCalibration ClusterCalibration::paper_fabric(int world_size) {
  if (world_size < 1) {
    throw std::invalid_argument("paper_fabric: world_size must be >= 1");
  }
  ClusterCalibration cal = paper_rtx2080ti_64gpu();
  cal.world_size = world_size;
  if (world_size == 1) {
    // No communication on a single device.
    cal.allreduce.model = LinearModel{0.0, 0.0};
    cal.broadcast.model = LinearModel{0.0, 0.0};
    cal.bcast_fabric.model = LinearModel{0.0, 0.0};
    cal.name = "paper-rtx2080ti-1gpu";
    return cal;
  }
  // Ring all-reduce moves 2(P-1)/P elements per slot and pays a startup
  // latency roughly linear in P; rescale the P = 64 fit accordingly.
  const double p = static_cast<double>(world_size);
  const double ring_ratio = (2.0 * (p - 1.0) / p) / (2.0 * 63.0 / 64.0);
  const double startup_ratio = p / 64.0;
  cal.allreduce.model.alpha *= startup_ratio;
  cal.allreduce.model.beta *= ring_ratio;
  // Binomial broadcast depth is log2(P).
  const double depth_ratio = std::log2(p) / std::log2(64.0);
  cal.broadcast.model.alpha *= depth_ratio;
  cal.bcast_fabric.model.alpha *= depth_ratio;
  cal.bcast_fabric.model.beta *= depth_ratio;
  cal.name = "paper-fabric-" + std::to_string(world_size) + "gpu";
  return cal;
}

ClusterCalibration ClusterCalibration::for_topology(const comm::Topology& topo) {
  const int world = topo.world_size();
  if (world < 1) {
    throw std::invalid_argument("for_topology: world_size must be >= 1");
  }
  ClusterCalibration cal = paper_fabric(world);
  cal.topology = topo;
  cal.collectives = comm::AlgorithmSelector(topo);
  cal.topology_aware = true;
  cal.allreduce.model = cal.collectives.term(comm::AllReduceAlgo::kRing);
  cal.name = "topo-" + std::to_string(topo.nodes) + "x" +
             std::to_string(topo.gpus_per_node);
  return cal;
}

comm::AlgorithmSelector ClusterCalibration::effective_selector() const {
  if (topology_aware) return collectives;
  comm::Topology t = comm::Topology::flat(std::max(world_size, 1));
  if (world_size > 1) {
    // Invert the ring closed form so the derived selector's ring term
    // reproduces this calibration's fitted Eq. (14) constants.
    const double p = static_cast<double>(world_size);
    t.inter.alpha = allreduce.model.alpha / (2.0 * (p - 1.0));
    t.inter.beta = allreduce.model.beta * p / (2.0 * (p - 1.0));
  }
  return comm::AlgorithmSelector(t);
}

std::size_t ct_nct_crossover_dim(const InverseModel& inv,
                                 const BroadcastModel& bcast,
                                 std::size_t d_max) {
  // t_inv grows exponentially while t_bcast grows quadratically, so below
  // the crossover the inverse is cheaper than shipping the result.  Scan is
  // O(d_max) and runs once at startup, matching Algorithm 1's spirit.
  std::size_t crossover = 0;
  for (std::size_t d = 1; d <= d_max; ++d) {
    if (inv.time(d) < bcast.time_dim(d)) {
      crossover = d;
    }
  }
  return crossover;
}

}  // namespace spdkfac::perf
