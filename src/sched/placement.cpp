#include "sched/placement.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace spdkfac::sched {

std::size_t Placement::num_ncts() const noexcept {
  std::size_t n = 0;
  for (const auto& a : assignments) n += a.nct ? 1 : 0;
  return n;
}

std::size_t Placement::num_cts() const noexcept {
  return assignments.size() - num_ncts();
}

bool Placement::valid(std::size_t num_tensors) const noexcept {
  if (assignments.size() != num_tensors) return false;
  std::vector<int> seen(num_tensors, 0);
  for (const auto& a : assignments) {
    if (a.tensor >= num_tensors) return false;
    ++seen[a.tensor];
    if (a.nct && a.owner != -1) return false;
    if (!a.nct && (a.owner < 0 || a.owner >= world_size)) return false;
  }
  for (int s : seen) {
    if (s != 1) return false;
  }
  // Each CT must appear in exactly its owner's worklist.
  std::vector<int> listed(num_tensors, 0);
  for (int p = 0; p < world_size; ++p) {
    for (std::size_t t : per_gpu[p]) {
      if (t >= num_tensors) return false;
      if (assignments[t].owner != p) return false;
      ++listed[t];
    }
  }
  for (std::size_t t = 0; t < num_tensors; ++t) {
    if (assignments[t].nct ? listed[t] != 0 : listed[t] != 1) return false;
  }
  return true;
}

double precondition_time(const perf::InverseModel& inverse, std::size_t d_in,
                         std::size_t d_out) noexcept {
  return inverse.cube_time(static_cast<double>(d_out) *
                           static_cast<double>(d_in) *
                           static_cast<double>(d_in + d_out));
}

namespace {

/// Algorithm 1.  Without `layer_granular` it is the paper's
/// tensor-granular LBP; with it, layers are placed whole where that pays
/// (see lbp_layer_place).
Placement algorithm1(std::span<const std::size_t> dims, int world_size,
                     const perf::InverseModel& inverse,
                     const perf::BroadcastModel& broadcast,
                     bool layer_granular, BalanceMetric metric) {
  if (world_size < 1) {
    throw std::invalid_argument("lbp_place: world_size must be >= 1");
  }
  Placement placement;
  placement.policy = layer_granular ? "Layer-LBP" : "LBP";
  placement.world_size = world_size;
  placement.assignments.resize(dims.size());
  placement.per_gpu.assign(world_size, {});

  // Line 3: traverse tensors in descending dimension order (largest first),
  // so the heaviest workloads are spread before the buckets fill up.
  std::vector<std::size_t> order(dims.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return dims[a] > dims[b];
  });

  const auto balance_weight = [metric](std::size_t d, double t_comp,
                                       double t_comm) {
    switch (metric) {
      case BalanceMetric::kDim:
        return static_cast<double>(d);
      case BalanceMetric::kDimSquared:
        return static_cast<double>(d) * static_cast<double>(d);
      case BalanceMetric::kEstimatedTime:
        return t_comp + t_comm;
    }
    return 0.0;
  };

  // Which layers to own, and what one weighs in its owner's bucket.
  std::vector<double> layer_weight;  // per layer; < 0: not owned
  if (layer_granular) {
    const std::size_t layers = dims.size() / 2;
    placement.layer_owner.assign(layers, -1);
    layer_weight.assign(layers, -1.0);
    const double others = static_cast<double>(world_size - 1) /
                          static_cast<double>(world_size);
    for (std::size_t l = 0; l < layers && world_size > 1; ++l) {
      const std::size_t d_in = dims[2 * l], d_out = dims[2 * l + 1];
      double replaced = 0.0;  // the CT broadcasts ΔW stands in for
      for (const std::size_t d : {d_in, d_out}) {
        const double t_comm = broadcast.time_dim(d);
        if (inverse.time(d) >= t_comm) replaced += t_comm;
      }
      const double update = precondition_time(inverse, d_in, d_out);
      const double shipped = broadcast.time_elements(d_out * d_in);
      if (replaced + others * update <= shipped) continue;
      layer_weight[l] =
          metric == BalanceMetric::kEstimatedTime
              ? inverse.time(d_in) + inverse.time(d_out) + update + shipped
              : balance_weight(d_in, 0.0, 0.0) + balance_weight(d_out, 0.0, 0.0);
    }
  }

  std::vector<double> bucket(world_size, 0.0);
  const auto least_loaded = [&bucket] {
    return static_cast<int>(std::min_element(bucket.begin(), bucket.end()) -
                            bucket.begin());
  };
  for (std::size_t t : order) {
    const std::size_t d = dims[t];
    TensorAssignment& a = placement.assignments[t];
    a.tensor = t;
    a.dim = d;

    if (!layer_weight.empty() && layer_weight[t / 2] >= 0.0) {
      // An owned layer: its first tensor places the whole layer.
      int& owner = placement.layer_owner[t / 2];
      if (owner < 0) {
        owner = least_loaded();
        bucket[owner] += layer_weight[t / 2];
      }
      a.nct = false;
      a.owner = owner;
      placement.per_gpu[owner].push_back(t);
      continue;
    }

    const double t_comp = inverse.time(d);
    const double t_comm = broadcast.time_dim(d);
    const double weight = balance_weight(d, t_comp, t_comm);
    if (t_comp < t_comm || world_size == 1) {
      // Lines 8-10: cheaper to invert everywhere than to ship the result.
      a.nct = true;
      a.owner = -1;
      const double comp_weight =
          metric == BalanceMetric::kEstimatedTime ? t_comp : weight;
      for (double& b : bucket) b += comp_weight;
    } else {
      // Lines 11-13: give the tensor to the least-loaded GPU.
      const int p = least_loaded();
      a.nct = false;
      a.owner = p;
      placement.per_gpu[p].push_back(t);
      bucket[p] += weight;
    }
  }
  return placement;
}

}  // namespace

Placement lbp_place(std::span<const std::size_t> dims, int world_size,
                    const perf::InverseModel& inverse,
                    const perf::BroadcastModel& broadcast,
                    BalanceMetric metric) {
  return algorithm1(dims, world_size, inverse, broadcast,
                    /*layer_granular=*/false, metric);
}

Placement lbp_layer_place(std::span<const std::size_t> dims, int world_size,
                          const perf::InverseModel& inverse,
                          const perf::BroadcastModel& broadcast,
                          BalanceMetric metric) {
  if (dims.size() % 2 != 0 || world_size < 1) {
    throw std::invalid_argument(
        "lbp_layer_place: dims must hold an (A, G) pair per layer and "
        "world_size must be >= 1");
  }
  return algorithm1(dims, world_size, inverse, broadcast,
                    /*layer_granular=*/true, metric);
}

Placement seq_place(std::span<const std::size_t> dims, int world_size) {
  if (world_size < 1) {
    throw std::invalid_argument("seq_place: world_size must be >= 1");
  }
  Placement placement;
  placement.policy = "Seq-Dist";
  placement.world_size = world_size;
  placement.assignments.resize(dims.size());
  placement.per_gpu.assign(world_size, {});
  for (std::size_t t = 0; t < dims.size(); ++t) {
    const int p = static_cast<int>(t % world_size);
    placement.assignments[t] = {t, dims[t], /*nct=*/false, p};
    placement.per_gpu[p].push_back(t);
  }
  return placement;
}

Placement nondist_place(std::span<const std::size_t> dims, int world_size) {
  Placement placement;
  placement.policy = "Non-Dist";
  placement.world_size = world_size;
  placement.assignments.resize(dims.size());
  placement.per_gpu.assign(world_size, {});
  for (std::size_t t = 0; t < dims.size(); ++t) {
    placement.assignments[t] = {t, dims[t], /*nct=*/true, -1};
  }
  return placement;
}

PlacementCost predict_cost(const Placement& placement,
                           std::span<const std::size_t> dims,
                           const perf::InverseModel& inverse,
                           const perf::BroadcastModel& broadcast) {
  PlacementCost cost;
  const int world = placement.world_size;
  cost.per_gpu_seconds.assign(world, 0.0);
  std::vector<double> comp(world, 0.0), comm(world, 0.0);

  double nct_comp = 0.0;
  for (const auto& a : placement.assignments) {
    if (a.nct) nct_comp += inverse.time(a.dim);
  }
  for (int p = 0; p < world; ++p) {
    comp[p] = nct_comp;
    for (std::size_t t : placement.per_gpu[p]) {
      comp[p] += inverse.time(dims[t]);
      if (!placement.owned(t / 2)) comm[p] += broadcast.time_dim(dims[t]);
    }
    cost.per_gpu_seconds[p] = comp[p] + comm[p];
  }
  for (std::size_t l = 0; l < placement.layer_owner.size(); ++l) {
    const int p = placement.layer_owner[l];
    if (p < 0) continue;
    comm[p] += broadcast.time_elements(dims[2 * l] * dims[2 * l + 1]);
    cost.per_gpu_seconds[p] = comp[p] + comm[p];
  }
  const auto it = std::max_element(cost.per_gpu_seconds.begin(),
                                   cost.per_gpu_seconds.end());
  cost.max_seconds = it == cost.per_gpu_seconds.end() ? 0.0 : *it;
  if (it != cost.per_gpu_seconds.end()) {
    const auto p = it - cost.per_gpu_seconds.begin();
    cost.bottleneck_comp = comp[p];
    cost.bottleneck_comm = comm[p];
  }
  return cost;
}

}  // namespace spdkfac::sched
