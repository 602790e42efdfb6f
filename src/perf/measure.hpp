// Local measurement utilities mirroring the paper's one-time benchmarking
// (Section V-B): time a series of SPD inverses / collectives, then fit the
// Eq. (14)/(26)/(27) models to the measurements.  Used by the Fig. 7 / Fig. 8
// benchmark harnesses to produce "Measured vs. Predicted" series on this
// machine, next to the paper's published constants.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "perf/models.hpp"

namespace spdkfac::perf {

struct Sample {
  double x = 0.0;  ///< dimension or element count
  double seconds = 0.0;
};

/// Measures the runtime's InverseComp task (tensor::damped_cholesky_into,
/// the factored form the update solves with) for each dimension in `dims`
/// on this CPU and returns (d, seconds) samples.  Each sample is the
/// fastest of `runs` repetitions, taken in turns across the dims after
/// `warmup` discarded ones.  This is the CPU analogue of the paper's
/// cuSolver benchmark of Fig. 8.
std::vector<Sample> measure_inverse_times(std::span<const std::size_t> dims,
                                          int runs = 3, int warmup = 1);

/// Measures in-process all-reduce across `world` worker threads for each
/// message size in `sizes` (element counts), using the given algorithm
/// (flat topology; ring by default, matching the seed's behaviour).  Each
/// sample is the fastest of `runs` barrier-separated repetitions, taken in
/// turns across the sizes.
std::vector<Sample> measure_allreduce_times(
    std::span<const std::size_t> sizes, int world, int runs = 3,
    int warmup = 1, comm::AllReduceAlgo algo = comm::AllReduceAlgo::kRing);

/// Measures one algorithm on an in-process cluster shaped as `topo`.
std::vector<Sample> measure_allreduce_times(
    std::span<const std::size_t> sizes, const comm::Topology& topo,
    comm::AllReduceAlgo algo, int runs = 3, int warmup = 1);

/// Measures in-process binomial broadcast (root 0) across `world` workers;
/// each sample is the fastest of `runs` barrier-separated repetitions.
std::vector<Sample> measure_broadcast_times(std::span<const std::size_t> sizes,
                                            int world, int runs = 3,
                                            int warmup = 1);

/// Fits Eq. (26) to inverse samples.
InverseModel fit_inverse_model(std::span<const Sample> samples);

/// Fits Eq. (14) (or Eq. (27) when x is an element count) to comm samples.
LinearModel fit_comm_model(std::span<const Sample> samples);

/// The paper's one-time benchmarking workflow applied to the algorithm
/// library: measures every concrete algorithm on an in-process cluster
/// shaped as `topo` over `sizes`, fits a linear model per algorithm, and
/// returns a selector whose terms are the fitted models — i.e. a selector
/// calibrated to *this machine's* transport instead of the closed-form
/// link constants.
comm::AlgorithmSelector fit_selector(const comm::Topology& topo,
                                     std::span<const std::size_t> sizes,
                                     int runs = 3, int warmup = 1);

}  // namespace spdkfac::perf
