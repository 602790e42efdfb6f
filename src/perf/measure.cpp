#include "perf/measure.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "comm/cluster.hpp"
#include "tensor/linalg.hpp"
#include "tensor/random.hpp"

namespace spdkfac::perf {

std::vector<Sample> measure_inverse_times(std::span<const std::size_t> dims,
                                          int runs, int warmup) {
  // One input and one reused output per d, so every timed call is the
  // runtime's InverseComp task, damped_cholesky_into, on storage it already
  // owns.
  struct Case {
    tensor::Matrix spd, out;
  };
  std::vector<Case> cases;
  cases.reserve(dims.size());
  tensor::Rng rng(0x5eed);
  for (std::size_t d : dims) {
    cases.push_back({tensor::random_spd(d, rng, /*jitter=*/0.05), {}});
  }
  const auto run_once = [](Case& c) {
    tensor::damped_cholesky_into(c.spd, 1e-3, c.out);
  };
  for (Case& c : cases) {
    for (int i = 0; i < warmup; ++i) run_once(c);
  }
  // The fastest repetition per d is reported, and repetitions cycle
  // through the dims (as in measure_collective), so one host stall rarely
  // covers every repetition of a d and skews the fitted curve.
  std::vector<double> best(cases.size(), 0.0);
  for (int i = 0; i < runs; ++i) {
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const auto start = std::chrono::steady_clock::now();
      run_once(cases[k]);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      best[k] = i == 0 ? secs : std::min(best[k], secs);
    }
  }
  std::vector<Sample> samples;
  samples.reserve(dims.size());
  for (std::size_t k = 0; k < dims.size(); ++k) {
    samples.push_back({static_cast<double>(dims[k]), best[k]});
  }
  return samples;
}

namespace {

std::vector<Sample> measure_collective(std::span<const std::size_t> sizes,
                                       const comm::Topology& topo, int runs,
                                       int warmup, bool broadcast,
                                       comm::AllReduceAlgo algo) {
  std::vector<double> best(sizes.size(), 0.0);
  comm::Cluster::launch(topo, [&](comm::Communicator& comm) {
    std::vector<double> buf(
        sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end()),
        comm.rank() + 1.0);
    const auto run_once = [&](std::size_t n) {
      const std::span<double> data(buf.data(), n);
      if (broadcast) {
        comm.broadcast(data, 0);
      } else {
        comm.all_reduce(data, comm::ReduceOp::kSum, algo);
      }
    };
    for (std::size_t n : sizes) {
      for (int i = 0; i < warmup; ++i) run_once(n);
    }
    // Each repetition starts from a barrier so all ranks start together and
    // ends at one so every rank has finished; rank 0's wall clock is the
    // sample, and the fastest repetition per size is reported.  Repetitions
    // cycle through the sizes, so one host stall rarely covers every
    // repetition of a size — a stalled sample would skew the fitted slope.
    for (int i = 0; i < runs; ++i) {
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        comm.barrier();
        const auto start = std::chrono::steady_clock::now();
        run_once(sizes[k]);
        comm.barrier();
        if (comm.rank() == 0) {
          const double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
          best[k] = i == 0 ? secs : std::min(best[k], secs);
        }
      }
    }
  });
  std::vector<Sample> samples;
  samples.reserve(sizes.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    samples.push_back({static_cast<double>(sizes[k]), best[k]});
  }
  return samples;
}

}  // namespace

std::vector<Sample> measure_allreduce_times(std::span<const std::size_t> sizes,
                                            int world, int runs, int warmup,
                                            comm::AllReduceAlgo algo) {
  return measure_collective(sizes, comm::Topology::flat(world), runs, warmup,
                            /*broadcast=*/false, algo);
}

std::vector<Sample> measure_allreduce_times(std::span<const std::size_t> sizes,
                                            const comm::Topology& topo,
                                            comm::AllReduceAlgo algo, int runs,
                                            int warmup) {
  return measure_collective(sizes, topo, runs, warmup, /*broadcast=*/false,
                            algo);
}

std::vector<Sample> measure_broadcast_times(std::span<const std::size_t> sizes,
                                            int world, int runs, int warmup) {
  return measure_collective(sizes, comm::Topology::flat(world), runs, warmup,
                            /*broadcast=*/true, comm::AllReduceAlgo::kRing);
}

comm::AlgorithmSelector fit_selector(const comm::Topology& topo,
                                     std::span<const std::size_t> sizes,
                                     int runs, int warmup) {
  comm::AlgorithmSelector selector(topo);
  for (comm::AllReduceAlgo algo : comm::kAllReduceAlgos) {
    if (!selector.available(algo)) continue;
    const auto samples =
        measure_allreduce_times(sizes, topo, algo, runs, warmup);
    const LinearModel fit = fit_comm_model(samples);
    // Noise-dominated small-message samples can drive the OLS intercept
    // (or slope) negative; a negative term would make this algorithm's
    // cost negative and win every selection, so clamp to physical values.
    selector.set_term(algo,
                      {std::max(fit.alpha, 0.0), std::max(fit.beta, 0.0)});
  }
  return selector;
}

InverseModel fit_inverse_model(std::span<const Sample> samples) {
  std::vector<double> xs, ys;
  xs.reserve(samples.size());
  ys.reserve(samples.size());
  for (const Sample& s : samples) {
    xs.push_back(s.x);
    ys.push_back(s.seconds);
  }
  const ExpModel fit = fit_exponential(xs, ys);
  return InverseModel::exponential(fit.alpha, fit.beta);
}

LinearModel fit_comm_model(std::span<const Sample> samples) {
  std::vector<double> xs, ys;
  xs.reserve(samples.size());
  ys.reserve(samples.size());
  for (const Sample& s : samples) {
    xs.push_back(s.x);
    ys.push_back(s.seconds);
  }
  return fit_linear(xs, ys);
}

}  // namespace spdkfac::perf
