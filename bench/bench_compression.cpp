// Top-k gradient compression (ROADMAP 5(a)): what the codec seam buys,
// measured three ways —
//
//   1. codec throughput: top-k encode/decode GB/s per ISA level, and the
//      top-k error-feedback path at the gradient group shape of the
//      comm-bound socket benchmark workload (199,434 elements, ratio 0.1):
//      encode, fused feedback + encode, dense decode, and the encoded
//      all-reduce's decode-accumulate at P = 2;
//   2. bytes-on-the-wire: the compressed/raw payload ratio, plus the
//      per-iteration gradient wire bytes of real plans;
//   3. end-to-end iteration time: the simulator prices the plan with
//      top-k gradients (WFBP groups re-derived from the compressed wire
//      sizes; factors ship lossless) against the lossless plan, across
//      strategies x P on a bandwidth-bound fabric (the paper's constants
//      with 10x the per-element network cost — a 10GbE-class cluster
//      instead of 100Gb/s InfiniBand — where the kernels' compute speed
//      leaves communication as the dominant term).
//
// Emits BENCH_compression.json; `speedup` is the end-to-end gain of top-k
// gradients over lossless on the bandwidth-bound config.
#include <random>
#include <span>

#include "bench_util.hpp"
#include "comm/cluster.hpp"
#include "comm/codec.hpp"
#include "models/model_spec.hpp"
#include "perf/models.hpp"
#include "sim/iteration.hpp"
#include "tensor/kernels/kernels.hpp"

using namespace spdkfac;

namespace {

constexpr double kTopKRatio = 0.01;  // ship 1% of gradient elements

// -------------------------------------------------------------------------
// 1. Codec throughput per ISA level
// -------------------------------------------------------------------------

/// Best-of-reps microseconds of fn(); prepare() runs untimed before each.
template <class Prepare, class Fn>
double best_us(int reps, Prepare&& prepare, Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    prepare();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

struct Throughput {
  double encode_gbs = 0.0;
  double decode_gbs = 0.0;
};

Throughput codec_throughput(comm::Codec codec, std::size_t n) {
  std::vector<double> src(n);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  for (double& x : src) x = dist(rng);
  std::vector<double> wire(comm::wire_elements(codec, n, kTopKRatio));
  std::vector<double> dst(n);

  // Best of a few repetitions: the steady-state rate, insensitive to one
  // scheduler hiccup.  Throughput counts the *logical* bytes processed
  // (bytes per microsecond / 1e3 = GB/s).
  const auto nothing = [] {};
  const double bytes = static_cast<double>(n) * sizeof(double);
  Throughput t;
  t.encode_gbs = bytes / best_us(5, nothing, [&] {
                   comm::encode(codec, src, wire, kTopKRatio);
                 }) / 1e3;
  t.decode_gbs = bytes / best_us(5, nothing, [&] {
                   comm::decode(codec, wire, dst, kTopKRatio);
                 }) / 1e3;
  return t;
}

struct TopKPathTimes {
  double encode_us = 0.0;
  double feedback_encode_us = 0.0;
  double decode_us = 0.0;
  double all_reduce_p2_us = 0.0;
};

/// The top-k error-feedback path on one gradient group of n elements:
/// normal gradients, residuals a third their size, banked in two uneven
/// spans as the optimizer's arena carves them.
TopKPathTimes topk_path_times(std::size_t n, double ratio) {
  constexpr int kReps = 30;
  std::mt19937_64 rng(7);
  std::normal_distribution<double> dist(0.0, 1e-3);
  std::vector<double> grad(n), residual(n);
  for (double& x : grad) x = dist(rng);
  for (double& x : residual) x = dist(rng) / 3.0;
  const std::size_t w = comm::wire_elements(comm::Codec::kTopK, n, ratio);
  std::vector<double> wire(w), dst(n), payload(n), bank(n);
  const std::span<double> banked(bank);
  const std::vector<std::span<double>> banks = {banked.first(n / 8),
                                                banked.subspan(n / 8)};
  const auto nothing = [] {};

  TopKPathTimes t;
  t.encode_us = best_us(kReps, nothing, [&] {
    comm::encode(comm::Codec::kTopK, grad, wire, ratio);
  });
  t.feedback_encode_us = best_us(
      kReps,
      [&] {
        payload = grad;
        bank = residual;
      },
      [&] { comm::topk_feedback_encode(payload, banks, wire, ratio); });
  t.decode_us = best_us(kReps, nothing, [&] {
    comm::decode(comm::Codec::kTopK, wire, dst, ratio);
  });
  // Both ranks ship the same block; the decode-accumulate over the two
  // gathered blocks is most of what an in-process exchange costs.
  comm::Cluster::launch(2, [&](comm::Communicator& c) {
    std::vector<double> data(n);
    std::vector<double> scratch(comm::all_reduce_scratch_elements(
        comm::Codec::kTopK, n, c.size(), ratio));
    const double us = best_us(
        kReps,
        [&] {
          std::copy(wire.begin(), wire.end(),
                    scratch.begin() + static_cast<std::ptrdiff_t>(
                                          static_cast<std::size_t>(c.rank()) *
                                          w));
        },
        [&] {
          comm::all_reduce_encoded(c, data, comm::Codec::kTopK,
                                   comm::ReduceOp::kAverage, ratio, scratch);
        });
    if (c.rank() == 0) t.all_reduce_p2_us = us;
  });
  return t;
}

// -------------------------------------------------------------------------
// 2 + 3. Plan bytes and end-to-end pricing
// -------------------------------------------------------------------------

/// The paper's fabric constants for P workers with 10x the per-element
/// network cost: the bandwidth-bound regime the compression targets.
perf::ClusterCalibration bandwidth_bound_cal(int world) {
  comm::Topology topo = comm::Topology::flat(world);
  topo.inter.beta *= 10.0;
  return perf::ClusterCalibration::for_topology(topo);
}

sim::AlgorithmConfig compressed(sim::AlgorithmConfig cfg) {
  cfg.name += "+topk";
  cfg.grad_codec = comm::Codec::kTopK;
  cfg.topk_ratio = kTopKRatio;
  return cfg;
}

}  // namespace

int main() {
  bench::print_header("Compression",
                      "Codec throughput, bytes on the wire, and end-to-end "
                      "iteration time vs lossless");
  bench::BenchJson json("compression");

  // --- 1. codec throughput ------------------------------------------------
  {
    constexpr std::size_t kN = std::size_t{1} << 22;  // 32 MiB of doubles
    bench::Table table({"Codec", "ISA", "encode (GB/s)", "decode (GB/s)",
                        "wire ratio"});
    for (auto isa :
         {tensor::kernels::Isa::kScalar, tensor::kernels::Isa::kAvx2}) {
      if (!tensor::kernels::supported(isa)) continue;
      tensor::kernels::force(isa);
      const comm::Codec codec = comm::Codec::kTopK;
      const Throughput t = codec_throughput(codec, kN);
      const double ratio =
          static_cast<double>(kN) /
          static_cast<double>(comm::wire_elements(codec, kN, kTopKRatio));
      table.add_row({to_string(codec), to_string(isa),
                     bench::fmt("%.2f", t.encode_gbs),
                     bench::fmt("%.2f", t.decode_gbs),
                     bench::fmt("%.1fx", ratio)});
      json.add(std::string("codec/") + to_string(codec) + "/" +
                   to_string(isa),
               {{"encode_gbs", t.encode_gbs},
                {"decode_gbs", t.decode_gbs},
                {"wire_reduction", ratio}});
    }
    tensor::kernels::force(tensor::kernels::best_supported());
    table.print();
  }

  // --- 1b. top-k error feedback at the socket workload's shape ------------
  {
    constexpr std::size_t kN = 199434;  // mlp-deep-socket-topk's gradients
    constexpr double kRatio = 0.1;
    const TopKPathTimes t = topk_path_times(kN, kRatio);
    std::printf("\nTop-k error feedback, n = %zu, ratio %.2f (best of 30):\n\n",
                kN, kRatio);
    bench::Table table({"encode (us)", "feedback+encode (us)", "decode (us)",
                        "all-reduce P=2 (us)"});
    table.add_row({bench::fmt("%.1f", t.encode_us),
                   bench::fmt("%.1f", t.feedback_encode_us),
                   bench::fmt("%.1f", t.decode_us),
                   bench::fmt("%.1f", t.all_reduce_p2_us)});
    table.print();
    json.add("topk/socket_shape",
             {{"elements", static_cast<double>(kN)},
              {"ratio", kRatio},
              {"encode_us", t.encode_us},
              {"feedback_encode_us", t.feedback_encode_us},
              {"decode_us", t.decode_us},
              {"all_reduce_p2_us", t.all_reduce_p2_us}});
  }

  // --- 2 + 3. plan bytes and priced iterations ----------------------------
  std::printf("\nEnd-to-end (simulator, 10x-beta fabric; top-k %.0f%% "
              "gradients vs lossless):\n\n", kTopKRatio * 100.0);
  bench::Table table({"Model", "Strategy", "P", "lossless (s)",
                      "compressed (s)", "speedup", "grad bytes",
                      "wire total"});
  for (const auto& spec : {models::vgg16(), models::resnet50()}) {
    for (int world : {8, 16, 32}) {
      const auto cal = bandwidth_bound_cal(world);
      for (const sim::AlgorithmConfig& base :
           {sim::AlgorithmConfig::dkfac(), sim::AlgorithmConfig::mpd_kfac(),
            sim::AlgorithmConfig::spd_kfac()}) {
        const auto lossless =
            simulate_iteration(spec, spec.default_batch, cal, base);
        const auto lossy = simulate_iteration(spec, spec.default_batch, cal,
                                              compressed(base));

        const std::size_t grad_raw =
            lossy.plan.raw_bytes(sched::TaskKind::kGradAllReduce);
        const std::size_t grad_wire =
            lossy.plan.wire_bytes(sched::TaskKind::kGradAllReduce);
        const double grad_ratio =
            grad_wire == 0 ? 1.0
                           : static_cast<double>(grad_raw) /
                                 static_cast<double>(grad_wire);
        const std::size_t raw_bytes = lossy.plan.raw_bytes();
        const std::size_t wire_bytes = lossy.plan.wire_bytes();
        const double speedup = lossless.total / lossy.total;

        const std::string name = spec.name + "/" + base.name + "/P" +
                                 std::to_string(world);
        table.add_row({spec.name, base.name, std::to_string(world),
                       bench::seconds(lossless.total),
                       bench::seconds(lossy.total),
                       bench::fmt("%.2fx", speedup),
                       bench::fmt("%.0fx", grad_ratio),
                       bench::fmt("%.1fx",
                                  static_cast<double>(raw_bytes) /
                                      static_cast<double>(wire_bytes))});
        json.add(name, {{"lossless_s", lossless.total},
                        {"compressed_s", lossy.total},
                        {"speedup", speedup},
                        {"grad_bytes_ratio", grad_ratio},
                        {"wire_bytes_per_iter",
                         static_cast<double>(wire_bytes)},
                        {"raw_bytes_per_iter",
                         static_cast<double>(raw_bytes)}});
      }
    }
  }
  table.print();
  std::printf(
      "\nThe compressed columns price *re-derived* plans: the planner\n"
      "applies the WFBP fusion threshold to the compressed wire sizes, so\n"
      "the gradient groups differ from lossless (golden tests pin this).\n"
      "Top-k cuts gradient bytes ~100x; factors ship lossless.  The\n"
      "end-to-end win is what survives overlap and the alpha terms.\n");
  json.write();
  return 0;
}
