// Microkernel throughput: GFLOP/s for every hot-path kernel at each
// runtime-dispatchable ISA level (scalar vs AVX2/FMA), across the factor
// sizes the optimizer actually sees, plus the buffer arena's
// copies-eliminated accounting from a live 2-rank run.  Emits
// BENCH_kernels.json for cross-PR tracking; the headline acceptance number
// is the factor+inverse speedup of the best level over scalar.
//
// The per-kernel timings are single-threaded (the ambient exec context is
// serial here), so they measure the raw microkernel on whole matrices.
// The pooled rows then time tensor::matmul / matmul_tn, which split their
// output rows into parallel_for chunks, on the e2e update and factor
// shapes under a 2-worker pool, each beside twice the single-thread
// kernel's GFLOP/s on the same shape (perfect 2-worker scaling).  That is
// the path real steps take: a chunking that starves the microkernel shows
// up only there.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "exec/context.hpp"
#include "exec/thread_pool.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/linalg.hpp"
#include "tensor/random.hpp"

using namespace spdkfac;
namespace kernels = tensor::kernels;

namespace {

/// Seconds per call, self-calibrating rep count (>= ~30 ms per sample).
template <typename F>
double time_call(F&& f) {
  f();  // warm-up (and first-touch of every buffer)
  int reps = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) f();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (dt >= 0.03) return dt / static_cast<double>(reps);
    reps = dt <= 1e-6 ? reps * 64 : reps * 4;
  }
}

/// Best of `samples` time_call() samples: the pooled rows share the host
/// with the pool's workers, so one sample is noisier than a serial one.
template <typename F>
double best_time_call(F&& f, int samples = 5) {
  double best = time_call(f);
  for (int i = 1; i < samples; ++i) best = std::min(best, time_call(f));
  return best;
}

struct KernelSample {
  double seconds = 0.0;
  double flops = 0.0;
  double gflops() const { return flops / seconds / 1e9; }
};

std::vector<double> random_vec(std::size_t n, tensor::Rng& rng) {
  std::vector<double> v(n);
  tensor::fill_normal(v, rng);
  return v;
}

KernelSample bench_gemm_nn(const kernels::KernelTable& kt, std::size_t d) {
  tensor::Rng rng(1);
  const auto a = random_vec(d * d, rng);
  const auto b = random_vec(d * d, rng);
  auto c = random_vec(d * d, rng);
  KernelSample s;
  s.flops = 2.0 * static_cast<double>(d) * d * d;
  s.seconds = time_call([&] {
    kt.gemm_nn(d, d, d, a.data(), d, b.data(), d, c.data(), d);
  });
  return s;
}

KernelSample bench_gemm_tn(const kernels::KernelTable& kt, std::size_t d) {
  // The factor construction shape: A^T * A with K activation rows.
  tensor::Rng rng(2);
  const std::size_t K = 64;
  const auto a = random_vec(K * d, rng);
  auto c = random_vec(d * d, rng);
  KernelSample s;
  s.flops = 2.0 * static_cast<double>(K) * d * d;
  s.seconds = time_call([&] {
    kt.gemm_tn(d, K, d, a.data(), d, a.data(), d, c.data(), d);
  });
  return s;
}

KernelSample bench_dot(const kernels::KernelTable& kt, std::size_t n) {
  tensor::Rng rng(3);
  const auto x = random_vec(n, rng);
  const auto y = random_vec(n, rng);
  KernelSample s;
  s.flops = 2.0 * static_cast<double>(n);
  double sink = 0.0;
  s.seconds = time_call([&] { sink += kt.dot(x.data(), y.data(), n); });
  if (sink == 42.0) std::printf("%f", sink);  // defeat dead-code elimination
  return s;
}

KernelSample bench_ema(const kernels::KernelTable& kt, std::size_t n) {
  tensor::Rng rng(4);
  auto state = random_vec(n, rng);
  const auto fresh = random_vec(n, rng);
  KernelSample s;
  s.flops = 3.0 * static_cast<double>(n);  // two muls + add per element
  s.seconds =
      time_call([&] { kt.ema(state.data(), fresh.data(), n, 0.95); });
  return s;
}

KernelSample bench_spd_inverse(std::size_t d) {
  // Routed through linalg (blocked Cholesky, W = L^-1, then W^T W), which
  // takes its GEMMs and dots from the *active* table — force() selects it.
  tensor::Rng rng(5);
  const tensor::Matrix a = tensor::random_spd(d, rng);
  KernelSample s;
  s.flops = tensor::spd_inverse_flops(d);
  tensor::Matrix inv;
  s.seconds = time_call([&] { inv = tensor::spd_inverse(a); });
  return s;
}

KernelSample bench_transpose(const kernels::KernelTable& kt, std::size_t d) {
  tensor::Rng rng(6);
  const auto in = random_vec(d * d, rng);
  std::vector<double> out(d * d);
  KernelSample s;
  s.flops = static_cast<double>(d) * d;  // elements moved (not real flops)
  s.seconds = time_call(
      [&] { kt.transpose(in.data(), d, d, d, out.data(), d); });
  return s;
}

/// One pooled product: tensor::matmul (or matmul_tn) under `pool`, next to
/// the same shape's whole-matrix kernel call on the calling thread alone.
struct PooledSample {
  KernelSample pooled;
  KernelSample single;
};

/// C = A * B with A m x k and B k x n (the preconditioned update's shape).
PooledSample bench_matmul_pooled(const kernels::KernelTable& kt,
                                 std::size_t m, std::size_t k, std::size_t n,
                                 exec::ThreadPool& pool) {
  tensor::Rng rng(8);
  const tensor::Matrix a = tensor::random_normal(m, k, rng);
  const tensor::Matrix b = tensor::random_normal(k, n, rng);
  PooledSample s;
  s.pooled.flops = s.single.flops = 2.0 * static_cast<double>(m) * k * n;
  tensor::Matrix c(m, n);
  s.single.seconds = best_time_call([&] {
    c.set_zero();
    kt.gemm_nn(m, k, n, a.row_ptr(0), k, b.row_ptr(0), n, c.row_ptr(0), n);
  });
  exec::Context ctx(&pool);
  s.pooled.seconds = best_time_call([&] { c = tensor::matmul(a, b); });
  return s;
}

/// C = A^T * A with A rows x d (the Kronecker-factor construction shape).
PooledSample bench_matmul_tn_pooled(const kernels::KernelTable& kt,
                                    std::size_t rows, std::size_t d,
                                    exec::ThreadPool& pool) {
  tensor::Rng rng(9);
  const tensor::Matrix a = tensor::random_normal(rows, d, rng);
  PooledSample s;
  s.pooled.flops = s.single.flops = 2.0 * static_cast<double>(rows) * d * d;
  tensor::Matrix c(d, d);
  s.single.seconds = best_time_call([&] {
    c.set_zero();
    kt.gemm_tn(d, rows, d, a.row_ptr(0), d, a.row_ptr(0), d, c.row_ptr(0), d);
  });
  exec::Context ctx(&pool);
  s.pooled.seconds = best_time_call([&] { c = tensor::matmul_tn(a, a); });
  return s;
}

/// Copies-eliminated accounting from a real 2-rank step (rank 0's arena).
struct ArenaReport {
  double bytes_saved_per_step = 0.0;
  double slab_bytes = 0.0;
};

ArenaReport measure_arena() {
  ArenaReport report;
  comm::Cluster::launch(2, [&](comm::Communicator& comm) {
    tensor::Rng init(7);
    const std::size_t widths[] = {32, 64, 48, 10};
    nn::Sequential model = nn::make_mlp(widths, init);
    auto layers = model.preconditioned_layers();
    core::DistKfacOptions opts;
    opts.lr = 0.05;
    opts.damping = 3e-2;
    core::DistKfacOptimizer optimizer(layers, comm, opts);
    nn::SyntheticClassification data(10, 32, 1, 8);
    tensor::Rng shard(100 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < 3; ++s) {
      auto batch = data.sample(8, shard);
      nn::Tensor4D flat(batch.inputs.n, 32, 1, 1);
      flat.data = batch.inputs.data;
      loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
      optimizer.step();
    }
    if (comm.rank() == 0) {
      report.bytes_saved_per_step =
          static_cast<double>(optimizer.arena_bytes_saved_per_step());
      report.slab_bytes = static_cast<double>(
          optimizer.arena().capacity_doubles() * sizeof(double));
    }
  });
  return report;
}

}  // namespace

int main() {
  bench::print_header("Kernels",
                      "Microkernel GFLOP/s per ISA level + arena savings");

  std::vector<kernels::Isa> levels{kernels::Isa::kScalar};
  if (kernels::supported(kernels::Isa::kAvx2)) {
    levels.push_back(kernels::Isa::kAvx2);
  } else {
    std::printf("note: AVX2+FMA not available; scalar level only\n");
  }

  // 385 and 513 are the factor orders the e2e workloads invert (the wide
  // MLP's hidden A/G factors and the small CNN's fc A factor).
  const std::size_t sizes[] = {64, 128, 256, 385, 513};
  bench::BenchJson json("kernels");
  bench::Table table({"Kernel", "d", "ISA", "GFLOP/s", "us/call"});
  bench::Table inverse_share({"d", "ISA", "spd_inverse / gemm_nn GFLOP/s"});
  // 384x385x385 is the wide MLP's update (dW * A^-1); 2048x145 is the
  // small CNN's conv2 A factor (im2col rows x patch width).
  exec::ThreadPool pool(2);
  bench::Table pooled({"Pooled product", "shape", "ISA", "GFLOP/s", "us/call",
                       "2x 1-thread kernel GFLOP/s", "share"});

  // factor+inverse seconds per (size, level) for the headline speedup.
  std::vector<std::vector<double>> hot_path(levels.size());

  for (std::size_t li = 0; li < levels.size(); ++li) {
    const kernels::Isa level = levels[li];
    const kernels::KernelTable& kt = kernels::table(level);
    kernels::force(level);  // spd_inverse reads the active table
    const char* isa = kernels::to_string(level);

    for (const std::size_t d : sizes) {
      struct Entry {
        const char* name;
        KernelSample sample;
      };
      const Entry entries[] = {
          {"gemm_nn", bench_gemm_nn(kt, d)},
          {"gemm_tn", bench_gemm_tn(kt, d)},
          {"spd_inverse", bench_spd_inverse(d)},
          {"transpose", bench_transpose(kt, d)},
      };
      for (const Entry& e : entries) {
        table.add_row({e.name, std::to_string(d), isa,
                       bench::fmt("%.2f", e.sample.gflops()),
                       bench::fmt("%.1f", e.sample.seconds * 1e6)});
        json.add(std::string(e.name) + "/d=" + std::to_string(d) + "/" + isa,
                 {{"gflops", e.sample.gflops()},
                  {"seconds_per_call", e.sample.seconds}});
      }
      // How close the inverse gets to the GEMM it is built from.
      const double share =
          entries[2].sample.gflops() / entries[0].sample.gflops();
      inverse_share.add_row({std::to_string(d), isa,
                             bench::fmt("%.0f%%", 100.0 * share)});
      json.add("spd_inverse_share_of_gemm_nn/d=" + std::to_string(d) + "/" +
                   isa,
               {{"share", share}});
      // The single-rank factor+inverse hot path: factor GEMM + SPD inverse.
      hot_path[li].push_back(entries[1].sample.seconds +
                             entries[2].sample.seconds);
    }

    {
      struct Entry {
        const char* product;
        const char* shape;
        PooledSample sample;
      };
      const Entry entries[] = {
          {"matmul", "384x385x385",
           bench_matmul_pooled(kt, 384, 385, 385, pool)},
          {"matmul_tn", "2048x145", bench_matmul_tn_pooled(kt, 2048, 145, pool)},
      };
      for (const Entry& e : entries) {
        const double ideal = 2.0 * e.sample.single.gflops();
        const double share = e.sample.pooled.gflops() / ideal;
        pooled.add_row({e.product, e.shape, isa,
                        bench::fmt("%.2f", e.sample.pooled.gflops()),
                        bench::fmt("%.1f", e.sample.pooled.seconds * 1e6),
                        bench::fmt("%.2f", ideal),
                        bench::fmt("%.0f%%", 100.0 * share)});
        json.add(std::string(e.product) + "_pooled/" + e.shape +
                     "/workers=" + std::to_string(pool.workers()) + "/" + isa,
                 {{"gflops", e.sample.pooled.gflops()},
                  {"seconds_per_call", e.sample.pooled.seconds},
                  {"two_x_single_thread_gflops", ideal},
                  {"share_of_two_x_single_thread", share}});
      }
    }

    const KernelSample dot = bench_dot(kt, 16384);
    const KernelSample ema = bench_ema(kt, 128 * 128);
    table.add_row({"dot", "16384", isa, bench::fmt("%.2f", dot.gflops()),
                   bench::fmt("%.1f", dot.seconds * 1e6)});
    table.add_row({"ema", "16384", isa, bench::fmt("%.2f", ema.gflops()),
                   bench::fmt("%.1f", ema.seconds * 1e6)});
    json.add(std::string("dot/n=16384/") + isa,
             {{"gflops", dot.gflops()}, {"seconds_per_call", dot.seconds}});
    json.add(std::string("ema/n=16384/") + isa,
             {{"gflops", ema.gflops()}, {"seconds_per_call", ema.seconds}});
  }
  kernels::force(kernels::best_supported());
  table.print();
  std::printf("\n");
  inverse_share.print();
  std::printf("\n%zu-worker pool:\n", pool.workers());
  pooled.print();

  if (levels.size() > 1) {
    std::printf("\nfactor+inverse speedup (%s over scalar):\n",
                kernels::to_string(levels.back()));
    for (std::size_t si = 0; si < std::size(sizes); ++si) {
      const double speedup = hot_path[0][si] / hot_path.back()[si];
      std::printf("  d=%zu: %.2fx\n", sizes[si], speedup);
      json.add("speedup/factor_inverse/d=" + std::to_string(sizes[si]),
               {{"best_over_scalar", speedup}});
    }
  }

  const ArenaReport arena = measure_arena();
  std::printf("\narena (2 ranks, 4-layer MLP): %.0f bytes/step copies "
              "eliminated, %.0f-byte slab\n",
              arena.bytes_saved_per_step, arena.slab_bytes);
  json.add("arena/world=2",
           {{"copies_eliminated_bytes_per_step", arena.bytes_saved_per_step},
            {"slab_bytes", arena.slab_bytes}});

  json.write();
  return 0;
}
