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
// up only there.  The inverse rows time damped_cholesky_into, the
// InverseComp task, with a warm output (the optimizer's steady state,
// which touches no new memory) beside fresh storage, both on the calling
// thread and under the pool, at the orders the e2e workloads factorize.
// The update rows time the Eq. 13 update G^-1 dW A^-1 at the e2e layer
// shapes both ways: the solve pair the runtime runs (solve_right, then
// solve_left, on a copy of dW) beside the two dense GEMMs with explicit
// inverses that it replaces — kernel evidence only, as a step-time claim
// needs bench/e2e.  The layer rows time single GEMM calls at the small
// CNN's conv shapes and at the MLPs' Eq. 13 update and Linear forward
// shapes.  Every row is the best of five self-calibrated samples.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "exec/context.hpp"
#include "exec/grain.hpp"
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

/// Best of `samples` time_call() samples.  Every row reports one: on a
/// shared host a single sample can read half the kernel's real speed, and
/// the pooled rows also share the host with the pool's workers.
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
  s.seconds = best_time_call([&] {
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
  s.seconds = best_time_call([&] {
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
  s.seconds = best_time_call([&] { sink += kt.dot(x.data(), y.data(), n); });
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
      best_time_call([&] { kt.ema(state.data(), fresh.data(), n, 0.95); });
  return s;
}

KernelSample bench_factorize(std::size_t d) {
  // Routed through linalg (blocked Cholesky, then the diagonal-block
  // inverses), which takes its GEMMs and dots from the *active* table —
  // force() selects it.
  tensor::Rng rng(5);
  const tensor::Matrix a = tensor::random_spd(d, rng);
  KernelSample s;
  s.flops = tensor::spd_inverse_flops(d);
  tensor::Matrix f;
  s.seconds = best_time_call([&] { tensor::damped_cholesky_into(a, 0.0, f); });
  return s;
}

KernelSample bench_transpose(const kernels::KernelTable& kt, std::size_t d) {
  tensor::Rng rng(6);
  const auto in = random_vec(d * d, rng);
  std::vector<double> out(d * d);
  KernelSample s;
  s.flops = static_cast<double>(d) * d;  // elements moved (not real flops)
  s.seconds = best_time_call(
      [&] { kt.transpose(in.data(), d, d, d, out.data(), d); });
  return s;
}

/// One layer-shaped GEMM call, C (rows x N) += op(A) op(B) over K: gemm_nn
/// (A rows x K, B K x N), gemm_tn (A K x rows, B K x N) or gemm_nt (A rows x
/// K, B N x K).
struct LayerGemm {
  const char* kernel;
  std::size_t rows, K, N;
  const char* use;
};

KernelSample bench_layer_gemm(const kernels::KernelTable& kt,
                              const LayerGemm& g) {
  tensor::Rng rng(10);
  const std::string kernel = g.kernel;
  const auto gemm = kernel == "gemm_nn"   ? kt.gemm_nn
                    : kernel == "gemm_tn" ? kt.gemm_tn
                                          : kt.gemm_nt;
  const std::size_t lda = kernel == "gemm_tn" ? g.rows : g.K;
  const std::size_t ldb = kernel == "gemm_nt" ? g.K : g.N;
  const auto a = random_vec(g.rows * g.K, rng);
  const auto b = random_vec(g.K * g.N, rng);
  auto c = random_vec(g.rows * g.N, rng);
  KernelSample s;
  s.flops = 2.0 * static_cast<double>(g.rows) * g.K * g.N;
  s.seconds = best_time_call([&] {
    gemm(g.rows, g.K, g.N, a.data(), lda, b.data(), ldb, c.data(), g.N);
  });
  return s;
}

/// One operation under `pool`, next to the same shape on the calling thread
/// alone: tensor::matmul (or matmul_tn) beside one whole-matrix kernel
/// call, or an inverse beside itself.
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

/// One d x d damped_cholesky_into, on the calling thread and under
/// `pool`: into fresh storage every call, or into storage kept across
/// calls (time_call's warm-up call sizes it).
PooledSample bench_inverse(std::size_t d, bool warm, exec::ThreadPool& pool) {
  tensor::Rng rng(5);
  const tensor::Matrix a = tensor::random_spd(d, rng);
  PooledSample s;
  s.single.flops = s.pooled.flops = tensor::spd_inverse_flops(d);
  tensor::Matrix f;
  const auto call = [&] {
    if (!warm) f = tensor::Matrix();
    tensor::damped_cholesky_into(a, 0.0, f);
  };
  s.single.seconds = best_time_call(call);
  exec::Context ctx(&pool);
  s.pooled.seconds = best_time_call(call);
  return s;
}

/// C = A * B into preallocated rows of C (B and C row-major, n wide), the
/// way the update multiplied by explicit inverses: 4-row shape-only chunks
/// of gemm_nn under the ambient pool, as tensor::matmul chunks them.
void matmul_into(const tensor::Matrix& a, const double* b, std::size_t n,
                 double* c) {
  const auto& kt = kernels::active_table();
  const std::size_t k = a.cols();
  const std::size_t rows = (exec::grain_for_ops(k * n) + 3) / 4 * 4;
  exec::parallel_for(a.rows(), rows, [&](std::size_t r0, std::size_t r1) {
    std::fill(c + r0 * n, c + r1 * n, 0.0);
    kt.gemm_nn(r1 - r0, k, n, a.row_ptr(r0), k, b, n, c + r0 * n, n);
  });
}

/// The Eq. 13 update of one m x n layer gradient (A of order n, G of
/// order m), on the calling thread and under `pool`: the runtime's solve
/// pair on a copy of dW, or the two GEMMs dW A^-1 and G^-1 (dW A^-1) with
/// explicit inverses.  Both count the GEMM pair's flops, so the GFLOP/s
/// columns compare wall time.
struct UpdateSample {
  PooledSample solves, gemms;
};

UpdateSample bench_update(std::size_t m, std::size_t n,
                          exec::ThreadPool& pool) {
  tensor::Rng rng(11);
  const tensor::Matrix a = tensor::random_spd(n, rng);
  const tensor::Matrix g = tensor::random_spd(m, rng);
  const tensor::Matrix grad = tensor::random_normal(m, n, rng);
  tensor::Matrix fa, fg;
  tensor::damped_cholesky_into(a, 0.1, fa);
  tensor::damped_cholesky_into(g, 0.1, fg);
  tensor::Matrix delta(m, n), product(m, n);
  const auto solves = [&] {
    delta = grad;
    tensor::solve_right(fa, delta.data());
    tensor::solve_left(fg, delta.data());
  };
  const auto gemms = [&] {
    matmul_into(grad, a.row_ptr(0), n, product.row_ptr(0));
    matmul_into(g, product.row_ptr(0), n, delta.row_ptr(0));
  };
  UpdateSample s;
  const double flops = 2.0 * static_cast<double>(m) * n * (n + m);
  for (PooledSample* p : {&s.solves, &s.gemms}) {
    p->single.flops = p->pooled.flops = flops;
  }
  s.solves.single.seconds = best_time_call(solves);
  s.gemms.single.seconds = best_time_call(gemms);
  exec::Context ctx(&pool);
  s.solves.pooled.seconds = best_time_call(solves);
  s.gemms.pooled.seconds = best_time_call(gemms);
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
  bench::Table inverse_share(
      {"d", "ISA", "damped_cholesky / gemm_nn GFLOP/s"});
  // 384x385x385 is the wide MLP's update (dW * A^-1); 2048x145 is the
  // small CNN's conv2 A factor (im2col rows x patch width).
  exec::ThreadPool pool(2);
  bench::Table pooled({"Pooled product", "shape", "ISA", "GFLOP/s", "us/call",
                       "2x 1-thread kernel GFLOP/s", "share"});
  bench::Table inverses({"Inverse", "storage", "d", "ISA", "workers",
                         "GFLOP/s", "us/call"});
  // The Eq. 13 update shapes (d_out x d_in, bias column included): the
  // small CNN's fc and conv2 layers, the deep MLP's 128->128 and the wide
  // MLP's 384->384.
  const std::pair<std::size_t, std::size_t> update_shapes[] = {
      {10, 513}, {32, 145}, {128, 129}, {384, 385}};
  bench::Table updates({"Update", "m x n", "ISA", "workers", "GFLOP/s",
                        "us/call"});
  // The small CNN's layer GEMMs at batch 32 (conv1 3->16 channels on
  // 16x16, conv2 16->32 on 8x8; patch widths 28 and 145 with the bias
  // column): the per-sample forward in both gemm_nt orientations, the
  // weight gradient over the whole batch and the per-sample input-gradient
  // patches, each beside a nearby width with no masked column tail, so
  // the cost of the tail shows.  Then the MLPs' GEMMs: the Eq. 13 update
  // G^-1 dW A^-1 of the wide MLP's 256->384 and 384->384 layers (bias
  // column included), and the Linear forwards at batch 32.
  const LayerGemm layer_gemms[] = {
      {"gemm_nt", 16, 28, 256, "conv1 fwd W P^T"},
      {"gemm_nt", 256, 28, 16, "conv1 fwd P W^T"},
      {"gemm_nt", 32, 145, 64, "conv2 fwd W P^T"},
      {"gemm_nt", 64, 145, 32, "conv2 fwd P W^T"},
      {"gemm_tn", 16, 8192, 28, "conv1 dW"},
      {"gemm_tn", 16, 8192, 24, "conv1 dW, N=24"},
      {"gemm_tn", 32, 2048, 145, "conv2 dW"},
      {"gemm_tn", 32, 2048, 144, "conv2 dW, N=144"},
      {"gemm_nn", 256, 16, 28, "conv1 dP"},
      {"gemm_nn", 256, 16, 24, "conv1 dP, N=24"},
      {"gemm_nn", 64, 32, 145, "conv2 dP"},
      {"gemm_nn", 64, 32, 144, "conv2 dP, N=144"},
      {"gemm_nn", 384, 385, 385, "384->384 update dW A^-1"},
      {"gemm_nn", 384, 384, 385, "384->384 update G^-1 dW"},
      {"gemm_nn", 384, 257, 257, "256->384 update dW A^-1"},
      {"gemm_nn", 384, 384, 257, "256->384 update G^-1 dW"},
      {"gemm_nt", 32, 257, 384, "256->384 Linear fwd"},
      {"gemm_nt", 32, 385, 384, "384->384 Linear fwd"},
      {"gemm_nt", 32, 129, 128, "128->128 Linear fwd"},
  };
  bench::Table layers({"Layer GEMM", "rows x K x N", "use", "ISA", "GFLOP/s",
                       "us/call"});

  // factor+inverse seconds per (size, level) for the headline speedup.
  std::vector<std::vector<double>> hot_path(levels.size());

  for (std::size_t li = 0; li < levels.size(); ++li) {
    const kernels::Isa level = levels[li];
    const kernels::KernelTable& kt = kernels::table(level);
    kernels::force(level);  // the linalg routines read the active table
    const char* isa = kernels::to_string(level);

    for (const std::size_t d : sizes) {
      struct Entry {
        const char* name;
        KernelSample sample;
      };
      const Entry entries[] = {
          {"gemm_nn", bench_gemm_nn(kt, d)},
          {"gemm_tn", bench_gemm_tn(kt, d)},
          {"damped_cholesky", bench_factorize(d)},
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
      // How close the factorization gets to the GEMM it is built from.
      const double share =
          entries[2].sample.gflops() / entries[0].sample.gflops();
      inverse_share.add_row({std::to_string(d), isa,
                             bench::fmt("%.0f%%", 100.0 * share)});
      json.add("damped_cholesky_share_of_gemm_nn/d=" + std::to_string(d) +
                   "/" + isa,
               {{"share", share}});
      // The single-rank factor+inverse hot path: factor GEMM + the damped
      // factorization.
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

    for (const std::size_t d : {std::size_t{385}, std::size_t{513}}) {
      struct Entry {
        const char* name;
        const char* storage;
        PooledSample sample;
      };
      const Entry entries[] = {
          {"damped_cholesky_into", "fresh", bench_inverse(d, false, pool)},
          {"damped_cholesky_into", "warm", bench_inverse(d, true, pool)},
      };
      for (const Entry& e : entries) {
        const std::pair<std::size_t, KernelSample> runs[] = {
            {0, e.sample.single}, {pool.workers(), e.sample.pooled}};
        for (const auto& [workers, k] : runs) {
          inverses.add_row({e.name, e.storage, std::to_string(d), isa,
                            std::to_string(workers),
                            bench::fmt("%.2f", k.gflops()),
                            bench::fmt("%.1f", k.seconds * 1e6)});
          json.add(std::string(e.name) + "/d=" + std::to_string(d) +
                       "/workers=" + std::to_string(workers) + "/" + isa,
                   {{"gflops", k.gflops()}, {"seconds_per_call", k.seconds}});
        }
      }
    }

    for (const auto& [m, n] : update_shapes) {
      const UpdateSample u = bench_update(m, n, pool);
      std::string shape = std::to_string(m);
      shape += 'x';
      shape += std::to_string(n);
      const struct {
        const char* name;
        const char* key;
        const PooledSample* sample;
      } ways[] = {
          {"solve_right + solve_left", "update_solves", &u.solves},
          {"matmul x2 (explicit inverses)", "update_gemms", &u.gemms}};
      for (const auto& w : ways) {
        const std::pair<std::size_t, KernelSample> runs[] = {
            {0, w.sample->single}, {pool.workers(), w.sample->pooled}};
        for (const auto& [workers, k] : runs) {
          updates.add_row({w.name, shape, isa, std::to_string(workers),
                           bench::fmt("%.2f", k.gflops()),
                           bench::fmt("%.1f", k.seconds * 1e6)});
          json.add(std::string(w.key) + "/" + shape + "/workers=" +
                       std::to_string(workers) + "/" + isa,
                   {{"gflops", k.gflops()}, {"seconds_per_call", k.seconds}});
        }
      }
    }

    for (const LayerGemm& g : layer_gemms) {
      const KernelSample k = bench_layer_gemm(kt, g);
      std::string shape = std::to_string(g.rows);
      shape += 'x';
      shape += std::to_string(g.K);
      shape += 'x';
      shape += std::to_string(g.N);
      layers.add_row({g.kernel, shape, g.use, isa,
                      bench::fmt("%.2f", k.gflops()),
                      bench::fmt("%.1f", k.seconds * 1e6)});
      json.add(std::string("layer_") + g.kernel + "/" + shape + "/" + isa,
               {{"gflops", k.gflops()}, {"seconds_per_call", k.seconds}});
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
  std::printf("\nInverse storage (workers 0 = calling thread only):\n");
  inverses.print();
  std::printf(
      "\nEq. 13 update, solves vs explicit-inverse GEMMs (kernel evidence "
      "only; GFLOP/s counts the GEMM pair's flops):\n");
  updates.print();
  std::printf("\nLayer GEMMs (one call, calling thread):\n");
  layers.print();

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
