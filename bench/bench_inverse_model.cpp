// Fig. 8 — computation-time model of the damped SPD inverse.
//
// The paper benchmarks cuSolver Cholesky inverses for d in [64, 8192] on an
// RTX2080Ti and fits Eq. (26): t = alpha_inv * exp(beta_inv * d) with
// alpha_inv = 3.64e-3, beta_inv = 4.77e-4.  We reproduce the workflow on
// this CPU: measure the runtime's InverseComp task over a dimension sweep
// (perf::measure_inverse_times: the damped Cholesky factorization, since
// the update solves with the factor instead of an explicit inverse), fit
// the same exponential, and report measured vs fitted.  The paper's
// published curve and the simulator's cubic task-pricing law are printed
// alongside.
#include "bench_util.hpp"
#include "perf/measure.hpp"
#include "perf/models.hpp"

int main() {
  using namespace spdkfac;
  bench::print_header("Fig. 8", "Inverse computation time model");

  const std::vector<std::size_t> dims{32, 64, 96, 128, 192, 256, 384};
  const auto samples = perf::measure_inverse_times(dims, /*runs=*/2,
                                                   /*warmup=*/1);
  const perf::InverseModel fitted = perf::fit_inverse_model(samples);

  std::printf(
      "\n[Local CPU] measured damped factorizations and Eq. (26) fit:\n");
  std::printf("  fitted alpha_inv = %.3e s, beta_inv = %.3e /dim\n",
              fitted.alpha, fitted.beta);
  bench::Table local({"dim", "measured (ms)", "fitted (ms)"});
  for (const auto& s : samples) {
    local.add_row({bench::fmt("%.0f", s.x), bench::millis(s.seconds),
                   bench::millis(fitted.time(
                       static_cast<std::size_t>(s.x)))});
  }
  local.print();

  const auto paper_exp = perf::ClusterCalibration::fig8_inverse_model();
  const auto& cal = bench::cal64();
  std::printf(
      "\n[Paper] RTX2080Ti fit: alpha_inv = 3.64e-3, beta_inv = 4.77e-4\n"
      "vs the simulator's cubic law (matched to the same d = 8192 endpoint;\n"
      "the exponential's 3.64 ms floor over-prices small tensors — the\n"
      "paper's own 292 ms ResNet-50 total is below 108 x 3.64 ms):\n");
  bench::Table table({"dim", "Eq.(26) exp (ms)", "cubic law (ms)"});
  for (std::size_t d = 64; d <= 8192; d *= 2) {
    table.add_row({std::to_string(d), bench::millis(paper_exp.time(d)),
                   bench::millis(cal.inverse.time(d))});
  }
  table.print();
  std::printf("\nShape check: ~175 ms at d = 8192 on the paper's GPU.\n");
  return 0;
}
