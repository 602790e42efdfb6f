// Fig. 12 — comparison of inverse-phase placement policies on the simulated
// 64-GPU cluster: Non-Dist (every GPU inverts everything, no communication),
// Seq-Dist (round-robin CTs, the MPD-KFAC scheme of [13,20,22]) and the
// paper's LBP (Algorithm 1 with CT/NCT typing), plus Layer-LBP (Algorithm
// 1 placing whole layers whose owner broadcasts ΔW; the Eq. (13) update it
// also spreads is not priced, like every policy's).  Reports the exposed
// InverseComp / InverseComm breakdown of the inverse phase plus Algorithm
// 1's own Eq. (21) prediction and placement statistics.
#include <algorithm>

#include "bench_util.hpp"
#include "sched/placement.hpp"
#include "models/model_spec.hpp"
#include "perf/models.hpp"
#include "sim/iteration.hpp"

int main() {
  using namespace spdkfac;
  bench::print_header("Fig. 12", "Inverse placement policies, 64 GPUs");

  const auto& cal = bench::cal64();
  const std::vector<std::pair<const char*, sim::InverseMode>> variants{
      {"Non-Dist", sim::InverseMode::kLocalAll},
      {"Seq-Dist", sim::InverseMode::kSeqDist},
      {"LBP", sim::InverseMode::kLBP},
      {"Layer-LBP", sim::InverseMode::kLayerLBP},
  };

  bench::Table table({"Model", "Policy", "InverseComp", "InverseComm", "Sum",
                      "#NCT", "#CT", "#owned"});
  for (const auto& spec : models::paper_models()) {
    for (const auto& [name, mode] : variants) {
      sim::AlgorithmConfig cfg = sim::AlgorithmConfig::dkfac();
      cfg.inverse = mode;
      cfg.name = name;
      const auto res =
          simulate_iteration(spec, spec.default_batch, cal, cfg);
      table.add_row(
          {spec.name, name, bench::seconds(res.breakdown.inverse_comp),
           bench::seconds(res.breakdown.inverse_comm),
           bench::seconds(res.breakdown.inverse_comp +
                          res.breakdown.inverse_comm),
           std::to_string(res.placement.num_ncts()),
           std::to_string(res.placement.num_cts()),
           std::to_string(std::count_if(res.placement.layer_owner.begin(),
                                        res.placement.layer_owner.end(),
                                        [](int o) { return o >= 0; }))});
    }
  }
  table.print();

  std::printf("\nAlgorithm 1's own Eq. (21) prediction for LBP:\n");
  bench::Table predict({"Model", "predicted max (s)", "bottleneck comp (s)",
                        "bottleneck comm (s)"});
  for (const auto& spec : models::paper_models()) {
    const auto dims = spec.factor_dims();
    const auto placement =
        sched::lbp_place(dims, 64, cal.inverse, cal.bcast_fabric);
    const auto cost =
        sched::predict_cost(placement, dims, cal.inverse, cal.bcast_fabric);
    predict.add_row({spec.name, bench::seconds(cost.max_seconds),
                     bench::seconds(cost.bottleneck_comp),
                     bench::seconds(cost.bottleneck_comm)});
  }
  predict.print();
  std::printf(
      "\nPaper shape: LBP wins on every model (10-62%%); Seq-Dist is worse\n"
      "than Non-Dist on DenseNet-201 (many small tensors, broadcast-bound).\n");
  return 0;
}
