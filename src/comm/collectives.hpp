// Collective algorithm library + size/topology-based selection.
//
// The seed hard-coded one algorithm per collective (ring all-reduce,
// binomial-tree broadcast).  Under the paper's alpha-beta cost model
// (Eq. (14)) that is only optimal for large messages: a ring pays 2(P-1)
// latencies, so small all-reduces — exactly the factor-time syncs and small
// fused groups SPD-KFAC issues — are latency-bound and want a logarithmic-
// depth algorithm, and multi-node hierarchies want to cross the slow
// inter-node links only once per node.  This header provides:
//
//   * all_reduce_ring              — reduce-scatter + all-gather ring,
//                                    bandwidth-optimal: 2(P-1) messages of
//                                    m/P elements;
//   * all_reduce_halving_doubling  — Rabenseifner recursive vector halving
//                                    (reduce-scatter) + recursive doubling
//                                    (all-gather): 2*log2(P) latencies, with
//                                    a fold/unfold round for non-power-of-two
//                                    P that costs one extra full-vector
//                                    exchange;
//   * all_reduce_flat_tree         — reduce everything to rank 0, then
//                                    binomial broadcast; P-1 serialized
//                                    receives at the root, but the reduction
//                                    order is trivially rank-independent;
//   * all_reduce_hierarchical      — two-level: intra-node reduce to the
//                                    node leader, ring all-reduce across
//                                    leaders over the inter-node links,
//                                    intra-node broadcast;
//   * AlgorithmSelector            — closed-form alpha+beta*m cost per
//                                    algorithm from a Topology's link
//                                    models, argmin choice per message size
//                                    (the NCCL-style switching the paper's
//                                    fixed testbed never needed).
//
// Every algorithm upholds the Communicator contract: all ranks call with
// the same size/op/algo, and results are bitwise identical across ranks
// (each reduced element is computed at exactly one rank, or in a fixed
// rank-independent order, before being copied).  Different algorithms may
// round differently from each other — floating-point reassociation — which
// is why the conformance suite compares against a tolerance reference but
// demands exact cross-rank equality.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "comm/cluster.hpp"
#include "comm/topology.hpp"
#include "tensor/kernels/kernels.hpp"

namespace spdkfac::comm {

const char* to_string(AllReduceAlgo algo) noexcept;

/// The concrete algorithms, in selection tie-break order (ring first).
/// Everything that enumerates the library — selection, fitting, benches,
/// conformance — iterates this list, so a new algorithm only needs an
/// entry here (plus its cost term and dispatch case).
inline constexpr std::array<AllReduceAlgo, 4> kAllReduceAlgos{
    AllReduceAlgo::kRing, AllReduceAlgo::kHalvingDoubling,
    AllReduceAlgo::kFlatTree, AllReduceAlgo::kHierarchical};

namespace detail {

/// Elementwise combine shared by every algorithm and every ReduceOp: kSum
/// and kAverage accumulate (averaging is a separate finalize step so the
/// division happens exactly once), kMax takes the elementwise maximum.
/// Runs on the active ISA's vector kernels; add/max/scale are purely
/// elementwise, so every level produces identical bits — reduction results
/// never depend on which ISA a rank (or test) selected.
inline void accumulate(std::span<double> dst, std::span<const double> src,
                       ReduceOp op) {
  const auto& kt = tensor::kernels::active_table();
  if (op == ReduceOp::kMax) {
    kt.max(dst.data(), src.data(), dst.size());
  } else {
    kt.add(dst.data(), src.data(), dst.size());
  }
}

/// Op finalization after a sum-based reduction: kAverage multiplies by
/// 1/world (one elementwise rounding, so the bits do not depend on which
/// rank applies it), the other ops need nothing.
inline void finalize(std::span<double> data, ReduceOp op, int world) {
  if (op != ReduceOp::kAverage || world <= 1) return;
  tensor::kernels::active_table().scale(data.data(), data.size(),
                                        1.0 / world);
}

}  // namespace detail

void all_reduce_ring(Communicator& comm, std::span<double> data, ReduceOp op);
void all_reduce_halving_doubling(Communicator& comm, std::span<double> data,
                                 ReduceOp op);
void all_reduce_flat_tree(Communicator& comm, std::span<double> data,
                          ReduceOp op);
/// `topo` supplies the node/leader structure; a Topology whose world size
/// does not match comm.size() degenerates to flat (one GPU per node).
void all_reduce_hierarchical(Communicator& comm, std::span<double> data,
                             ReduceOp op, const Topology& topo);

/// Closed-form cost model and argmin selection over the algorithm library.
///
/// Effective per-collective terms t_algo(m) = alpha + beta*m are derived
/// from the Topology's link models (flat link F = inter when nodes > 1,
/// intra link I, inter link E; P = world, pof2 the largest power of two
/// <= P, N nodes, G GPUs per node):
///
///   ring     alpha = 2(P-1) F.a                 beta = 2(P-1)/P F.b
///   h/d      alpha = 2 log2(pof2) F.a [+2 F.a]  beta = 2(pof2-1)/pof2 F.b
///                                                       [+2 F.b]
///            (bracketed fold/unfold terms only when P != pof2)
///   tree     alpha = (P-1+ceil(log2 P)) F.a     beta = same multiplier F.b
///   hier     alpha = 2(G-1) I.a + 2(N-1) E.a    beta = 2(G-1) I.b
///                                                      + 2(N-1)/N E.b
///
/// choose() is the crossover rule: argmin over the available algorithms
/// (ring wins ties; kHierarchical competes only when nodes > 1).  Because
/// ring is always in the candidate set, the chosen cost is <= the ring cost
/// at every message size.  Terms can be overridden with fitted models
/// (perf::fit_selector) to mirror the paper's measure-then-fit workflow.
class AlgorithmSelector {
 public:
  AlgorithmSelector() : AlgorithmSelector(Topology::flat(1)) {}
  explicit AlgorithmSelector(const Topology& topo);

  const Topology& topology() const noexcept { return topo_; }

  /// Whether choose() considers the algorithm on this topology.
  bool available(AllReduceAlgo algo) const noexcept;

  /// Effective cost terms of one collective (valid for any concrete algo,
  /// available or not).
  const LinkModel& term(AllReduceAlgo algo) const;
  /// Overrides an algorithm's terms with a fitted model.
  void set_term(AllReduceAlgo algo, LinkModel term);

  /// Predicted seconds for one all-reduce of `elements` doubles; kAuto
  /// prices the chosen algorithm.
  double cost(AllReduceAlgo algo, std::size_t elements) const;
  /// Cheapest available algorithm for this message size.
  AllReduceAlgo choose(std::size_t elements) const noexcept;
  double best_cost(std::size_t elements) const {
    return cost(choose(elements), elements);
  }

 private:
  static std::size_t index_of(AllReduceAlgo algo);

  Topology topo_;
  std::array<LinkModel, kAllReduceAlgos.size()> terms_{};
  std::array<bool, kAllReduceAlgos.size()> available_{};
};

}  // namespace spdkfac::comm
