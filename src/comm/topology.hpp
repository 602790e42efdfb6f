// Cluster-shape descriptor for topology-aware collectives.
//
// The paper's testbed is flat: 64 GPUs on one 100Gb/s InfiniBand fabric, so
// every link in its Eq. (14)/(21) cost models has the same alpha/beta.  Real
// clusters are hierarchies — N nodes of G GPUs, with NVLink/PCIe inside a
// node an order of magnitude cheaper than the network between nodes — and
// the best collective algorithm depends on both the message size and that
// shape (NCCL switches algorithms on exactly these inputs).  Topology
// captures the shape plus a latency/bandwidth (alpha + beta*m) model per
// link class; the collective algorithms in collectives.hpp use the rank
// mapping, and AlgorithmSelector / perf::ClusterCalibration use the link
// models to price each algorithm.
//
// Rank layout: rank r lives on node r / gpus_per_node with local rank
// r % gpus_per_node; the node leader is the node's local rank 0.
#pragma once

namespace spdkfac::comm {

/// Cost of moving one message over a link class: alpha + beta * m seconds
/// for m elements (same alpha-beta form as the paper's Eq. (14)).
struct LinkModel {
  double alpha = 0.0;  ///< per-message latency (seconds)
  double beta = 0.0;   ///< per-element transfer cost (seconds/element)

  double operator()(double elements) const noexcept {
    return alpha + beta * elements;
  }
};

struct Topology {
  int nodes = 1;
  int gpus_per_node = 1;

  /// Intra-node link (NVLink/PCIe class).  Default: ~10x cheaper than the
  /// network in both terms.
  LinkModel intra{5.0e-6, 5.0e-11};
  /// Inter-node link (network class).  Defaults derived from the paper's
  /// P = 64 ring all-reduce fit (Fig. 7a): alpha_ar = 2(P-1)*L.alpha and
  /// beta_ar = 2(P-1)/P * L.beta give L = {9.7e-5, 7.4e-10}.
  LinkModel inter{9.7e-5, 7.4e-10};

  int world_size() const noexcept { return nodes * gpus_per_node; }
  int node_of(int rank) const noexcept { return rank / gpus_per_node; }
  /// The node leader owns the node's inter-node traffic (local rank 0).
  int leader_of(int rank) const noexcept {
    return node_of(rank) * gpus_per_node;
  }
  /// True when both levels of the hierarchy are non-trivial.
  bool hierarchical() const noexcept { return nodes > 1 && gpus_per_node > 1; }
  /// Worst link class a flat (all-ranks) collective must cross.
  const LinkModel& flat_link() const noexcept {
    return nodes > 1 ? inter : intra;
  }

  /// One GPU per node: every link is a network link.  This is the shape of
  /// the paper's testbed and the default for Cluster(int).
  static Topology flat(int world) noexcept {
    Topology t;
    t.nodes = world;
    t.gpus_per_node = 1;
    return t;
  }

  /// N nodes x G GPUs with the default link constants.
  static Topology multi_node(int nodes, int gpus_per_node) noexcept {
    Topology t;
    t.nodes = nodes;
    t.gpus_per_node = gpus_per_node;
    return t;
  }
};

}  // namespace spdkfac::comm
