#include "comm/collectives.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace spdkfac::comm {

using detail::accumulate;
using detail::finalize;

const char* to_string(AllReduceAlgo algo) noexcept {
  switch (algo) {
    case AllReduceAlgo::kRing:
      return "ring";
    case AllReduceAlgo::kHalvingDoubling:
      return "halving-doubling";
    case AllReduceAlgo::kFlatTree:
      return "flat-tree";
    case AllReduceAlgo::kHierarchical:
      return "hierarchical";
    case AllReduceAlgo::kAuto:
      return "auto";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Algorithms
// ---------------------------------------------------------------------------

namespace {

/// Splits n elements into `parts` contiguous segments as evenly as possible
/// (first n % parts segments get one extra element).  Returns segment sizes.
std::vector<std::size_t> even_partition(std::size_t n, std::size_t parts) {
  std::vector<std::size_t> counts(parts, n / parts);
  for (std::size_t i = 0; i < n % parts; ++i) ++counts[i];
  return counts;
}

std::vector<std::size_t> offsets_of(std::span<const std::size_t> counts) {
  std::vector<std::size_t> offsets(counts.size() + 1, 0);
  std::partial_sum(counts.begin(), counts.end(), offsets.begin() + 1);
  return offsets;
}

/// The ring all-reduce: reduce-scatter, then all-gather (Thakur,
/// Rabenseifner & Gropp, IJHPCA 2005), over a strided sub-group whose
/// members are the ranks first + i*stride for i in [0, members); `index`
/// is the caller's i.  At reduce-scatter step s, member i forwards segment
/// (i - s - 1) and accumulates segment (i - s - 2), so after members-1
/// steps it owns the fully reduced segment i.  Additions for a segment
/// happen in ring order whichever member observes them, so every member's
/// final vector is bitwise identical.  kAverage is finalized once, on the
/// owned segment between the two phases, dividing by `world`: the flat
/// ring passes its own size, the hierarchical leader ring the full world,
/// so what the all-gather spreads is already final.
void ring_all_reduce_strided(Communicator& comm, std::span<double> data,
                             ReduceOp op, int members, int index, int first,
                             int stride, int world) {
  if (members <= 1) {
    finalize(data, op, world);
    return;
  }
  auto rank_of = [&](int i) { return first + i * stride; };
  const int right = rank_of((index + 1) % members);
  const int left = rank_of((index + members - 1) % members);
  const auto counts = even_partition(data.size(), members);
  const auto offsets = offsets_of(counts);
  auto segment = [&](int seg) {
    return data.subspan(offsets[seg], counts[seg]);
  };
  {
    // Freed before the all-gather: held across it, the buffer stacks
    // under that phase's in-flight message copies and raises peak RSS.
    std::vector<double> recv_buf;
    for (int step = 0; step < members - 1; ++step) {
      const int send_seg = ((index - step - 1) % members + members) % members;
      const int recv_seg = ((index - step - 2) % members + members) % members;
      comm.send(right, segment(send_seg));
      recv_buf.resize(counts[recv_seg]);
      comm.recv(left, recv_buf);
      accumulate(segment(recv_seg), recv_buf, op);
    }
  }
  finalize(segment(index), op, world);
  for (int step = 0; step < members - 1; ++step) {
    const int send_seg = ((index - step) % members + members) % members;
    const int recv_seg = ((index - step - 1) % members + members) % members;
    comm.send(right, segment(send_seg));
    comm.recv(left, segment(recv_seg));
  }
}

}  // namespace

void all_reduce_ring(Communicator& comm, std::span<double> data,
                     ReduceOp op) {
  ring_all_reduce_strided(comm, data, op, comm.size(), comm.rank(),
                          /*first=*/0, /*stride=*/1, comm.size());
}

void all_reduce_halving_doubling(Communicator& comm, std::span<double> data,
                                 ReduceOp op) {
  const int P = comm.size();
  const int rank = comm.rank();
  if (P == 1 || data.empty()) return;

  int pof2 = 1;
  while (pof2 * 2 <= P) pof2 *= 2;
  const int rem = P - pof2;

  // Fold: among the first 2*rem ranks, each odd rank ships its vector to
  // the even rank below and sits out the power-of-two core; the survivors
  // are renumbered 0..pof2-1.
  int core_rank;  // rank within the core, -1 when folded away
  if (rank < 2 * rem) {
    if (rank % 2 == 1) {
      comm.send(rank - 1, data);
      core_rank = -1;
    } else {
      std::vector<double> folded(data.size());
      comm.recv(rank + 1, folded);
      accumulate(data, folded, op);
      core_rank = rank / 2;
    }
  } else {
    core_rank = rank - rem;
  }
  auto orig = [&](int cr) { return cr < rem ? 2 * cr : cr + rem; };

  if (core_rank >= 0) {
    const auto counts = even_partition(data.size(), pof2);
    const auto offsets = offsets_of(counts);
    auto segs = [&](std::size_t s_lo, std::size_t s_hi) {
      return data.subspan(offsets[s_lo], offsets[s_hi] - offsets[s_lo]);
    };

    // Recursive vector halving: ranks and segments share the range [lo, hi),
    // which halves every step; each rank keeps the half containing itself
    // and exchanges the other half with its partner across the midpoint.
    struct Step {
      int partner;
      std::size_t keep_lo, keep_hi, give_lo, give_hi;
    };
    std::vector<Step> steps;
    std::size_t lo = 0, hi = static_cast<std::size_t>(pof2);
    for (int stride = pof2 / 2; stride >= 1; stride /= 2) {
      const std::size_t mid = lo + static_cast<std::size_t>(stride);
      const bool low = static_cast<std::size_t>(core_rank) < mid;
      const int partner = orig(low ? core_rank + stride : core_rank - stride);
      const std::size_t keep_lo = low ? lo : mid, keep_hi = low ? mid : hi;
      const std::size_t give_lo = low ? mid : lo, give_hi = low ? hi : mid;
      comm.send(partner, segs(give_lo, give_hi));
      std::vector<double> buf(offsets[keep_hi] - offsets[keep_lo]);
      comm.recv(partner, buf);
      accumulate(segs(keep_lo, keep_hi), buf, op);
      steps.push_back({partner, keep_lo, keep_hi, give_lo, give_hi});
      lo = keep_lo;
      hi = keep_hi;
    }

    // Recursive doubling all-gather: replay the exchanges in reverse, this
    // time copying owned (fully reduced) ranges instead of combining.  Each
    // range's values were computed at exactly one rank, so all core ranks
    // end bitwise identical.
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
      comm.send(it->partner, segs(it->keep_lo, it->keep_hi));
      comm.recv(it->partner, segs(it->give_lo, it->give_hi));
    }

    finalize(data, op, P);
  }

  // Unfold: the even rank of each folded pair forwards the final vector.
  if (rank < 2 * rem) {
    if (rank % 2 == 0) {
      comm.send(rank + 1, data);
    } else {
      comm.recv(rank - 1, data);
    }
  }
}

void all_reduce_flat_tree(Communicator& comm, std::span<double> data,
                          ReduceOp op) {
  const int P = comm.size();
  if (P == 1 || data.empty()) return;
  if (comm.rank() == 0) {
    std::vector<double> buf(data.size());
    // Accumulation in rank order: deterministic, and computed only here.
    for (int src = 1; src < P; ++src) {
      comm.recv(src, buf);
      accumulate(data, buf, op);
    }
    finalize(data, op, P);
  } else {
    comm.send(0, data);
  }
  comm.broadcast(data, 0);
}

void all_reduce_hierarchical(Communicator& comm, std::span<double> data,
                             ReduceOp op, const Topology& topo) {
  const int P = comm.size();
  const int rank = comm.rank();
  if (P == 1 || data.empty()) return;
  const Topology t =
      topo.world_size() == P ? topo : Topology::flat(P);
  const int G = t.gpus_per_node;
  const int leader = t.leader_of(rank);

  // 1) Intra-node reduce to the leader, local-rank order.
  if (rank == leader) {
    std::vector<double> buf(data.size());
    for (int lr = 1; lr < G; ++lr) {
      comm.recv(leader + lr, buf);
      accumulate(data, buf, op);
    }
  } else {
    comm.send(leader, data);
  }

  // 2) Ring all-reduce across node leaders over the inter-node links; it
  // finalizes kAverage over the full world size.
  if (rank == leader) {
    ring_all_reduce_strided(comm, data, op, t.nodes, t.node_of(rank),
                            /*first=*/0, /*stride=*/G, P);
  }

  // 3) Intra-node broadcast of the leader's (identical-across-leaders)
  // final result.
  if (rank == leader) {
    for (int lr = 1; lr < G; ++lr) comm.send(leader + lr, data);
  } else {
    comm.recv(leader, data);
  }
}

// ---------------------------------------------------------------------------
// Communicator dispatch
// ---------------------------------------------------------------------------

void Communicator::all_reduce(std::span<double> data, ReduceOp op,
                              AllReduceAlgo algo) {
  if (algo == AllReduceAlgo::kAuto) {
    algo = AlgorithmSelector(topology()).choose(data.size());
  }
  switch (algo) {
    case AllReduceAlgo::kRing:
      all_reduce_ring(*this, data, op);
      return;
    case AllReduceAlgo::kHalvingDoubling:
      all_reduce_halving_doubling(*this, data, op);
      return;
    case AllReduceAlgo::kFlatTree:
      all_reduce_flat_tree(*this, data, op);
      return;
    case AllReduceAlgo::kHierarchical:
      all_reduce_hierarchical(*this, data, op, topology());
      return;
    case AllReduceAlgo::kAuto:
      break;  // resolved above
  }
  throw std::invalid_argument("all_reduce: unknown algorithm");
}

// ---------------------------------------------------------------------------
// AlgorithmSelector
// ---------------------------------------------------------------------------

std::size_t AlgorithmSelector::index_of(AllReduceAlgo algo) {
  const auto i = static_cast<std::size_t>(algo);
  if (i >= kAllReduceAlgos.size()) {
    throw std::invalid_argument(
        "AlgorithmSelector: kAuto has no cost terms of its own");
  }
  return i;
}

AlgorithmSelector::AlgorithmSelector(const Topology& topo) : topo_(topo) {
  const int P = std::max(topo.world_size(), 1);
  const LinkModel& F = topo.flat_link();
  const double p = static_cast<double>(P);

  int pof2 = 1;
  while (pof2 * 2 <= P) pof2 *= 2;
  const double q = static_cast<double>(pof2);
  const double log2p = std::ceil(std::log2(p));

  auto& ring = terms_[index_of(AllReduceAlgo::kRing)];
  ring = {2.0 * (p - 1.0) * F.alpha, 2.0 * (p - 1.0) / p * F.beta};

  auto& hd = terms_[index_of(AllReduceAlgo::kHalvingDoubling)];
  hd = {2.0 * std::log2(q) * F.alpha, 2.0 * (q - 1.0) / q * F.beta};
  if (pof2 != P) {  // fold + unfold: one extra full-vector exchange
    hd.alpha += 2.0 * F.alpha;
    hd.beta += 2.0 * F.beta;
  }

  auto& tree = terms_[index_of(AllReduceAlgo::kFlatTree)];
  tree = {(p - 1.0 + log2p) * F.alpha, (p - 1.0 + log2p) * F.beta};

  const LinkModel& I = topo.intra;
  const LinkModel& E = topo.inter;
  const double g = static_cast<double>(topo.gpus_per_node);
  const double n = static_cast<double>(topo.nodes);
  auto& hier = terms_[index_of(AllReduceAlgo::kHierarchical)];
  hier = {2.0 * (g - 1.0) * I.alpha + 2.0 * (n - 1.0) * E.alpha,
          2.0 * (g - 1.0) * I.beta +
              (n > 1.0 ? 2.0 * (n - 1.0) / n * E.beta : 0.0)};

  // kHierarchical competes only on genuinely two-level shapes: with one
  // GPU per node it degenerates to the exact ring schedule, so offering it
  // would only duplicate ring in selection/fitting sweeps.
  available_ = {P > 1, P > 1, P > 1, topo.hierarchical()};
  if (P == 1) {
    terms_ = {};  // no communication on a single device
    available_[index_of(AllReduceAlgo::kRing)] = true;
  }
}

bool AlgorithmSelector::available(AllReduceAlgo algo) const noexcept {
  const auto i = static_cast<std::size_t>(algo);
  return i < available_.size() && available_[i];
}

const LinkModel& AlgorithmSelector::term(AllReduceAlgo algo) const {
  return terms_[index_of(algo)];
}

void AlgorithmSelector::set_term(AllReduceAlgo algo, LinkModel term) {
  terms_[index_of(algo)] = term;
}

double AlgorithmSelector::cost(AllReduceAlgo algo,
                               std::size_t elements) const {
  if (algo == AllReduceAlgo::kAuto) return best_cost(elements);
  return terms_[index_of(algo)](static_cast<double>(elements));
}

AllReduceAlgo AlgorithmSelector::choose(std::size_t elements) const noexcept {
  AllReduceAlgo best = AllReduceAlgo::kRing;
  double best_cost = terms_[0](static_cast<double>(elements));
  for (AllReduceAlgo algo : kAllReduceAlgos) {
    if (!available(algo)) continue;
    const double c =
        terms_[static_cast<std::size_t>(algo)](static_cast<double>(elements));
    if (c < best_cost) {
      best_cost = c;
      best = algo;
    }
  }
  return best;
}

}  // namespace spdkfac::comm
