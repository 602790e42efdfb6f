#include "comm/cluster.hpp"

#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace spdkfac::comm {

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

Cluster::Cluster(int size) : Cluster(Topology::flat(size)) {}

Cluster::Cluster(const Topology& topo)
    : size_(topo.world_size()), topology_(topo) {
  if (topo.nodes <= 0 || topo.gpus_per_node <= 0) {
    throw std::invalid_argument("Cluster size must be positive");
  }
  group_ = make_in_process_group(size_);
}

void Cluster::run(const std::function<void(Communicator&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(size_);
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &fn, &error_mutex, &first_error] {
      try {
        auto transport = make_in_process_transport(group_, r);
        Communicator comm(*transport, topology_);
        fn(comm);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void Cluster::launch(int size, const std::function<void(Communicator&)>& fn) {
  Cluster cluster(size);
  cluster.run(fn);
}

void Cluster::launch(const Topology& topo,
                     const std::function<void(Communicator&)>& fn) {
  Cluster cluster(topo);
  cluster.run(fn);
}

// ---------------------------------------------------------------------------
// Communicator
// ---------------------------------------------------------------------------

void Communicator::barrier() { transport_->barrier(); }

void Communicator::send(int dst, std::span<const double> payload,
                        std::uint16_t tag, int plan_task,
                        std::uint16_t codec) {
  if (dst < 0 || dst >= size_) throw std::invalid_argument("send: bad rank");
  transport_->send(dst, payload, tag, plan_task, codec);
}

void Communicator::recv(int src, std::span<double> out) {
  if (src < 0 || src >= size_) throw std::invalid_argument("recv: bad rank");
  if (!transport_->recv_into(src, out)) {
    throw std::runtime_error("recv: message length mismatch");
  }
}

void Communicator::broadcast(std::span<double> data, int root) {
  if (root < 0 || root >= size_) {
    throw std::invalid_argument("broadcast: bad root");
  }
  if (size_ == 1) return;

  // Binomial tree rooted at `root`, expressed in root-relative ranks.
  const int relative = (rank_ - root + size_) % size_;
  int mask = 1;
  while (mask < size_) {
    if (relative & mask) {
      const int src = (relative - mask + root) % size_;
      recv(src, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < size_) {
      const int dst = (relative + mask + root) % size_;
      send(dst, data);
    }
    mask >>= 1;
  }
}

}  // namespace spdkfac::comm
