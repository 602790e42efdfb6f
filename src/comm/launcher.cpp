// Process-per-rank launcher behind Cluster::launch_collect.
//
// The socket backend needs launcher-owned setup *before* the workers exist:
// its ranks need an agreed rendezvous directory.  This file owns that
// sequencing:
//
//   1. mkdtemp the rendezvous directory for the socket paths;
//   2. fork one child per rank — no exec, so the caller's std::function
//      survives into the child via copy-on-write;
//   3. each child builds its transport (wrapped with fault injection and
//      armed with the comm timeout per LaunchOptions), runs fn, writes its
//      result vector to a pipe (uint64 count + raw doubles) and _exit()s —
//      _exit skips atexit/leak-check machinery that must not run twice;
//   4. the parent reads every pipe in rank order (children progress
//      independently, so no pipe-capacity deadlock) under the optional
//      collect deadline — a straggler past it is SIGKILLed — then reaps
//      with waitpid and throws a LaunchFailure detailing *how* each rank
//      died (signal number, exit status, missing result) plus the results
//      the surviving ranks still delivered.
//
// A pipe() or fork() failure midway through step 2 SIGKILLs and reaps the
// ranks already forked before it throws: they would otherwise wait forever
// for peers that never started (a socket rank blocks in accept()).
//
// kInProcess goes through the same entry point with threads and a shared
// results vector, so tests can iterate one API over both backends.
#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/fault.hpp"
#include "comm/transport.hpp"

namespace spdkfac::comm {

std::string RankExit::describe() const {
  std::string out = "rank " + std::to_string(rank) + ": ";
  if (signaled) {
    out += "killed by signal " + std::to_string(term_signal);
    if (const char* name = ::strsignal(term_signal)) {
      out += std::string(" (") + name + ")";
    }
  } else if (exit_status != 0) {
    out += "exit status " + std::to_string(exit_status);
  } else if (!error.empty()) {
    out += error;
  } else if (!wrote_result) {
    out += "no result";
  } else {
    out += "ok";
  }
  return out;
}

namespace {

using RankFn = std::function<std::vector<double>(Communicator&)>;

bool write_exact(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, p + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  return true;
}

/// read_exact with an optional deadline (<= 0: wait forever).  Returns
/// false on EOF, error, or deadline expiry.
bool read_exact_for(int fd, void* data, std::size_t n, double timeout_s) {
  const bool timed = timeout_s > 0.0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  auto* p = static_cast<unsigned char*>(data);
  std::size_t done = 0;
  while (done < n) {
    if (timed) {
      const double left = std::chrono::duration<double>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
      if (left <= 0.0) return false;
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int r = ::poll(&pfd, 1, static_cast<int>(left * 1e3) + 1);
      if (r < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (r == 0) return false;  // deadline expired
    }
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

/// Applies LaunchOptions to a freshly built transport: fault-injection
/// wrap for the victim rank, comm deadline for everyone.
std::unique_ptr<Transport> arm_transport(std::unique_ptr<Transport> transport,
                                         int rank, const LaunchOptions& opts) {
  if (opts.fault.enabled_for(rank)) {
    transport = with_fault_injection(std::move(transport), opts.fault);
  }
  transport->set_timeout(opts.comm_timeout_s);
  return transport;
}

/// Child side: run fn over the given transport and report the result
/// through `result_fd`.  Never returns.
[[noreturn]] void child_main(std::unique_ptr<Transport> transport,
                             const Topology& topo, const RankFn& fn,
                             int result_fd) {
  int status = 1;
  try {
    Communicator comm(*transport, topo);
    const std::vector<double> result = fn(comm);
    transport.reset();  // flush + tear down the wire before reporting
    const std::uint64_t count = result.size();
    if (write_exact(result_fd, &count, sizeof(count)) &&
        write_exact(result_fd, result.data(), count * sizeof(double))) {
      status = 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[spdkfac rank] %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "[spdkfac rank] unknown exception\n");
  }
  ::close(result_fd);
  ::_exit(status);
}

/// A launch that failed to start rank `forked` (`what` failed with errno
/// `err`): SIGKILLs and reaps ranks [0, forked), closes their result pipes,
/// and throws.
[[noreturn]] void abandon_launch(const std::vector<pid_t>& pids,
                                 const std::vector<int>& read_fds, int forked,
                                 const char* what, int err) {
  for (int r = 0; r < forked; ++r) {
    const pid_t pid = pids[static_cast<std::size_t>(r)];
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    ::close(read_fds[static_cast<std::size_t>(r)]);
  }
  throw std::runtime_error(std::string("launch_collect: ") + what +
                           " failed: " + std::strerror(err));
}

std::vector<std::vector<double>> launch_processes(
    const Topology& topo, const RankFn& fn,
    const std::function<std::unique_ptr<Transport>(int)>& make_transport,
    const LaunchOptions& opts) {
  const int world = topo.world_size();
  std::vector<pid_t> pids(static_cast<std::size_t>(world), -1);
  std::vector<int> read_fds(static_cast<std::size_t>(world), -1);

  for (int r = 0; r < world; ++r) {
    int fds[2];
    if (::pipe(fds) != 0) abandon_launch(pids, read_fds, r, "pipe", errno);
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      ::close(fds[0]);
      ::close(fds[1]);
      abandon_launch(pids, read_fds, r, "fork", err);
    }
    if (pid == 0) {
      ::close(fds[0]);
      for (int fd : read_fds) {
        if (fd >= 0) ::close(fd);  // siblings' pipe ends
      }
      std::unique_ptr<Transport> transport;
      try {
        transport = arm_transport(make_transport(r), r, opts);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[spdkfac rank] %s\n", e.what());
        ::_exit(1);
      }
      child_main(std::move(transport), topo, fn, fds[1]);
    }
    ::close(fds[1]);
    pids[static_cast<std::size_t>(r)] = pid;
    read_fds[static_cast<std::size_t>(r)] = fds[0];
  }

  // Collect results in rank order first (each child can fill its pipe and
  // exit independently), then reap.  A rank that blows the collect
  // deadline is SIGKILLed so a wedged mesh cannot wedge the launcher.
  std::vector<std::vector<double>> results(static_cast<std::size_t>(world));
  std::vector<RankExit> exits(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    RankExit& exit_info = exits[static_cast<std::size_t>(r)];
    exit_info.rank = r;
    const int fd = read_fds[static_cast<std::size_t>(r)];
    std::uint64_t count = 0;
    if (read_exact_for(fd, &count, sizeof(count), opts.collect_timeout_s)) {
      auto& out = results[static_cast<std::size_t>(r)];
      out.resize(static_cast<std::size_t>(count));
      exit_info.wrote_result = read_exact_for(
          fd, out.data(), out.size() * sizeof(double), opts.collect_timeout_s);
      if (!exit_info.wrote_result) out.clear();
    }
    ::close(fd);
    if (!exit_info.wrote_result && opts.collect_timeout_s > 0.0) {
      ::kill(pids[static_cast<std::size_t>(r)], SIGKILL);
    }
  }

  bool any_failed = false;
  std::string failures;
  for (int r = 0; r < world; ++r) {
    RankExit& exit_info = exits[static_cast<std::size_t>(r)];
    int status = 0;
    while (::waitpid(pids[static_cast<std::size_t>(r)], &status, 0) < 0 &&
           errno == EINTR) {
    }
    if (WIFSIGNALED(status)) {
      exit_info.signaled = true;
      exit_info.term_signal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
      exit_info.exit_status = WEXITSTATUS(status);
    }
    if (!exit_info.clean()) {
      any_failed = true;
      failures += (failures.empty() ? "" : "; ") + exit_info.describe();
    }
  }
  if (any_failed) {
    throw LaunchFailure("launch_collect: worker failure (" + failures + ")",
                        std::move(exits), std::move(results));
  }
  return results;
}

std::vector<std::vector<double>> launch_threads(const Topology& topo,
                                                const RankFn& fn,
                                                const LaunchOptions& opts) {
  const int world = topo.world_size();
  auto group = make_in_process_group(world);
  std::vector<std::vector<double>> results(static_cast<std::size_t>(world));
  std::vector<RankExit> exits(static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));

  for (int r = 0; r < world; ++r) {
    exits[static_cast<std::size_t>(r)].rank = r;
    threads.emplace_back([&, r] {
      RankExit& exit_info = exits[static_cast<std::size_t>(r)];
      try {
        auto transport =
            arm_transport(make_in_process_transport(group, r), r, opts);
        Communicator comm(*transport, topo);
        results[static_cast<std::size_t>(r)] = fn(comm);
        exit_info.wrote_result = true;
      } catch (const std::exception& e) {
        exit_info.error = e.what();
      } catch (...) {
        exit_info.error = "unknown exception";
      }
    });
  }
  for (auto& t : threads) t.join();

  bool any_failed = false;
  std::string failures;
  for (const RankExit& exit_info : exits) {
    if (exit_info.clean()) continue;
    any_failed = true;
    failures += (failures.empty() ? "" : "; ") + exit_info.describe();
  }
  if (any_failed) {
    throw LaunchFailure("launch_collect: worker failure (" + failures + ")",
                        std::move(exits), std::move(results));
  }
  return results;
}

/// Rendezvous directory for one socket cluster; removed — with whatever a
/// crashed child left behind (listener sockets a SIGKILLed rank never
/// unlinked) — when the launch finishes.
class SocketRendezvous {
 public:
  explicit SocketRendezvous(int world) {
    // $TMPDIR-honoring scratch dir; validate the longest listener path any
    // rank will bind (<dir>/spdkfacXXXXXX/s.r<world-1>) *before* mkdtemp,
    // so a too-deep TMPDIR fails with the path and the sun_path limit
    // instead of a silent truncation at bind time.
    std::string tmpl = default_tmp_dir() + "/spdkfacXXXXXX";
    validate_socket_path(tmpl + "/s.r" + std::to_string(world > 0 ? world - 1
                                                                  : 0));
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("launch_collect: mkdtemp failed for " + tmpl);
    }
    dir_ = tmpl;
  }

  ~SocketRendezvous() {
    // Sweep everything in the directory, not a precomputed rank list: a
    // rank killed mid-handshake strands its listener socket here, and a
    // leftover entry would make rmdir fail and leak the directory.
    if (DIR* dir = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((dir_ + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(dir_.c_str());
  }

  SocketRendezvous(const SocketRendezvous&) = delete;
  SocketRendezvous& operator=(const SocketRendezvous&) = delete;

  std::string base_path() const { return dir_ + "/s"; }

 private:
  std::string dir_;
};

}  // namespace

std::vector<std::vector<double>> Cluster::launch_collect(
    TransportKind kind, const Topology& topo,
    const std::function<std::vector<double>(Communicator&)>& fn,
    const LaunchOptions& opts) {
  if (topo.nodes <= 0 || topo.gpus_per_node <= 0) {
    throw std::invalid_argument("launch_collect: world size must be positive");
  }
  switch (kind) {
    case TransportKind::kInProcess:
      return launch_threads(topo, fn, opts);
    case TransportKind::kSocket: {
      SocketRendezvous rendezvous(topo.world_size());
      const SocketEndpoint ep{rendezvous.base_path(), topo.world_size()};
      return launch_processes(
          topo, fn,
          [&ep](int rank) { return make_socket_transport(ep, rank); }, opts);
    }
  }
  throw std::invalid_argument("launch_collect: unknown transport");
}

void Cluster::launch(TransportKind kind, const Topology& topo,
                     const std::function<void(Communicator&)>& fn,
                     const LaunchOptions& opts) {
  launch_collect(
      kind, topo,
      [&fn](Communicator& comm) {
        fn(comm);
        return std::vector<double>{};
      },
      opts);
}

}  // namespace spdkfac::comm
