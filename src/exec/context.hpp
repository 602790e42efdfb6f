// Ambient execution context for the numeric kernels.
//
// The tensor kernels (GEMM, Cholesky, SPD inverse) parallelize their inner
// loops with exec::parallel_for, which resolves the pool to split across
// *ambiently*: an explicit exec::Context installed on the calling thread
// wins, otherwise the pool the thread is a worker or the member of (so plan
// tasks dispatched by the DataflowExecutor, and the rank thread's layer
// passes, parallelize on the same shared pool automatically), otherwise
// serial.  Chunk boundaries never depend on the worker count, so every
// resolution produces bitwise-identical results — tests force
// determinism-critical sections serial with `exec::Context serial(nullptr);`.
#pragma once

#include <cstddef>
#include <functional>

#include "exec/thread_pool.hpp"

namespace spdkfac::exec {

/// Scoped override of the calling thread's ambient pool.  Context(nullptr)
/// forces serial execution for the scope; Context(&pool) opts any thread
/// (main, benchmarks) into the pool without making it a member.
class Context {
 public:
  explicit Context(ThreadPool* pool) noexcept;
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// The pool kernels currently split across (nullptr: serial).
  static ThreadPool* current_pool() noexcept;

 private:
  ThreadPool* prev_pool_;
  bool prev_overridden_;
};

/// Blocked parallel loop over [0, n) on the ambient pool (serial when there
/// is none).  See ThreadPool::parallel_for for the chunking/determinism
/// contract.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace spdkfac::exec
