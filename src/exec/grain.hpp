// Shared chunk-sizing policy for parallel_for callers.
//
// Every numeric kernel splits its outer loop into chunks whose size depends
// only on the problem shape (never the pool size), so each output element is
// produced by exactly one chunk regardless of how many workers exist — the
// foundation of the bitwise-determinism-across-pool-sizes contract.  This
// header centralizes the one tunable: the per-chunk work target.
#pragma once

#include <algorithm>
#include <cstddef>

namespace spdkfac::exec {

/// Inner operations a chunk should amortize scheduling overhead over.
/// No caller combines per-chunk partial sums: each output element is
/// accumulated inside one chunk, in an order that does not depend on where
/// the chunk boundaries fall.  So this tunes speed only and leaves every
/// result bit unchanged; a kernel that reduces across chunks would make it
/// part of the numerics.
inline constexpr std::size_t kChunkTargetOps = std::size_t{1} << 16;

/// Outer-loop items per chunk when each item costs ~ops_per_item inner ops.
inline std::size_t grain_for_ops(std::size_t ops_per_item) noexcept {
  return std::max<std::size_t>(
      1, kChunkTargetOps / std::max<std::size_t>(ops_per_item, 1));
}

}  // namespace spdkfac::exec
