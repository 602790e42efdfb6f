// Shared helpers for tests parameterized over the transport backends.
#pragma once

#include <string>

#include "comm/transport.hpp"

// ThreadSanitizer cannot follow the process-per-rank backends (threads
// created after fork are unsupported), so multi-process cells skip under
// TSan — the in-process backend keeps full TSan coverage.
#if defined(__SANITIZE_THREAD__)
#define SPDKFAC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPDKFAC_TSAN 1
#endif
#endif
#ifndef SPDKFAC_TSAN
#define SPDKFAC_TSAN 0
#endif

#define SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(kind)                        \
  do {                                                                    \
    if (SPDKFAC_TSAN &&                                                   \
        (kind) != spdkfac::comm::TransportKind::kInProcess) {             \
      GTEST_SKIP() << "multi-process backends unsupported under TSan";    \
    }                                                                     \
  } while (0)

namespace spdkfac::testsupport {

inline constexpr comm::TransportKind kAllTransports[] = {
    comm::TransportKind::kInProcess,
    comm::TransportKind::kSocket,
};

/// Backend name for gtest case names ("inproc" / "socket") — the CI
/// cross-backend step selects tests by these substrings.
inline std::string backend_name(comm::TransportKind kind) {
  return comm::to_string(kind);
}

}  // namespace spdkfac::testsupport
