// Parses a codec name as comm::to_string spells it, for tests that take a
// codec from the environment.
#pragma once

#include <stdexcept>
#include <string>

#include "comm/codec.hpp"

namespace spdkfac::testsupport {

/// "none" / "fp16" / "int8" / "topk" / "auto"; throws
/// std::invalid_argument on anything else.
inline comm::Codec codec_from_string(const std::string& name) {
  for (comm::Codec codec : {comm::Codec::kNone, comm::Codec::kFp16,
                            comm::Codec::kInt8, comm::Codec::kTopK,
                            comm::Codec::kAuto}) {
    if (name == comm::to_string(codec)) return codec;
  }
  throw std::invalid_argument("unknown codec: \"" + name +
                              "\" (expected none|fp16|int8|topk|auto)");
}

}  // namespace spdkfac::testsupport
