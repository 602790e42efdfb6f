// Codec helpers for tests: parsing a codec name as comm::to_string spells
// it (for tests that take a codec from the environment), and the check
// that an option rejects the codec ids no longer in comm::Codec.
#pragma once

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "comm/codec.hpp"

namespace spdkfac::testsupport {

/// "none" / "topk"; throws std::invalid_argument on anything else, naming
/// the retired codecs' spellings ("fp16", "int8", "auto") as retired.
inline comm::Codec codec_from_string(const std::string& name) {
  for (comm::Codec codec : {comm::Codec::kNone, comm::Codec::kTopK}) {
    if (name == comm::to_string(codec)) return codec;
  }
  if (name == "fp16" || name == "int8" || name == "auto") {
    throw std::invalid_argument("retired codec: \"" + name +
                                "\" (expected none|topk)");
  }
  throw std::invalid_argument("unknown codec: \"" + name +
                              "\" (expected none|topk)");
}

/// Codec ids outside comm::Codec: 1, 2 and 4 belonged to the retired fp16,
/// int8 and auto codecs; 7 never named one.
struct RejectedCodecId {
  unsigned id;
  const char* retired_name;  // nullptr when the id never named a codec
};
inline constexpr RejectedCodecId kRejectedCodecIds[] = {
    {1, "fp16"}, {2, "int8"}, {4, "auto"}, {7, nullptr}};

/// Expects check() to throw std::invalid_argument whose message gives the
/// numeric id and, for a retired id, names that codec as retired.
template <class Check>
void expect_codec_rejected(const RejectedCodecId& bad, Check&& check) {
  std::string id = "codec id ";
  id += std::to_string(bad.id);
  try {
    check();
    ADD_FAILURE() << id << " accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(id), std::string::npos) << what;
    if (bad.retired_name != nullptr) {
      std::string retired = bad.retired_name;
      retired += ") is retired";
      EXPECT_NE(what.find(retired), std::string::npos) << what;
    }
  }
}

}  // namespace spdkfac::testsupport
