// Synthetic classification data — the ImageNet stand-in for the numerically
// real training path.  Each class is a fixed random template (drawn from the
// dataset seed, identical on every worker); samples are templates plus
// Gaussian noise drawn from a caller-provided RNG, so each data-parallel
// worker shards the stream simply by seeding its RNG with its rank.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor4d.hpp"
#include "tensor/random.hpp"

namespace spdkfac::nn {

struct Batch {
  Tensor4D inputs;
  std::vector<int> labels;
};

class SyntheticClassification {
 public:
  SyntheticClassification(std::size_t classes, std::size_t channels,
                          std::size_t image_hw, std::uint64_t seed,
                          double noise = 0.3);

  std::size_t classes() const noexcept { return classes_; }

  /// Draws a batch: labels cycle deterministically from the provided RNG,
  /// pixels are template + N(0, noise^2).  noise == 0 yields the templates
  /// exactly.
  Batch sample(std::size_t batch, tensor::Rng& rng) const;

  /// Class `label`'s template image, flat (channels x hw x hw).
  const std::vector<double>& class_template(std::size_t label) const {
    return templates_.at(label);
  }

 private:
  std::size_t classes_, channels_, hw_;
  double noise_;
  std::vector<std::vector<double>> templates_;  // one flat image per class
};

}  // namespace spdkfac::nn
