#include "nn/data.hpp"

namespace spdkfac::nn {

SyntheticClassification::SyntheticClassification(std::size_t classes,
                                                 std::size_t channels,
                                                 std::size_t image_hw,
                                                 std::uint64_t seed,
                                                 double noise)
    : classes_(classes), channels_(channels), hw_(image_hw), noise_(noise) {
  tensor::Rng rng(seed);
  templates_.resize(classes);
  const std::size_t pixels = channels * image_hw * image_hw;
  for (auto& t : templates_) {
    t.resize(pixels);
    tensor::fill_normal(t, rng);
  }
}

Batch SyntheticClassification::sample(std::size_t batch,
                                      tensor::Rng& rng) const {
  Batch b;
  b.inputs = Tensor4D(batch, channels_, hw_, hw_);
  b.labels.resize(batch);
  std::uniform_int_distribution<int> label_dist(
      0, static_cast<int>(classes_) - 1);
  // A unit normal scaled by hand: std::normal_distribution requires a
  // positive stddev, so noise_ == 0 (pure templates) would be undefined.
  // z * noise_ + 0.0 is the distribution's own arithmetic, so batches and
  // the RNG stream are bitwise unchanged for noise_ > 0.
  std::normal_distribution<double> unit_normal(0.0, 1.0);
  for (std::size_t i = 0; i < batch; ++i) {
    const int label = label_dist(rng);
    b.labels[i] = label;
    auto dst = b.inputs.sample(i);
    const auto& tmpl = templates_[label];
    for (std::size_t j = 0; j < dst.size(); ++j) {
      dst[j] = tmpl[j] + (unit_normal(rng) * noise_ + 0.0);
    }
  }
  return b;
}

}  // namespace spdkfac::nn
