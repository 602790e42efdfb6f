#include "perf/measure.hpp"

#include <gtest/gtest.h>

namespace spdkfac::perf {
namespace {

TEST(MeasureInverse, ProducesMonotonishSamples) {
  const std::vector<std::size_t> dims{16, 32, 64, 128};
  const auto samples = measure_inverse_times(dims, /*runs=*/2, /*warmup=*/0);
  ASSERT_EQ(samples.size(), dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    EXPECT_EQ(samples[i].x, static_cast<double>(dims[i]));
    EXPECT_GT(samples[i].seconds, 0.0);
  }
  // Inverting a 128-dim matrix must cost more than a 16-dim one.
  EXPECT_GT(samples.back().seconds, samples.front().seconds);
}

TEST(MeasureInverse, FitsExponentialModel) {
  const std::vector<std::size_t> dims{16, 32, 64, 96, 128};
  const auto samples = measure_inverse_times(dims, 2, 0);
  const InverseModel model = fit_inverse_model(samples);
  EXPECT_GT(model.alpha, 0.0);
  // The fitted curve should predict the largest measurement within an order
  // of magnitude (CPU timing noise allowed).
  const double predicted = model.time(128);
  EXPECT_GT(predicted, samples.back().seconds / 10.0);
  EXPECT_LT(predicted, samples.back().seconds * 10.0);
}

TEST(MeasureAllReduce, SamplesAndFit) {
  const std::vector<std::size_t> sizes{1024, 4096, 16384, 65536};
  const auto samples = measure_allreduce_times(sizes, /*world=*/2, 2, 1);
  ASSERT_EQ(samples.size(), sizes.size());
  for (const auto& s : samples) EXPECT_GT(s.seconds, 0.0);
  const LinearModel m = fit_comm_model(samples);
  // Per-element cost must be non-negative for a real transport.
  EXPECT_GE(m.beta, 0.0);
}

TEST(MeasureBroadcast, ProducesSamples) {
  const std::vector<std::size_t> sizes{1024, 8192};
  const auto samples = measure_broadcast_times(sizes, /*world=*/3, 2, 1);
  ASSERT_EQ(samples.size(), 2u);
  for (const auto& s : samples) EXPECT_GT(s.seconds, 0.0);
}

}  // namespace
}  // namespace spdkfac::perf
