#include "nn/data.hpp"

#include <gtest/gtest.h>

#include <set>

namespace spdkfac::nn {
namespace {

TEST(SyntheticData, ShapesAndLabelRange) {
  SyntheticClassification data(5, 3, 8, /*seed=*/1);
  tensor::Rng rng(0);
  Batch b = data.sample(16, rng);
  EXPECT_EQ(b.inputs.n, 16u);
  EXPECT_EQ(b.inputs.c, 3u);
  EXPECT_EQ(b.inputs.h, 8u);
  ASSERT_EQ(b.labels.size(), 16u);
  for (int label : b.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 5);
  }
}

TEST(SyntheticData, SameDatasetSeedSameTemplates) {
  SyntheticClassification a(3, 1, 4, 99, /*noise=*/0.0);
  SyntheticClassification b(3, 1, 4, 99, /*noise=*/0.0);
  tensor::Rng ra(7), rb(7);
  Batch ba = a.sample(8, ra);
  Batch bb = b.sample(8, rb);
  EXPECT_EQ(ba.labels, bb.labels);
  EXPECT_EQ(ba.inputs.data, bb.inputs.data);
}

TEST(SyntheticData, DifferentWorkerRngsShardTheStream) {
  SyntheticClassification data(3, 1, 4, 99);
  tensor::Rng r0(0), r1(1);
  Batch b0 = data.sample(8, r0);
  Batch b1 = data.sample(8, r1);
  EXPECT_NE(b0.inputs.data, b1.inputs.data);
}

TEST(SyntheticData, ZeroNoiseReproducesTemplates) {
  SyntheticClassification data(2, 1, 2, 5, /*noise=*/0.0);
  tensor::Rng rng(3);
  Batch b1 = data.sample(32, rng);
  // Every sample is exactly its class template.
  for (std::size_t i = 0; i < 32; ++i) {
    const auto label = static_cast<std::size_t>(b1.labels[i]);
    EXPECT_EQ(std::vector<double>(b1.inputs.sample(i).begin(),
                                  b1.inputs.sample(i).end()),
              data.class_template(label))
        << "sample " << i;
  }
}

TEST(SyntheticData, CoversAllClassesEventually) {
  SyntheticClassification data(4, 1, 2, 11);
  tensor::Rng rng(13);
  std::set<int> seen;
  Batch b = data.sample(64, rng);
  seen.insert(b.labels.begin(), b.labels.end());
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace spdkfac::nn
