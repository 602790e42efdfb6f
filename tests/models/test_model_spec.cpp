// Validates the shape-level model specs against the paper's Table II and the
// factor statistics quoted in Sections III-A and IV-A.
#include "models/model_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>

namespace spdkfac::models {
namespace {

double mega(double x) { return x / 1e6; }

TEST(LayerSpec, ConvDerivedQuantities) {
  LayerSpec l;
  l.kind = LayerKind::kConv2d;
  l.in_channels = 512;
  l.out_channels = 512;
  l.kernel_h = l.kernel_w = 3;
  l.out_h = l.out_w = 7;
  EXPECT_EQ(l.dim_a(), 4608u);
  EXPECT_EQ(l.dim_g(), 512u);
  EXPECT_EQ(l.params(), 512u * 4608u);
  // The paper's largest ResNet-50 factor: 4608*(4608+1)/2 = 10,619,136.
  EXPECT_EQ(l.a_elements(), 10'619'136u);
  EXPECT_DOUBLE_EQ(l.fwd_flops(1), 2.0 * 49 * 512 * 4608);
  EXPECT_DOUBLE_EQ(l.bwd_flops(1), 2.0 * l.fwd_flops(1));
  EXPECT_DOUBLE_EQ(l.factor_a_flops(2), 2.0 * 49 * 4608.0 * 4608.0);
}

TEST(LayerSpec, LinearWithBiasAugmentsA) {
  LayerSpec l;
  l.kind = LayerKind::kLinear;
  l.in_channels = 2048;
  l.out_channels = 1000;
  l.has_bias = true;
  EXPECT_EQ(l.dim_a(), 2049u);
  EXPECT_EQ(l.dim_g(), 1000u);
  EXPECT_EQ(l.params(), 2048u * 1000 + 1000);
}

struct TableIIRow {
  const char* name;
  double params_m;     // millions
  std::size_t layers;  // KFAC-preconditioned layers
  std::size_t batch;
  double a_m;  // millions of upper-triangle elements
  double g_m;
};

// gtest's default printer dumps the row's bytes, `name`'s address among
// them, into the listed test name, so the name changed with every build.
void PrintTo(const TableIIRow& row, std::ostream* os) { *os << row.name; }

class TableII : public ::testing::TestWithParam<TableIIRow> {};

TEST_P(TableII, MatchesPaperWithinTolerance) {
  const TableIIRow row = GetParam();
  const ModelSpec spec = model_by_name(row.name);

  // Layer count must match exactly — the paper's "# Layers" column.
  EXPECT_EQ(spec.num_layers(), row.layers) << spec.name;
  EXPECT_EQ(spec.default_batch, row.batch);

  // Parameter and factor-element totals within 3% (the paper rounds to one
  // decimal and counts only preconditioned parameters).
  EXPECT_NEAR(mega(spec.total_params()), row.params_m, row.params_m * 0.03)
      << spec.name;
  EXPECT_NEAR(mega(spec.total_a_elements()), row.a_m, row.a_m * 0.03)
      << spec.name;
  EXPECT_NEAR(mega(spec.total_g_elements()), row.g_m, row.g_m * 0.03)
      << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TableII,
    ::testing::Values(TableIIRow{"ResNet-50", 25.6, 54, 32, 62.3, 14.6},
                      TableIIRow{"ResNet-152", 60.2, 156, 8, 162.0, 32.9},
                      // The paper prints sum(G) = 18.0M for DenseNet-201;
                      // the architecture's G dims (bottleneck 128 / growth 32
                      // outputs) yield 1.81M — an exact 10x gap alongside a
                      // matching sum(A), strongly suggesting a decimal typo
                      // in Table II.  We assert the computed value; see
                      // EXPERIMENTS.md.
                      TableIIRow{"DenseNet-201", 20.0, 201, 16, 131.0, 1.81},
                      TableIIRow{"Inception-v4", 42.7, 150, 16, 116.4, 4.7}),
    [](const auto& info) {
      std::string n = info.param.name;
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n;
    });

TEST(ResNet50, FactorSizeExtremesMatchSectionIVA) {
  // Section IV-A: "in ResNet-50, the smallest number of communicated
  // elements of the Kronecker factor is 2,080 while the largest is
  // 10,619,136".
  const ModelSpec spec = resnet50();
  const auto sizes = spec.factor_packed_sizes();
  EXPECT_EQ(*std::min_element(sizes.begin(), sizes.end()), 2080u);
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), 10'619'136u);
}

TEST(ResNet50, StructureSanity) {
  const ModelSpec spec = resnet50();
  // conv1 is 7x7 stride 2 on 3 channels.
  EXPECT_EQ(spec.layers.front().kernel_h, 7u);
  EXPECT_EQ(spec.layers.front().in_channels, 3u);
  EXPECT_EQ(spec.layers.front().out_h, 112u);
  // Classifier is a biased linear 2048 -> 1000.
  const LayerSpec& fc = spec.layers.back();
  EXPECT_EQ(fc.kind, LayerKind::kLinear);
  EXPECT_EQ(fc.in_channels, 2048u);
  EXPECT_EQ(fc.out_channels, 1000u);
  EXPECT_TRUE(fc.has_bias);
  // Final conv stage operates on 7x7 maps.
  const auto& last_conv = spec.layers[spec.layers.size() - 2];
  EXPECT_EQ(last_conv.out_h, 7u);
}

TEST(ResNet152, SharesStemAndHeadWithResNet50) {
  const ModelSpec r50 = resnet50(), r152 = resnet152();
  EXPECT_EQ(r50.layers.front().dim_a(), r152.layers.front().dim_a());
  EXPECT_EQ(r50.layers.back().dim_a(), r152.layers.back().dim_a());
  EXPECT_GT(r152.total_params(), 2 * r50.total_params());
}

TEST(DenseNet201, GrowthPattern) {
  const ModelSpec spec = densenet201();
  // Dense layers alternate 1x1 bottlenecks (out 128) and 3x3 growth convs
  // (out 32).
  std::size_t growth_convs = 0;
  for (const auto& l : spec.layers) {
    if (l.kernel_h == 3 && l.out_channels == 32) ++growth_convs;
  }
  EXPECT_EQ(growth_convs, 6u + 12 + 48 + 32);
  EXPECT_EQ(spec.layers.back().in_channels, 1920u);
}

TEST(InceptionV4, HasRectangularKernels) {
  const ModelSpec spec = inceptionv4();
  bool has_1x7 = false, has_7x1 = false;
  for (const auto& l : spec.layers) {
    if (l.kernel_h == 1 && l.kernel_w == 7) has_1x7 = true;
    if (l.kernel_h == 7 && l.kernel_w == 1) has_7x1 = true;
  }
  EXPECT_TRUE(has_1x7);
  EXPECT_TRUE(has_7x1);
  EXPECT_EQ(spec.layers.back().in_channels, 1536u);
}

TEST(InceptionV4, SmallGFactorsExplainTableII) {
  // Table II: Inception-v4 has the smallest sum(G) (4.7M) because its
  // branches have narrow outputs; no G dim should exceed 1536 except none.
  const ModelSpec spec = inceptionv4();
  for (const auto& l : spec.layers) {
    EXPECT_LE(l.dim_g(), 1536u) << l.name;
  }
}

TEST(ModelByName, NormalizesNames) {
  EXPECT_EQ(model_by_name("resnet50").name, "ResNet-50");
  EXPECT_EQ(model_by_name("ResNet-152").name, "ResNet-152");
  EXPECT_EQ(model_by_name("DENSENET_201").name, "DenseNet-201");
  EXPECT_EQ(model_by_name("inception v4").name, "Inception-v4");
  EXPECT_THROW(model_by_name("alexnet"), std::invalid_argument);
}

TEST(PaperModels, ReturnsAllFourInOrder) {
  const auto all = paper_models();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name, "ResNet-50");
  EXPECT_EQ(all[3].name, "Inception-v4");
}

TEST(FactorDims, OrderedAThenG) {
  const ModelSpec spec = resnet50();
  const auto dims = spec.factor_dims();
  ASSERT_EQ(dims.size(), 2 * spec.num_layers());
  EXPECT_EQ(dims[0], spec.layers[0].dim_a());
  EXPECT_EQ(dims[spec.num_layers()], spec.layers[0].dim_g());
}

TEST(FactorPackedSizes, Fig3DistributionSpansDecades) {
  // Fig. 3: factor sizes span ~1e3 to ~1e7 communicated elements.
  for (const auto& spec : paper_models()) {
    const auto sizes = spec.factor_packed_sizes();
    ASSERT_EQ(sizes.size(), 2 * spec.num_layers());
    EXPECT_LT(*std::min_element(sizes.begin(), sizes.end()), 10'000u)
        << spec.name;
    EXPECT_GT(*std::max_element(sizes.begin(), sizes.end()), 1'000'000u)
        << spec.name;
  }
}

TEST(Flops, ResNet50ForwardIsRoughly4GFlopPerImage) {
  // Well-known figure: ResNet-50 forward ~4.1 GFLOP (MAC-doubled) at 224².
  const ModelSpec spec = resnet50();
  const double gflop = spec.total_fwd_flops(1) / 1e9;
  EXPECT_GT(gflop, 3.0);
  EXPECT_LT(gflop, 9.0);
}

TEST(Flops, ScaleLinearlyWithBatch) {
  const ModelSpec spec = densenet201();
  EXPECT_DOUBLE_EQ(spec.total_fwd_flops(16), 16.0 * spec.total_fwd_flops(1));
  EXPECT_DOUBLE_EQ(spec.total_bwd_flops(4), 2.0 * spec.total_fwd_flops(4));
}

TEST(Vgg16, KnownParameterCountAndStructure) {
  // Classic figure: VGG-16 has 138.36M parameters (conv 14.7M + fc 123.6M).
  const ModelSpec spec = vgg16();
  EXPECT_EQ(spec.num_layers(), 16u);
  EXPECT_NEAR(mega(spec.total_params()), 138.4, 138.4 * 0.01);
  // fc6's A factor (25088+1) is the largest factor in any common CNN.
  const LayerSpec& fc6 = spec.layers[13];
  EXPECT_EQ(fc6.kind, LayerKind::kLinear);
  EXPECT_EQ(fc6.dim_a(), 25089u);
  // VGG convs carry biases (no BatchNorm) -> bias-augmented A factors.
  EXPECT_EQ(spec.layers[0].dim_a(), 3u * 9 + 1);
}

TEST(Vgg19, DeeperThanVgg16) {
  const ModelSpec v16 = vgg16(), v19 = vgg19();
  EXPECT_EQ(v19.num_layers(), 19u);
  EXPECT_GT(v19.total_params(), v16.total_params());
  EXPECT_NEAR(mega(v19.total_params()), 143.7, 143.7 * 0.01);
}

TEST(ModelByName, ResolvesVggExtensions) {
  EXPECT_EQ(model_by_name("vgg16").name, "VGG-16");
  EXPECT_EQ(model_by_name("VGG-19").name, "VGG-19");
}

TEST(Flops, FactorFlopsPositiveForAllLayers) {
  for (const auto& spec : paper_models()) {
    for (const auto& l : spec.layers) {
      EXPECT_GT(l.factor_a_flops(1), 0.0) << spec.name << ":" << l.name;
      EXPECT_GT(l.factor_g_flops(1), 0.0) << spec.name << ":" << l.name;
    }
  }
}

TEST(ConvSpec, MirrorsSmallCnnShapes) {
  // conv_spec(1, 12, 8, 16, 5) must describe exactly the preconditioned
  // layers of nn::make_small_cnn(1, 12, 8, 16, 5): biased 3x3 'same' convs
  // around 2x2 pools, biased linear classifier.
  const ModelSpec spec = conv_spec(1, 12, 8, 16, 5);
  ASSERT_EQ(spec.layers.size(), 3u);

  EXPECT_EQ(spec.layers[0].kind, LayerKind::kConv2d);
  EXPECT_EQ(spec.layers[0].dim_a(), 1u * 9u + 1u);
  EXPECT_EQ(spec.layers[0].dim_g(), 8u);
  EXPECT_EQ(spec.layers[0].params(), 9u * 8u + 8u);
  EXPECT_EQ(spec.layers[0].spatial_positions(), 12u * 12u);

  EXPECT_EQ(spec.layers[1].dim_a(), 8u * 9u + 1u);
  EXPECT_EQ(spec.layers[1].dim_g(), 16u);
  EXPECT_EQ(spec.layers[1].spatial_positions(), 6u * 6u);  // after one pool

  EXPECT_EQ(spec.layers[2].kind, LayerKind::kLinear);
  EXPECT_EQ(spec.layers[2].dim_a(), 16u * 3u * 3u + 1u);  // after two pools
  EXPECT_EQ(spec.layers[2].dim_g(), 5u);

  // Mixed heterogeneous dims is the point of the spec: the linear factor
  // dwarfs the first conv factor.
  EXPECT_GT(spec.layers[2].a_elements(), spec.layers[0].a_elements());
}

TEST(ConvSpec, RejectsDegenerateShapes) {
  EXPECT_THROW(conv_spec(1, 0, 4, 6, 3), std::invalid_argument);
  EXPECT_THROW(conv_spec(1, 10, 4, 6, 3), std::invalid_argument);  // not %4
  EXPECT_THROW(conv_spec(0, 8, 4, 6, 3), std::invalid_argument);
  EXPECT_THROW(conv_spec(1, 8, 4, 6, 0), std::invalid_argument);
}

}  // namespace
}  // namespace spdkfac::models
