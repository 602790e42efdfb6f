#include "models/model_spec.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace spdkfac::models {

double LayerSpec::fwd_flops(std::size_t batch) const noexcept {
  return 2.0 * static_cast<double>(batch) * spatial_positions() *
         out_channels * (in_channels * kernel_h * kernel_w);
}

double LayerSpec::bwd_flops(std::size_t batch) const noexcept {
  // dL/dinput and dL/dweight GEMMs, each about the size of the forward one.
  return 2.0 * fwd_flops(batch);
}

double LayerSpec::factor_a_flops(std::size_t batch) const noexcept {
  const double rows = static_cast<double>(batch) * spatial_positions();
  const double d = static_cast<double>(dim_a());
  return rows * d * d;  // symmetric rank-k update: ~rows*d^2 FLOPs
}

double LayerSpec::factor_g_flops(std::size_t batch) const noexcept {
  const double rows = static_cast<double>(batch) * spatial_positions();
  const double d = static_cast<double>(dim_g());
  return rows * d * d;
}

std::size_t ModelSpec::total_params() const noexcept {
  std::size_t sum = 0;
  for (const auto& l : layers) sum += l.params();
  return sum;
}

std::size_t ModelSpec::total_a_elements() const noexcept {
  std::size_t sum = 0;
  for (const auto& l : layers) sum += l.a_elements();
  return sum;
}

std::size_t ModelSpec::total_g_elements() const noexcept {
  std::size_t sum = 0;
  for (const auto& l : layers) sum += l.g_elements();
  return sum;
}

double ModelSpec::total_fwd_flops(std::size_t batch) const noexcept {
  double sum = 0;
  for (const auto& l : layers) sum += l.fwd_flops(batch);
  return sum;
}

double ModelSpec::total_bwd_flops(std::size_t batch) const noexcept {
  double sum = 0;
  for (const auto& l : layers) sum += l.bwd_flops(batch);
  return sum;
}

std::vector<std::size_t> ModelSpec::factor_packed_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(2 * layers.size());
  for (const auto& l : layers) sizes.push_back(l.a_elements());
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    sizes.push_back(it->g_elements());
  }
  return sizes;
}

std::vector<std::size_t> ModelSpec::factor_dims() const {
  std::vector<std::size_t> dims;
  dims.reserve(2 * layers.size());
  for (const auto& l : layers) dims.push_back(l.dim_a());
  for (const auto& l : layers) dims.push_back(l.dim_g());
  return dims;
}

namespace {

/// Incremental builder that tracks the architecture functions' bookkeeping.
/// Spatial maps are square throughout all four models; `hw` below is the
/// side length of the layer *input*.
class SpecBuilder {
 public:
  explicit SpecBuilder(std::string name, std::size_t input_hw,
                       std::size_t default_batch) {
    spec_.name = std::move(name);
    spec_.input_hw = input_hw;
    spec_.default_batch = default_batch;
  }

  /// Adds a (square-kernel) conv layer and returns its output side length.
  std::size_t conv(const std::string& name, std::size_t cin, std::size_t cout,
                   std::size_t k, std::size_t stride, std::size_t pad,
                   std::size_t in_hw) {
    return conv_rect(name, cin, cout, k, k, stride, pad, pad, in_hw);
  }

  /// Rectangular-kernel conv (Inception's 1x7 / 7x1 factorized layers).
  /// Padding keeps square spatial maps: pad_h applies to height, pad_w to
  /// width, and the models only use "same" padding for rectangular kernels.
  std::size_t conv_rect(const std::string& name, std::size_t cin,
                        std::size_t cout, std::size_t kh, std::size_t kw,
                        std::size_t stride, std::size_t pad_h,
                        std::size_t pad_w, std::size_t in_hw) {
    LayerSpec layer;
    layer.name = name;
    layer.kind = LayerKind::kConv2d;
    layer.in_channels = cin;
    layer.out_channels = cout;
    layer.kernel_h = kh;
    layer.kernel_w = kw;
    layer.stride = stride;
    layer.out_h = (in_hw + 2 * pad_h - kh) / stride + 1;
    layer.out_w = (in_hw + 2 * pad_w - kw) / stride + 1;
    layer.has_bias = false;  // every conv is followed by BatchNorm
    const std::size_t out = std::max(layer.out_h, layer.out_w);
    layer.out_h = layer.out_w = out;  // same-padded rect kernels stay square
    spec_.layers.push_back(layer);
    return out;
  }

  void linear(const std::string& name, std::size_t in_features,
              std::size_t out_features) {
    LayerSpec layer;
    layer.name = name;
    layer.kind = LayerKind::kLinear;
    layer.in_channels = in_features;
    layer.out_channels = out_features;
    layer.kernel_h = layer.kernel_w = 1;
    layer.out_h = layer.out_w = 1;
    layer.has_bias = true;
    spec_.layers.push_back(layer);
  }

  ModelSpec build() { return std::move(spec_); }

 private:
  ModelSpec spec_;
};

constexpr std::size_t pool_out(std::size_t in, std::size_t k,
                               std::size_t stride, std::size_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

/// Shared ResNet builder: `blocks` holds the bottleneck count per stage.
ModelSpec build_resnet(const std::string& name,
                       const std::vector<std::size_t>& blocks,
                       std::size_t default_batch) {
  SpecBuilder b(name, 224, default_batch);
  std::size_t hw = b.conv("conv1", 3, 64, 7, 2, 3, 224);  // 224 -> 112
  hw = pool_out(hw, 3, 2, 1);                             // maxpool -> 56

  const std::size_t mids[4] = {64, 128, 256, 512};
  std::size_t cin = 64;
  for (std::size_t stage = 0; stage < 4; ++stage) {
    const std::size_t mid = mids[stage];
    const std::size_t cout = mid * 4;
    for (std::size_t blk = 0; blk < blocks[stage]; ++blk) {
      const std::size_t stride = (stage > 0 && blk == 0) ? 2 : 1;
      const std::string prefix =
          "layer" + std::to_string(stage + 1) + "." + std::to_string(blk);
      b.conv(prefix + ".conv1", cin, mid, 1, 1, 0, hw);
      const std::size_t mid_hw =
          b.conv(prefix + ".conv2", mid, mid, 3, stride, 1, hw);
      b.conv(prefix + ".conv3", mid, cout, 1, 1, 0, mid_hw);
      if (blk == 0) {
        // Projection shortcut when channels or resolution change.
        b.conv(prefix + ".downsample", cin, cout, 1, stride, 0, hw);
      }
      hw = mid_hw;
      cin = cout;
    }
  }
  b.linear("fc", 512 * 4, 1000);
  return b.build();
}

}  // namespace

ModelSpec resnet50() {
  return build_resnet("ResNet-50", {3, 4, 6, 3}, /*batch=*/32);
}

ModelSpec resnet152() {
  return build_resnet("ResNet-152", {3, 8, 36, 3}, /*batch=*/8);
}

ModelSpec densenet201() {
  SpecBuilder b("DenseNet-201", 224, /*batch=*/16);
  constexpr std::size_t kGrowth = 32;
  constexpr std::size_t kBottleneck = 4 * kGrowth;  // 1x1 width

  std::size_t hw = b.conv("conv0", 3, 64, 7, 2, 3, 224);  // -> 112
  hw = pool_out(hw, 3, 2, 1);                             // -> 56
  std::size_t channels = 64;

  const std::size_t block_sizes[4] = {6, 12, 48, 32};
  for (std::size_t blk = 0; blk < 4; ++blk) {
    for (std::size_t i = 0; i < block_sizes[blk]; ++i) {
      const std::string prefix = "denseblock" + std::to_string(blk + 1) +
                                 ".layer" + std::to_string(i + 1);
      b.conv(prefix + ".conv1", channels, kBottleneck, 1, 1, 0, hw);
      b.conv(prefix + ".conv2", kBottleneck, kGrowth, 3, 1, 1, hw);
      channels += kGrowth;
    }
    if (blk < 3) {
      const std::string tname = "transition" + std::to_string(blk + 1);
      channels /= 2;
      b.conv(tname + ".conv", channels * 2, channels, 1, 1, 0, hw);
      hw = pool_out(hw, 2, 2, 0);  // 2x2 average pool
    }
  }
  b.linear("classifier", channels, 1000);  // channels == 1920
  return b.build();
}

ModelSpec inceptionv4() {
  SpecBuilder b("Inception-v4", 224, /*batch=*/16);

  // --- Stem (valid padding unless noted) ---------------------------------
  std::size_t hw = b.conv("stem.conv1", 3, 32, 3, 2, 0, 224);  // -> 111
  hw = b.conv("stem.conv2", 32, 32, 3, 1, 0, hw);              // -> 109
  hw = b.conv("stem.conv3", 32, 64, 3, 1, 1, hw);              // -> 109
  // mixed_3a: maxpool branch || conv branch, both stride 2
  const std::size_t hw3a = b.conv("stem.mixed3a.conv", 64, 96, 3, 2, 0, hw);
  hw = hw3a;  // concat -> 160 channels
  // mixed_4a: two branches ending in valid 3x3 convs
  b.conv("stem.mixed4a.b0.conv1", 160, 64, 1, 1, 0, hw);
  b.conv("stem.mixed4a.b0.conv2", 64, 96, 3, 1, 0, hw);
  b.conv("stem.mixed4a.b1.conv1", 160, 64, 1, 1, 0, hw);
  b.conv_rect("stem.mixed4a.b1.conv2", 64, 64, 1, 7, 1, 0, 3, hw);
  b.conv_rect("stem.mixed4a.b1.conv3", 64, 64, 7, 1, 1, 3, 0, hw);
  const std::size_t hw4a =
      b.conv("stem.mixed4a.b1.conv4", 64, 96, 3, 1, 0, hw);
  hw = hw4a;  // concat -> 192 channels
  // mixed_5a: conv branch stride 2 || maxpool
  hw = b.conv("stem.mixed5a.conv", 192, 192, 3, 2, 0, hw);  // -> 384 channels

  // --- 4x Inception-A (in/out 384 channels) ------------------------------
  for (int i = 0; i < 4; ++i) {
    const std::string p = "inceptionA" + std::to_string(i + 1);
    b.conv(p + ".b0.conv", 384, 96, 1, 1, 0, hw);
    b.conv(p + ".b1.conv1", 384, 64, 1, 1, 0, hw);
    b.conv(p + ".b1.conv2", 64, 96, 3, 1, 1, hw);
    b.conv(p + ".b2.conv1", 384, 64, 1, 1, 0, hw);
    b.conv(p + ".b2.conv2", 64, 96, 3, 1, 1, hw);
    b.conv(p + ".b2.conv3", 96, 96, 3, 1, 1, hw);
    b.conv(p + ".b3.conv", 384, 96, 1, 1, 0, hw);
  }

  // --- Reduction-A: 384 -> 1024 channels, stride 2 ------------------------
  {
    const std::size_t in_hw = hw;
    hw = b.conv("reductionA.b0.conv", 384, 384, 3, 2, 0, in_hw);
    b.conv("reductionA.b1.conv1", 384, 192, 1, 1, 0, in_hw);
    b.conv("reductionA.b1.conv2", 192, 224, 3, 1, 1, in_hw);
    b.conv("reductionA.b1.conv3", 224, 256, 3, 2, 0, in_hw);
  }

  // --- 7x Inception-B (in/out 1024 channels) ------------------------------
  for (int i = 0; i < 7; ++i) {
    const std::string p = "inceptionB" + std::to_string(i + 1);
    b.conv(p + ".b0.conv", 1024, 384, 1, 1, 0, hw);
    b.conv(p + ".b1.conv1", 1024, 192, 1, 1, 0, hw);
    b.conv_rect(p + ".b1.conv2", 192, 224, 1, 7, 1, 0, 3, hw);
    b.conv_rect(p + ".b1.conv3", 224, 256, 7, 1, 1, 3, 0, hw);
    b.conv(p + ".b2.conv1", 1024, 192, 1, 1, 0, hw);
    b.conv_rect(p + ".b2.conv2", 192, 192, 7, 1, 1, 3, 0, hw);
    b.conv_rect(p + ".b2.conv3", 192, 224, 1, 7, 1, 0, 3, hw);
    b.conv_rect(p + ".b2.conv4", 224, 224, 7, 1, 1, 3, 0, hw);
    b.conv_rect(p + ".b2.conv5", 224, 256, 1, 7, 1, 0, 3, hw);
    b.conv(p + ".b3.conv", 1024, 128, 1, 1, 0, hw);
  }

  // --- Reduction-B: 1024 -> 1536 channels, stride 2 ------------------------
  {
    const std::size_t in_hw = hw;
    b.conv("reductionB.b0.conv1", 1024, 192, 1, 1, 0, in_hw);
    hw = b.conv("reductionB.b0.conv2", 192, 192, 3, 2, 0, in_hw);
    b.conv("reductionB.b1.conv1", 1024, 256, 1, 1, 0, in_hw);
    b.conv_rect("reductionB.b1.conv2", 256, 256, 1, 7, 1, 0, 3, in_hw);
    b.conv_rect("reductionB.b1.conv3", 256, 320, 7, 1, 1, 3, 0, in_hw);
    b.conv("reductionB.b1.conv4", 320, 320, 3, 2, 0, in_hw);
  }

  // --- 3x Inception-C (in/out 1536 channels) ------------------------------
  for (int i = 0; i < 3; ++i) {
    const std::string p = "inceptionC" + std::to_string(i + 1);
    b.conv(p + ".b0.conv", 1536, 256, 1, 1, 0, hw);
    b.conv(p + ".b1.conv1", 1536, 384, 1, 1, 0, hw);
    b.conv_rect(p + ".b1.conv2a", 384, 256, 1, 3, 1, 0, 1, hw);
    b.conv_rect(p + ".b1.conv2b", 384, 256, 3, 1, 1, 1, 0, hw);
    b.conv(p + ".b2.conv1", 1536, 384, 1, 1, 0, hw);
    b.conv_rect(p + ".b2.conv2", 384, 448, 3, 1, 1, 1, 0, hw);
    b.conv_rect(p + ".b2.conv3", 448, 512, 1, 3, 1, 0, 1, hw);
    b.conv_rect(p + ".b2.conv4a", 512, 256, 1, 3, 1, 0, 1, hw);
    b.conv_rect(p + ".b2.conv4b", 512, 256, 3, 1, 1, 1, 0, hw);
    b.conv(p + ".b3.conv", 1536, 256, 1, 1, 0, hw);
  }

  b.linear("last_linear", 1536, 1000);
  return b.build();
}

namespace {

/// Shared VGG builder: `cfg` holds conv output channels, 0 marks a 2x2
/// max-pool.  All convs are 3x3 same-padded and carry biases (no BN in the
/// classic VGG), so their A factors are bias-augmented.
ModelSpec build_vgg(const std::string& name,
                    const std::vector<std::size_t>& cfg,
                    std::size_t default_batch) {
  SpecBuilder b(name, 224, default_batch);
  std::size_t hw = 224;
  std::size_t cin = 3;
  std::size_t conv_idx = 0;
  for (std::size_t cout : cfg) {
    if (cout == 0) {
      hw = pool_out(hw, 2, 2, 0);
      continue;
    }
    ++conv_idx;
    hw = b.conv("conv" + std::to_string(conv_idx), cin, cout, 3, 1, 1, hw);
    cin = cout;
  }
  // Classic VGG classifier head; fc6's 25088(+1)-dim A factor is the
  // largest Kronecker factor in any common CNN.
  b.linear("fc6", 512 * 7 * 7, 4096);
  b.linear("fc7", 4096, 4096);
  b.linear("fc8", 4096, 1000);
  ModelSpec spec = b.build();
  // VGG convs have biases (no BatchNorm).
  for (auto& layer : spec.layers) layer.has_bias = true;
  return spec;
}

}  // namespace

ModelSpec vgg16() {
  return build_vgg("VGG-16",
                   {64, 64, 0, 128, 128, 0, 256, 256, 256, 0, 512, 512, 512,
                    0, 512, 512, 512, 0},
                   /*batch=*/32);
}

ModelSpec vgg19() {
  return build_vgg("VGG-19",
                   {64, 64, 0, 128, 128, 0, 256, 256, 256, 256, 0, 512, 512,
                    512, 512, 0, 512, 512, 512, 512, 0},
                   /*batch=*/32);
}

ModelSpec mlp_spec(std::span<const std::size_t> widths) {
  if (widths.size() < 2) {
    throw std::invalid_argument("mlp_spec: need at least input and output");
  }
  ModelSpec spec;
  spec.name = "mlp";
  spec.input_channels = widths[0];
  spec.input_hw = 1;
  spec.default_batch = 8;
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    LayerSpec layer;
    layer.name = "fc" + std::to_string(i + 1);
    layer.kind = LayerKind::kLinear;
    layer.in_channels = widths[i];
    layer.out_channels = widths[i + 1];
    layer.has_bias = true;
    spec.layers.push_back(layer);
  }
  return spec;
}

ModelSpec conv_spec(std::size_t in_channels, std::size_t image_hw,
                    std::size_t c1, std::size_t c2, std::size_t classes) {
  if (image_hw == 0 || image_hw % 4 != 0) {
    throw std::invalid_argument(
        "conv_spec: image_hw must be a positive multiple of 4");
  }
  if (in_channels == 0 || c1 == 0 || c2 == 0 || classes == 0) {
    throw std::invalid_argument("conv_spec: all widths must be positive");
  }
  ModelSpec spec;
  spec.name = "small-cnn";
  spec.input_channels = in_channels;
  spec.input_hw = image_hw;
  spec.default_batch = 8;

  LayerSpec conv1;
  conv1.name = "conv1";
  conv1.kind = LayerKind::kConv2d;
  conv1.in_channels = in_channels;
  conv1.out_channels = c1;
  conv1.kernel_h = conv1.kernel_w = 3;
  conv1.stride = 1;  // 'same' padding: spatial size preserved
  conv1.out_h = conv1.out_w = image_hw;
  conv1.has_bias = true;
  spec.layers.push_back(conv1);

  LayerSpec conv2 = conv1;
  conv2.name = "conv2";
  conv2.in_channels = c1;
  conv2.out_channels = c2;
  conv2.out_h = conv2.out_w = image_hw / 2;  // after the first 2x2 pool
  spec.layers.push_back(conv2);

  LayerSpec fc;
  fc.name = "fc";
  fc.kind = LayerKind::kLinear;
  fc.in_channels = c2 * (image_hw / 4) * (image_hw / 4);
  fc.out_channels = classes;
  fc.has_bias = true;
  spec.layers.push_back(fc);
  return spec;
}

std::vector<ModelSpec> paper_models() {
  return {resnet50(), resnet152(), densenet201(), inceptionv4()};
}

ModelSpec model_by_name(const std::string& name) {
  std::string key;
  for (char c : name) {
    if (c == '-' || c == '_' || c == ' ') continue;
    key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (key == "resnet50") return resnet50();
  if (key == "resnet152") return resnet152();
  if (key == "densenet201") return densenet201();
  if (key == "inceptionv4") return inceptionv4();
  if (key == "vgg16") return vgg16();
  if (key == "vgg19") return vgg19();
  throw std::invalid_argument("unknown model: " + name);
}

}  // namespace spdkfac::models
