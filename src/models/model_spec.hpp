// Shape-level DNN architecture specifications.
//
// SPD-KFAC's scheduling decisions (fusion, placement, CT/NCT) depend only on
// the *sequence of layer dimensions* of the trained model: Kronecker-factor
// sizes, parameter counts and per-layer FLOPs.  This module describes every
// KFAC-preconditioned layer (convolutions and the final fully-connected
// layer; pooling/BN/activations carry no preconditioned parameters) of the
// four CNNs evaluated in the paper (Table II):
//
//   Model         #Params  #Layers  Batch  sum(A) upper-tri  sum(G) upper-tri
//   ResNet-50      25.6M      54      32       62.3M             14.6M
//   ResNet-152     60.2M     156       8      162.0M             32.9M
//   DenseNet-201   20.0M     201      16      131.0M             18.0M
//   Inception-v4   42.7M     150      16      116.4M              4.7M
//
// Conventions (validated against the paper's reported numbers in
// tests/models): factor A of a conv layer has dimension Cin*KH*KW (no bias
// augmentation — BN follows every conv, e.g. the paper's largest ResNet-50
// factor 4608 = 512*3*3 and smallest 64 give exactly the quoted 10,619,136
// and 2,080 packed element counts); the fully-connected layer carries a bias
// and its A dimension is in_features + 1.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace spdkfac::models {

enum class LayerKind { kConv2d, kLinear };

/// One KFAC-preconditioned layer.
struct LayerSpec {
  std::string name;
  LayerKind kind = LayerKind::kConv2d;

  std::size_t in_channels = 0;   ///< Cin (or in_features for linear)
  std::size_t out_channels = 0;  ///< Cout (or out_features for linear)
  std::size_t kernel_h = 1;
  std::size_t kernel_w = 1;
  std::size_t stride = 1;
  std::size_t out_h = 1;  ///< output spatial height (1 for linear)
  std::size_t out_w = 1;
  bool has_bias = false;

  /// Kronecker factor A dimension: Cin*KH*KW (+1 with bias).
  std::size_t dim_a() const noexcept {
    return in_channels * kernel_h * kernel_w + (has_bias ? 1 : 0);
  }
  /// Kronecker factor G dimension: Cout.
  std::size_t dim_g() const noexcept { return out_channels; }

  /// Trainable parameter count (weights + bias).
  std::size_t params() const noexcept {
    return in_channels * kernel_h * kernel_w * out_channels +
           (has_bias ? out_channels : 0);
  }

  /// Packed upper-triangle element counts of the symmetric factors —
  /// exactly what the paper communicates (Section V-B).
  std::size_t a_elements() const noexcept {
    const std::size_t d = dim_a();
    return d * (d + 1) / 2;
  }
  std::size_t g_elements() const noexcept {
    const std::size_t d = dim_g();
    return d * (d + 1) / 2;
  }

  /// Spatial positions per sample the layer produces (T in KFC notation).
  std::size_t spatial_positions() const noexcept { return out_h * out_w; }

  /// Forward multiply-add FLOPs for a batch of `batch` samples
  /// (2 * N * T * Cout * Cin*KH*KW).
  double fwd_flops(std::size_t batch) const noexcept;

  /// Backward FLOPs (grad-input + grad-weight GEMMs ~= 2x forward).
  double bwd_flops(std::size_t batch) const noexcept;

  /// FLOPs of building factor A = a^T a (rows = N*T, dim = dim_a).
  double factor_a_flops(std::size_t batch) const noexcept;

  /// FLOPs of building factor G = g^T g (rows = N*T, dim = dim_g).
  double factor_g_flops(std::size_t batch) const noexcept;
};

/// A full model: ordered list of preconditioned layers, front (input side)
/// to back (classifier).
struct ModelSpec {
  std::string name;
  std::size_t input_channels = 3;
  std::size_t input_hw = 224;
  std::size_t default_batch = 32;  ///< per-GPU batch size of Table II
  std::vector<LayerSpec> layers;

  std::size_t num_layers() const noexcept { return layers.size(); }
  std::size_t total_params() const noexcept;
  std::size_t total_a_elements() const noexcept;
  std::size_t total_g_elements() const noexcept;
  double total_fwd_flops(std::size_t batch) const noexcept;
  double total_bwd_flops(std::size_t batch) const noexcept;

  /// Packed sizes of all 2L Kronecker factors in schedule order
  /// (A_0..A_{L-1} then G_L..G_1) — the Fig. 3 distribution.
  std::vector<std::size_t> factor_packed_sizes() const;

  /// Dimensions of all 2L factors (A dims then G dims, layer order).
  std::vector<std::size_t> factor_dims() const;
};

/// The four CNNs of Table II, with the paper's per-GPU batch sizes.
ModelSpec resnet50();
ModelSpec resnet152();
ModelSpec densenet201();
ModelSpec inceptionv4();

/// Extensions beyond the paper's model set (classic K-FAC benchmarks used
/// by Martens & Grosse / Osawa et al.); handy for scheduling what-ifs —
/// VGG's enormous fully-connected factors stress the CT path.
ModelSpec vgg16();
ModelSpec vgg19();

/// Fully-connected spec mirroring nn::make_mlp(widths): one biased linear
/// layer per consecutive width pair.  Gives schedule-level tooling (the
/// planner, the simulator, the sched equivalence suite) the exact shape of
/// the runtime MLPs used by tests and examples.
ModelSpec mlp_spec(std::span<const std::size_t> widths);

/// Convolutional spec mirroring nn::make_small_cnn(in_channels, image_hw,
/// c1, c2, classes): conv(3x3, same) -> pool -> conv(3x3, same) -> pool ->
/// linear, all biased — the same layer dims, parameter counts and packed
/// factor sizes as the runtime network, so plans are exercised on non-MLP
/// shapes (mixed Conv2d/Linear factor dimensions).  Throws
/// std::invalid_argument unless image_hw is a positive multiple of 4 (two
/// 2x2 poolings).
ModelSpec conv_spec(std::size_t in_channels, std::size_t image_hw,
                    std::size_t c1, std::size_t c2, std::size_t classes);

/// All four Table II models, in the paper's presentation order.
std::vector<ModelSpec> paper_models();

/// Lookup by case-insensitive name ("resnet50", "resnet-50", ...).  Throws
/// std::invalid_argument for unknown names.
ModelSpec model_by_name(const std::string& name);

}  // namespace spdkfac::models
