// CPU neural-network layers with K-FAC capture hooks.
//
// The distributed optimizer needs real numerics: layer inputs `a` and
// pre-activation output gradients `g` captured during forward/backward
// (PyTorch's register_forward_pre_hook / register_backward_hook in the
// paper's implementation, Section V-A).  PreconditionedLayer exposes exactly
// that surface: a row matrix of K-FAC inputs (rows x dim_a, bias column
// appended when the layer has one) and a row matrix of output gradients
// (rows x dim_g), from which the optimizer builds the Kronecker factors
// A = a^T a / rows and G = g^T g / rows.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor4d.hpp"
#include "tensor/matrix.hpp"
#include "tensor/random.hpp"

namespace spdkfac::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor4D forward(const Tensor4D& input) = 0;
  /// Consumes dL/d(output), returns dL/d(input).  Must be called after
  /// forward() on the same input.
  virtual Tensor4D backward(const Tensor4D& grad_output) = 0;

  virtual const std::string& name() const noexcept = 0;
};

/// A layer whose parameters K-FAC preconditions (conv / linear).
///
/// Weights are stored as a single matrix W of shape (dim_g, dim_a); when the
/// layer has a bias, the last column of W is the bias (the input is
/// implicitly augmented with a constant 1), matching the homogeneous-
/// coordinates formulation of Martens & Grosse.
class PreconditionedLayer : public Layer {
 public:
  virtual std::size_t dim_a() const noexcept = 0;
  virtual std::size_t dim_g() const noexcept = 0;

  virtual tensor::Matrix& weight() noexcept = 0;
  virtual const tensor::Matrix& weight() const noexcept = 0;
  virtual const tensor::Matrix& weight_grad() const noexcept = 0;

  /// K-FAC input rows captured by the last forward() (rows x dim_a).
  /// This, kfac_output_grad() and weight_grad() live in storage the layer
  /// keeps across passes: a pass at an unchanged batch shape rewrites them
  /// in place, and only a shape change reallocates them.
  virtual const tensor::Matrix& kfac_input() const noexcept = 0;
  /// Output-gradient rows captured by the last backward() (rows x dim_g).
  virtual const tensor::Matrix& kfac_output_grad() const noexcept = 0;

  /// w <- w - lr * delta, where delta has the weight's shape (or, as a
  /// span, its size in row order).
  void apply_update(const tensor::Matrix& delta, double lr);
  void apply_update(std::span<const double> delta, double lr);
};

// ---------------------------------------------------------------------------

/// Fully-connected layer: y = W [x; 1].
class Linear final : public PreconditionedLayer {
 public:
  Linear(std::string name, std::size_t in_features, std::size_t out_features,
         bool bias, tensor::Rng& rng);

  Tensor4D forward(const Tensor4D& input) override;
  Tensor4D backward(const Tensor4D& grad_output) override;

  const std::string& name() const noexcept override { return name_; }
  std::size_t dim_a() const noexcept override {
    return in_features_ + (bias_ ? 1 : 0);
  }
  std::size_t dim_g() const noexcept override { return out_features_; }
  tensor::Matrix& weight() noexcept override { return weight_; }
  const tensor::Matrix& weight() const noexcept override { return weight_; }
  const tensor::Matrix& weight_grad() const noexcept override {
    return weight_grad_;
  }
  const tensor::Matrix& kfac_input() const noexcept override {
    return input_rows_;
  }
  const tensor::Matrix& kfac_output_grad() const noexcept override {
    return output_grad_rows_;
  }

 private:
  std::string name_;
  std::size_t in_features_, out_features_;
  bool bias_;
  tensor::Matrix weight_;       // (out, in [+1])
  tensor::Matrix weight_grad_;  // same shape
  tensor::Matrix input_rows_;   // (batch, in [+1])
  tensor::Matrix output_grad_rows_;  // (batch, out)
};

/// 2D convolution implemented via im2col; weights (cout, cin*kh*kw [+1]).
/// Forward and backward run their GEMMs one sample at a time, in chunks of
/// samples split across the ambient exec pool (exec::Context), each chunk
/// with its own scratch; the results are bitwise the same on every pool.
/// The constructor rejects kernel or stride 0, and forward() a padded
/// input smaller than the kernel (std::invalid_argument).
class Conv2d final : public PreconditionedLayer {
 public:
  Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         bool bias, tensor::Rng& rng);

  Tensor4D forward(const Tensor4D& input) override;
  Tensor4D backward(const Tensor4D& grad_output) override;

  const std::string& name() const noexcept override { return name_; }
  std::size_t dim_a() const noexcept override {
    return in_channels_ * kernel_ * kernel_ + (bias_ ? 1 : 0);
  }
  std::size_t dim_g() const noexcept override { return out_channels_; }
  tensor::Matrix& weight() noexcept override { return weight_; }
  const tensor::Matrix& weight() const noexcept override { return weight_; }
  const tensor::Matrix& weight_grad() const noexcept override {
    return weight_grad_;
  }
  const tensor::Matrix& kfac_input() const noexcept override {
    return patches_;
  }
  const tensor::Matrix& kfac_output_grad() const noexcept override {
    return output_grad_rows_;
  }

  std::size_t out_h(std::size_t in_h) const noexcept {
    return (in_h + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  /// Writes one sample's oh*ow patch rows (dim_a columns each) at `rows`.
  void im2col(const double* sample, std::size_t h, std::size_t w,
              double* rows) const;

  std::string name_;
  std::size_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool bias_;
  tensor::Matrix weight_;
  tensor::Matrix weight_grad_;
  tensor::Matrix patches_;           // (n*oh*ow, dim_a)
  tensor::Matrix output_grad_rows_;  // (n*oh*ow, cout)
  // Shapes of the last forward, needed to fold gradients back (col2im).
  std::size_t last_n_ = 0, last_h_ = 0, last_w_ = 0;
};

/// Element-wise max(0, x); NaN and -0 map to +0.
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}
  Tensor4D forward(const Tensor4D& input) override;
  Tensor4D backward(const Tensor4D& grad_output) override;
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_;
  std::vector<std::uint8_t> mask_;  // 1 where the input was > 0
  std::size_t in_n_ = 0, in_c_ = 0, in_h_ = 0, in_w_ = 0;
};

/// Non-overlapping 2x2 max pooling (stride 2).  The first maximum in
/// row-major window order wins ties, and a NaN wins only as the window's
/// first element (a strict > never selects one later).
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::string name = "maxpool") : name_(std::move(name)) {}
  Tensor4D forward(const Tensor4D& input) override;
  Tensor4D backward(const Tensor4D& grad_output) override;
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_;
  std::vector<std::size_t> argmax_;  // winner's offset in its (n, c) plane
  std::size_t in_n_ = 0, in_c_ = 0, in_h_ = 0, in_w_ = 0;
};

/// Collapses (n, c, h, w) -> (n, c*h*w, 1, 1).
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}
  Tensor4D forward(const Tensor4D& input) override;
  Tensor4D backward(const Tensor4D& grad_output) override;
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_;
  std::size_t in_c_ = 0, in_h_ = 0, in_w_ = 0;
};

// ---------------------------------------------------------------------------

/// Softmax + mean cross-entropy over a batch of logits (n, classes, 1, 1).
class SoftmaxCrossEntropy {
 public:
  /// Returns mean loss; stores softmax probabilities for backward().
  double forward(const Tensor4D& logits, std::span<const int> labels);
  /// dL/dlogits of the mean loss (already scaled by 1/n).
  Tensor4D backward() const;

  /// Fraction of samples whose argmax matches the label (of last forward).
  double accuracy() const noexcept { return accuracy_; }

 private:
  Tensor4D probs_;
  std::vector<int> labels_;
  double accuracy_ = 0.0;
};

/// Callbacks fired around preconditioned layers during a pass — the
/// equivalent of PyTorch's register_forward_pre_hook /
/// register_backward_hook that the paper's SPDKFACOptimizer installs
/// (Section V-A, Fig. 6).  The index is the layer's position within
/// preconditioned_layers().
///
/// after_forward fires once the layer's K-FAC input rows are captured (the
/// factor A_l is computable); after_backward fires once its output-gradient
/// rows and weight gradient are captured (G_l and the gradient are
/// computable).  Either callback may be empty.
struct PassHooks {
  std::function<void(std::size_t, PreconditionedLayer&)> after_forward;
  std::function<void(std::size_t, PreconditionedLayer&)> after_backward;
};

/// Ordered layer container with shared-seed deterministic initialization.
class Sequential {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Layer> layer);

  Tensor4D forward(const Tensor4D& input);
  Tensor4D backward(const Tensor4D& grad_output);

  /// Pass variants that fire `hooks` at each preconditioned layer, enabling
  /// communication/computation overlap inside the passes themselves.
  Tensor4D forward(const Tensor4D& input, const PassHooks& hooks);
  Tensor4D backward(const Tensor4D& grad_output, const PassHooks& hooks);

  /// All preconditioned (conv/linear) layers in network order — what the
  /// K-FAC optimizer operates on.
  std::vector<PreconditionedLayer*> preconditioned_layers() const;

  std::size_t size() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Small reference architectures used by tests/examples.
Sequential make_mlp(std::span<const std::size_t> widths, tensor::Rng& rng);

/// conv(3x3,cin->c1) relu pool conv(3x3,c1->c2) relu pool flatten linear.
Sequential make_small_cnn(std::size_t in_channels, std::size_t image_hw,
                          std::size_t c1, std::size_t c2, std::size_t classes,
                          tensor::Rng& rng);

}  // namespace spdkfac::nn
