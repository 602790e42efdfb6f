#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "exec/context.hpp"
#include "exec/grain.hpp"
#include "tensor/kernels/kernels.hpp"

namespace spdkfac::nn {

using tensor::Matrix;
namespace kernels = tensor::kernels;

namespace {

/// Makes `m` rows x cols, reallocating only on a shape change; the
/// contents are then unspecified, so every caller overwrites them.
void reshape(Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() != rows || m.cols() != cols) m = Matrix(rows, cols);
}

/// c = a^T b (a and b share their row count), split by rows of c on the
/// ambient pool.  Every chunk streams all of b (a whole batch of rows), so
/// c splits in two halves of whole 4-row tiles rather than matmul_tn's
/// many small chunks: a second compute thread can take one half, and b is
/// read twice instead of once per chunk.  Each element accumulates k
/// ascending inside one gemm_tn call, so the bits do not depend on the
/// split or the pool.
void weight_gradient(const Matrix& a, const Matrix& b, Matrix& c) {
  reshape(c, a.cols(), b.cols());
  if (a.rows() == 0) {
    c.set_zero();
    return;
  }
  const std::size_t half = ((c.rows() + 1) / 2 + 3) / 4 * 4;
  const auto& kt = kernels::active_table();
  exec::parallel_for(c.rows(), half, [&](std::size_t i0, std::size_t i1) {
    std::fill(c.row_ptr(i0), c.row_ptr(i0) + (i1 - i0) * c.cols(), 0.0);
    kt.gemm_tn(i1 - i0, a.rows(), b.cols(), a.row_ptr(0) + i0, a.cols(),
               b.row_ptr(0), b.cols(), c.row_ptr(i0), c.cols());
  });
}

/// A half-open index range [lo, hi).
struct Span {
  std::size_t lo, hi;
};

/// The kernel taps t in [0, kernel) with 0 <= origin + t < extent: the
/// part of one window row, starting at input column `origin` (negative
/// inside the left padding), that lands on the input.
Span taps_inside(std::ptrdiff_t origin, std::size_t kernel,
                 std::size_t extent) {
  const auto k = static_cast<std::ptrdiff_t>(kernel);
  const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-origin, 0, k);
  const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(extent) - origin, lo, k);
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

/// The outputs o in [0, count) whose input index o * stride + tap -
/// padding lies in [0, extent), for one kernel tap offset `tap`.
Span outputs_inside(std::size_t tap, std::size_t count, std::size_t extent,
                    std::size_t stride, std::size_t padding) {
  // o * stride + tap >= padding  and  o * stride + tap < extent + padding.
  const std::size_t lo =
      tap >= padding ? 0 : (padding - tap + stride - 1) / stride;
  const std::size_t end = extent + padding;
  const std::size_t hi = tap >= end ? 0 : (end - tap + stride - 1) / stride;
  const std::size_t clamped_lo = std::min(lo, count);
  return {clamped_lo, std::clamp(hi, clamped_lo, count)};
}

}  // namespace

void PreconditionedLayer::apply_update(const Matrix& delta, double lr) {
  const Matrix& w = weight();
  if (delta.rows() != w.rows() || delta.cols() != w.cols()) {
    throw std::invalid_argument("apply_update: delta shape mismatch");
  }
  apply_update(delta.data(), lr);
}

void PreconditionedLayer::apply_update(std::span<const double> delta,
                                       double lr) {
  auto wd = weight().data();
  if (delta.size() != wd.size()) {
    throw std::invalid_argument("apply_update: delta shape mismatch");
  }
  for (std::size_t i = 0; i < wd.size(); ++i) wd[i] -= lr * delta[i];
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(std::string name, std::size_t in_features,
               std::size_t out_features, bool bias, tensor::Rng& rng)
    : name_(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      bias_(bias) {
  const double stddev = 1.0 / std::sqrt(static_cast<double>(in_features));
  weight_ = tensor::random_normal(out_features, dim_a(), rng, 0.0, stddev);
  if (bias_) {
    // Zero-initialize the bias column.
    for (std::size_t r = 0; r < out_features_; ++r) {
      weight_(r, dim_a() - 1) = 0.0;
    }
  }
  weight_grad_ = Matrix(out_features_, dim_a());
}

Tensor4D Linear::forward(const Tensor4D& input) {
  input.require_shape(input.n, in_features_, 1, 1);
  const std::size_t n = input.n, da = dim_a();
  reshape(input_rows_, n, da);
  for (std::size_t i = 0; i < n; ++i) {
    double* dst = input_rows_.row_ptr(i);
    std::copy_n(input.sample(i).data(), in_features_, dst);
    if (bias_) dst[da - 1] = 1.0;
  }
  // (n, out, 1, 1) is the row-major n x out matrix, so the GEMM writes it.
  Tensor4D out(n, out_features_, 1, 1);
  if (n > 0) {
    kernels::active_table().gemm_nt(n, da, out_features_,
                                    input_rows_.row_ptr(0), da,
                                    weight_.row_ptr(0), da, out.data.data(),
                                    out_features_);
  }
  return out;
}

Tensor4D Linear::backward(const Tensor4D& grad_output) {
  grad_output.require_shape(grad_output.n, out_features_, 1, 1);
  const std::size_t n = grad_output.n;
  if (input_rows_.rows() != n) {
    throw std::logic_error("Linear::backward before forward");
  }
  reshape(output_grad_rows_, n, out_features_);
  std::copy(grad_output.data.begin(), grad_output.data.end(),
            output_grad_rows_.data().begin());
  weight_gradient(output_grad_rows_, input_rows_, weight_grad_);

  // dX = dY * W without the bias column, written straight into grad_in.
  Tensor4D grad_in(n, in_features_, 1, 1);
  if (n > 0) {
    kernels::active_table().gemm_nn(n, out_features_, in_features_,
                                    output_grad_rows_.row_ptr(0),
                                    out_features_, weight_.row_ptr(0),
                                    dim_a(), grad_in.data.data(),
                                    in_features_);
  }
  return grad_in;
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, bool bias,
               tensor::Rng& rng)
    : name_(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      bias_(bias) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2d: kernel and stride must be >= 1");
  }
  const double fan_in =
      static_cast<double>(in_channels * kernel * kernel);
  weight_ =
      tensor::random_normal(out_channels, dim_a(), rng, 0.0,
                            1.0 / std::sqrt(fan_in));
  if (bias_) {
    for (std::size_t r = 0; r < out_channels_; ++r) {
      weight_(r, dim_a() - 1) = 0.0;
    }
  }
  weight_grad_ = Matrix(out_channels_, dim_a());
}

Tensor4D Conv2d::forward(const Tensor4D& input) {
  if (input.c != in_channels_) {
    throw std::invalid_argument("Conv2d: wrong input channels");
  }
  if (input.h + 2 * padding_ < kernel_ || input.w + 2 * padding_ < kernel_) {
    throw std::invalid_argument("Conv2d: padded input smaller than kernel");
  }
  const std::size_t n = input.n, h = input.h, w = input.w;
  const std::size_t oh = out_h(h), ow = out_h(w), positions = oh * ow;
  const std::size_t da = dim_a();
  last_n_ = n;
  last_h_ = h;
  last_w_ = w;

  // Per sample: im2col its rows, then rows * W^T (oh*ow x cout) while
  // they are still in cache, transposed into the sample's NCHW block.  The
  // bits equal one whole-batch patches * W^T; keeping the small W as the
  // streamed operand beats W * patches^T on these shapes.  Samples are
  // independent, so chunks of them run on the ambient pool, each with its
  // own product buffer.  Chunk bounds depend only on the shape, and each
  // sample's outputs are written by its own chunk alone, so the bits do
  // not depend on the pool.
  reshape(patches_, n * positions, da);
  Tensor4D out(n, out_channels_, oh, ow);
  const auto& kt = kernels::active_table();
  const std::size_t ops = positions * da * out_channels_;
  exec::parallel_for(n, exec::grain_for_ops(ops), [&](std::size_t n0,
                                                      std::size_t n1) {
    std::vector<double> product(positions * out_channels_);
    for (std::size_t ni = n0; ni < n1; ++ni) {
      double* rows = patches_.row_ptr(ni * positions);
      im2col(input.sample(ni).data(), h, w, rows);
      std::fill(product.begin(), product.end(), 0.0);
      kt.gemm_nt(positions, da, out_channels_, rows, da, weight_.row_ptr(0),
                 da, product.data(), out_channels_);
      kt.transpose(product.data(), positions, out_channels_, out_channels_,
                   out.sample(ni).data(), positions);
    }
  });
  return out;
}

void Conv2d::im2col(const double* sample, std::size_t h, std::size_t w,
                    double* rows) const {
  // One row per output position, one column per (cin, kh, kw), filled a
  // column at a time so each inner loop walks one input row; every
  // element is written, padding taps as 0.
  const std::size_t oh = out_h(h), ow = out_h(w), da = dim_a();
  for (std::size_t ci = 0; ci < in_channels_; ++ci) {
    const double* plane = sample + ci * h * w;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      const Span ys = outputs_inside(ky, oh, h, stride_, padding_);
      for (std::size_t kx = 0; kx < kernel_; ++kx) {
        const Span xs = outputs_inside(kx, ow, w, stride_, padding_);
        double* col = rows + (ci * kernel_ + ky) * kernel_ + kx;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          double* dst = col + oy * ow * da;
          if (oy < ys.lo || oy >= ys.hi) {
            for (std::size_t ox = 0; ox < ow; ++ox) dst[ox * da] = 0.0;
            continue;
          }
          // Input column of output ox: ox * stride + kx - padding.
          const double* row = plane + (oy * stride_ + ky - padding_) * w;
          std::size_t ox = 0;
          for (; ox < xs.lo; ++ox) dst[ox * da] = 0.0;
          for (; ox < xs.hi; ++ox) {
            dst[ox * da] = row[ox * stride_ + kx - padding_];
          }
          for (; ox < ow; ++ox) dst[ox * da] = 0.0;
        }
      }
    }
  }
  if (bias_) {
    for (std::size_t r = 0; r < oh * ow; ++r) rows[r * da + da - 1] = 1.0;
  }
}

Tensor4D Conv2d::backward(const Tensor4D& grad_output) {
  // forward() shapes patches_ to dim_a columns; before it, it is 0 x 0.
  if (patches_.cols() != dim_a()) {
    throw std::logic_error("Conv2d::backward before forward");
  }
  const std::size_t n = last_n_, h = last_h_, w = last_w_;
  const std::size_t oh = out_h(h), ow = out_h(w), positions = oh * ow;
  grad_output.require_shape(n, out_channels_, oh, ow);

  // Each sample's NCHW block (cout x oh*ow) transposes into its rows.
  const auto& kt = kernels::active_table();
  reshape(output_grad_rows_, n * positions, out_channels_);
  exec::parallel_for(n, exec::grain_for_ops(positions * out_channels_),
                     [&](std::size_t n0, std::size_t n1) {
    for (std::size_t ni = n0; ni < n1; ++ni) {
      kt.transpose(grad_output.sample(ni).data(), out_channels_, positions,
                   positions, output_grad_rows_.row_ptr(ni * positions),
                   out_channels_);
    }
  });
  weight_gradient(output_grad_rows_, patches_, weight_grad_);

  // col2im per sample: dPatches = dY * W (bias column dropped), then
  // scattered back onto the sample's input grid in output-position order.
  // Chunks of samples run on the ambient pool, each with its own patches.
  const std::size_t taps = in_channels_ * kernel_ * kernel_;
  Tensor4D grad_in(n, in_channels_, h, w);
  const std::size_t ops = positions * out_channels_ * taps;
  exec::parallel_for(n, exec::grain_for_ops(ops), [&](std::size_t n0,
                                                      std::size_t n1) {
    std::vector<double> grad_patches(positions * taps);
    for (std::size_t ni = n0; ni < n1; ++ni) {
      std::fill(grad_patches.begin(), grad_patches.end(), 0.0);
      kt.gemm_nn(positions, out_channels_, taps,
                 output_grad_rows_.row_ptr(ni * positions), out_channels_,
                 weight_.row_ptr(0), dim_a(), grad_patches.data(), taps);
      double* sample = grad_in.sample(ni).data();
      for (std::size_t oy = 0; oy < oh; ++oy) {
        const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy * stride_) -
                                   static_cast<std::ptrdiff_t>(padding_);
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::ptrdiff_t ix0 =
              static_cast<std::ptrdiff_t>(ox * stride_) -
              static_cast<std::ptrdiff_t>(padding_);
          const Span kx = taps_inside(ix0, kernel_, w);
          const double* src = grad_patches.data() + (oy * ow + ox) * taps;
          for (std::size_t ci = 0; ci < in_channels_; ++ci) {
            double* plane = sample + ci * h * w;
            for (std::size_t ky = 0; ky < kernel_; ++ky, src += kernel_) {
              const std::ptrdiff_t iy =
                  iy0 + static_cast<std::ptrdiff_t>(ky);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              double* row = plane + static_cast<std::size_t>(iy) * w;
              for (std::size_t t = kx.lo; t < kx.hi; ++t) {
                row[static_cast<std::size_t>(ix0) + t] += src[t];
              }
            }
          }
        }
      }
    }
  });
  return grad_in;
}

// ---------------------------------------------------------------------------
// ReLU / MaxPool2d / Flatten
// ---------------------------------------------------------------------------

Tensor4D ReLU::forward(const Tensor4D& input) {
  in_n_ = input.n;
  in_c_ = input.c;
  in_h_ = input.h;
  in_w_ = input.w;
  Tensor4D out = input;
  // Two branch-free passes: a byte store may alias any double, so one
  // loop writing both the mask and the output would not vectorize.
  const std::size_t count = out.count();
  mask_.resize(count);
  const double* in = input.data.data();
  std::uint8_t* mask = mask_.data();
  for (std::size_t i = 0; i < count; ++i) mask[i] = in[i] > 0.0;
  double* x = out.data.data();
  for (std::size_t i = 0; i < count; ++i) {
    const double v = x[i];
    x[i] = v > 0.0 ? v : 0.0;
  }
  return out;
}

Tensor4D ReLU::backward(const Tensor4D& grad_output) {
  grad_output.require_shape(in_n_, in_c_, in_h_, in_w_);
  Tensor4D grad_in = grad_output;
  const std::size_t count = grad_in.count();
  double* g = grad_in.data.data();
  const std::uint8_t* mask = mask_.data();
  for (std::size_t i = 0; i < count; ++i) {
    const double v = g[i];
    g[i] = mask[i] != 0 ? v : 0.0;
  }
  return grad_in;
}

Tensor4D MaxPool2d::forward(const Tensor4D& input) {
  in_n_ = input.n;
  in_c_ = input.c;
  in_h_ = input.h;
  in_w_ = input.w;
  const std::size_t h = input.h, w = input.w, oh = h / 2, ow = w / 2;
  Tensor4D out(input.n, input.c, oh, ow);
  argmax_.resize(out.count());
  double* best_out = out.data.data();
  std::size_t* arg_out = argmax_.data();
  for (std::size_t p = 0; p < input.n * input.c; ++p) {
    const double* plane = input.data.data() + p * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const std::size_t top = 2 * oy * w;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        // Window order (0,0), (0,1), (1,0), (1,1); strict > keeps the
        // first maximum and never picks a later NaN.
        const std::size_t cand[4] = {top + 2 * ox, top + 2 * ox + 1,
                                     top + w + 2 * ox, top + w + 2 * ox + 1};
        double best = plane[cand[0]];
        std::size_t arg = cand[0];
        for (int t = 1; t < 4; ++t) {
          const double v = plane[cand[t]];
          const bool greater = v > best;
          best = greater ? v : best;
          arg = greater ? cand[t] : arg;
        }
        *best_out++ = best;
        *arg_out++ = arg;
      }
    }
  }
  return out;
}

Tensor4D MaxPool2d::backward(const Tensor4D& grad_output) {
  const std::size_t oh = in_h_ / 2, ow = in_w_ / 2;
  grad_output.require_shape(in_n_, in_c_, oh, ow);
  Tensor4D grad_in(in_n_, in_c_, in_h_, in_w_);
  const std::size_t plane = in_h_ * in_w_, outputs = oh * ow;
  const double* g = grad_output.data.data();
  const std::size_t* arg = argmax_.data();
  for (std::size_t p = 0; p < in_n_ * in_c_; ++p) {
    double* dst = grad_in.data.data() + p * plane;
    for (std::size_t o = 0; o < outputs; ++o) dst[*arg++] += *g++;
  }
  return grad_in;
}

Tensor4D Flatten::forward(const Tensor4D& input) {
  in_c_ = input.c;
  in_h_ = input.h;
  in_w_ = input.w;
  Tensor4D out(input.n, input.per_sample(), 1, 1);
  out.data = input.data;  // NCHW layout flattens contiguously per sample
  return out;
}

Tensor4D Flatten::backward(const Tensor4D& grad_output) {
  Tensor4D grad_in(grad_output.n, in_c_, in_h_, in_w_);
  grad_in.data = grad_output.data;
  return grad_in;
}

// ---------------------------------------------------------------------------
// SoftmaxCrossEntropy
// ---------------------------------------------------------------------------

double SoftmaxCrossEntropy::forward(const Tensor4D& logits,
                                    std::span<const int> labels) {
  if (labels.size() != logits.n) {
    throw std::invalid_argument("SoftmaxCrossEntropy: labels size mismatch");
  }
  probs_ = logits;
  labels_.assign(labels.begin(), labels.end());
  const std::size_t classes = logits.per_sample();
  double loss = 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < logits.n; ++i) {
    auto row = probs_.sample(i);
    const double maxv = *std::max_element(row.begin(), row.end());
    const std::size_t argmax = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
    double sum = 0.0;
    for (double& v : row) {
      v = std::exp(v - maxv);
      sum += v;
    }
    for (double& v : row) v /= sum;
    const int label = labels_[i];
    if (label < 0 || static_cast<std::size_t>(label) >= classes) {
      throw std::invalid_argument("SoftmaxCrossEntropy: label out of range");
    }
    loss -= std::log(std::max(row[label], 1e-300));
    if (argmax == static_cast<std::size_t>(label)) ++correct;
  }
  accuracy_ = static_cast<double>(correct) / static_cast<double>(logits.n);
  return loss / static_cast<double>(logits.n);
}

Tensor4D SoftmaxCrossEntropy::backward() const {
  Tensor4D grad = probs_;
  const double inv_n = 1.0 / static_cast<double>(grad.n);
  for (std::size_t i = 0; i < grad.n; ++i) {
    auto row = grad.sample(i);
    row[labels_[i]] -= 1.0;
    for (double& v : row) v *= inv_n;
  }
  return grad;
}

// ---------------------------------------------------------------------------
// Sequential + factories
// ---------------------------------------------------------------------------

void Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
}

Tensor4D Sequential::forward(const Tensor4D& input) {
  return forward(input, PassHooks{});
}

Tensor4D Sequential::backward(const Tensor4D& grad_output) {
  return backward(grad_output, PassHooks{});
}

Tensor4D Sequential::forward(const Tensor4D& input, const PassHooks& hooks) {
  Tensor4D x = input;
  std::size_t precond_index = 0;
  for (auto& layer : layers_) {
    x = layer->forward(x);
    if (auto* p = dynamic_cast<PreconditionedLayer*>(layer.get())) {
      if (hooks.after_forward) hooks.after_forward(precond_index, *p);
      ++precond_index;
    }
  }
  return x;
}

Tensor4D Sequential::backward(const Tensor4D& grad_output,
                              const PassHooks& hooks) {
  // Count preconditioned layers so indices descend L-1 .. 0 as the backward
  // pass visits them (deepest first).
  std::size_t precond_index = 0;
  for (const auto& layer : layers_) {
    if (dynamic_cast<PreconditionedLayer*>(layer.get()) != nullptr) {
      ++precond_index;
    }
  }
  Tensor4D g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
    if (auto* p = dynamic_cast<PreconditionedLayer*>(it->get())) {
      --precond_index;
      if (hooks.after_backward) hooks.after_backward(precond_index, *p);
    }
  }
  return g;
}

std::vector<PreconditionedLayer*> Sequential::preconditioned_layers() const {
  std::vector<PreconditionedLayer*> out;
  for (const auto& layer : layers_) {
    if (auto* p = dynamic_cast<PreconditionedLayer*>(layer.get())) {
      out.push_back(p);
    }
  }
  return out;
}

Sequential make_mlp(std::span<const std::size_t> widths, tensor::Rng& rng) {
  if (widths.size() < 2) {
    throw std::invalid_argument("make_mlp: need at least input and output");
  }
  Sequential model;
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    model.add(std::make_unique<Linear>("fc" + std::to_string(i + 1),
                                       widths[i], widths[i + 1],
                                       /*bias=*/true, rng));
    if (i + 2 < widths.size()) {
      model.add(std::make_unique<ReLU>("relu" + std::to_string(i + 1)));
    }
  }
  return model;
}

Sequential make_small_cnn(std::size_t in_channels, std::size_t image_hw,
                          std::size_t c1, std::size_t c2, std::size_t classes,
                          tensor::Rng& rng) {
  Sequential model;
  model.add(std::make_unique<Conv2d>("conv1", in_channels, c1, 3, 1, 1,
                                     /*bias=*/true, rng));
  model.add(std::make_unique<ReLU>("relu1"));
  model.add(std::make_unique<MaxPool2d>("pool1"));
  model.add(std::make_unique<Conv2d>("conv2", c1, c2, 3, 1, 1,
                                     /*bias=*/true, rng));
  model.add(std::make_unique<ReLU>("relu2"));
  model.add(std::make_unique<MaxPool2d>("pool2"));
  model.add(std::make_unique<Flatten>("flatten"));
  const std::size_t hw = image_hw / 4;
  model.add(std::make_unique<Linear>("fc", c2 * hw * hw, classes,
                                     /*bias=*/true, rng));
  return model;
}

}  // namespace spdkfac::nn
