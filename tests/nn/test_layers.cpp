#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "exec/thread_pool.hpp"
#include "tensor/kernels/kernels.hpp"
#include "testsupport/matrix_helpers.hpp"

namespace spdkfac::nn {
namespace {

using tensor::Matrix;
using tensor::Rng;
namespace kernels = tensor::kernels;

TEST(Linear, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear fc("fc", 2, 2, /*bias=*/true, rng);
  fc.weight() = tensor::Matrix{{1.0, 2.0, 0.5}, {-1.0, 0.0, 1.0}};
  Tensor4D x(1, 2, 1, 1);
  x.data = {3.0, 4.0};
  Tensor4D y = fc.forward(x);
  EXPECT_DOUBLE_EQ(y.data[0], 1.0 * 3 + 2.0 * 4 + 0.5);
  EXPECT_DOUBLE_EQ(y.data[1], -3.0 + 1.0);
}

TEST(Linear, CapturesBiasAugmentedInput) {
  Rng rng(2);
  Linear fc("fc", 3, 2, /*bias=*/true, rng);
  Tensor4D x(2, 3, 1, 1);
  x.data = {1, 2, 3, 4, 5, 6};
  fc.forward(x);
  const tensor::Matrix& rows = fc.kfac_input();
  ASSERT_EQ(rows.rows(), 2u);
  ASSERT_EQ(rows.cols(), 4u);
  EXPECT_EQ(rows(0, 0), 1.0);
  EXPECT_EQ(rows(0, 3), 1.0);  // bias column
  EXPECT_EQ(rows(1, 2), 6.0);
  EXPECT_EQ(rows(1, 3), 1.0);
}

TEST(Linear, NoBiasHasNoAugmentation) {
  Rng rng(3);
  Linear fc("fc", 3, 2, /*bias=*/false, rng);
  EXPECT_EQ(fc.dim_a(), 3u);
  Tensor4D x(1, 3, 1, 1);
  x.data = {1, 2, 3};
  fc.forward(x);
  EXPECT_EQ(fc.kfac_input().cols(), 3u);
}

TEST(Linear, BackwardCapturesOutputGrads) {
  Rng rng(4);
  Linear fc("fc", 2, 3, true, rng);
  Tensor4D x(2, 2, 1, 1);
  x.data = {1, 2, 3, 4};
  fc.forward(x);
  Tensor4D dy(2, 3, 1, 1);
  dy.data = {1, 0, -1, 0.5, 0.5, 0};
  fc.backward(dy);
  const tensor::Matrix& g = fc.kfac_output_grad();
  ASSERT_EQ(g.rows(), 2u);
  ASSERT_EQ(g.cols(), 3u);
  EXPECT_EQ(g(0, 2), -1.0);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(5);
  Linear fc("fc", 2, 2, true, rng);
  Tensor4D dy(1, 2, 1, 1);
  EXPECT_THROW(fc.backward(dy), std::logic_error);
}

TEST(Linear, ApplyUpdateShiftsWeights) {
  Rng rng(6);
  Linear fc("fc", 2, 2, false, rng);
  tensor::Matrix before = fc.weight();
  tensor::Matrix delta(2, 2, 1.0);
  fc.apply_update(delta, 0.1);
  EXPECT_NEAR(fc.weight()(0, 0), before(0, 0) - 0.1, 1e-12);
}

TEST(Conv2d, OutputShapeWithPaddingAndStride) {
  Rng rng(7);
  Conv2d conv("c", 3, 8, 3, 2, 1, false, rng);
  Tensor4D x(2, 3, 8, 8);
  Tensor4D y = conv.forward(x);
  EXPECT_EQ(y.n, 2u);
  EXPECT_EQ(y.c, 8u);
  EXPECT_EQ(y.h, 4u);
  EXPECT_EQ(y.w, 4u);
}

TEST(Conv2d, IdentityKernelPreservesInput) {
  Rng rng(8);
  Conv2d conv("c", 1, 1, 3, 1, 1, false, rng);
  conv.weight().set_zero();
  conv.weight()(0, 4) = 1.0;  // center tap of the 3x3 kernel
  Tensor4D x(1, 1, 5, 5);
  for (std::size_t i = 0; i < x.data.size(); ++i) x.data[i] = i * 0.5;
  Tensor4D y = conv.forward(x);
  for (std::size_t i = 0; i < x.data.size(); ++i) {
    EXPECT_DOUBLE_EQ(y.data[i], x.data[i]);
  }
}

TEST(Conv2d, KnownSumKernel) {
  Rng rng(9);
  Conv2d conv("c", 1, 1, 2, 1, 0, false, rng);
  conv.weight() = tensor::Matrix(1, 4, 1.0);  // sums each 2x2 patch
  Tensor4D x(1, 1, 2, 2);
  x.data = {1, 2, 3, 4};
  Tensor4D y = conv.forward(x);
  ASSERT_EQ(y.h, 1u);
  EXPECT_DOUBLE_EQ(y.data[0], 10.0);
}

TEST(Conv2d, PatchMatrixHasBiasColumn) {
  Rng rng(10);
  Conv2d conv("c", 2, 4, 3, 1, 1, /*bias=*/true, rng);
  Tensor4D x(1, 2, 4, 4);
  conv.forward(x);
  const tensor::Matrix& patches = conv.kfac_input();
  EXPECT_EQ(patches.rows(), 16u);
  EXPECT_EQ(patches.cols(), 2u * 9 + 1);
  for (std::size_t r = 0; r < patches.rows(); ++r) {
    EXPECT_EQ(patches(r, patches.cols() - 1), 1.0);
  }
}

TEST(Conv2d, WrongChannelCountThrows) {
  Rng rng(11);
  Conv2d conv("c", 3, 4, 3, 1, 1, false, rng);
  Tensor4D x(1, 2, 4, 4);
  EXPECT_THROW(conv.forward(x), std::invalid_argument);
}

TEST(Conv2d, RejectsZeroKernelOrStride) {
  Rng rng(12);
  EXPECT_THROW(Conv2d("c", 1, 2, 0, 1, 0, true, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d("c", 1, 2, 3, 0, 1, true, rng), std::invalid_argument);
}

TEST(Conv2d, RejectsInputSmallerThanKernel) {
  // h + 2 * padding < kernel used to wrap the unsigned output extent: an
  // empty output at stride 1, an out-of-bounds write at stride 2.
  Rng rng(14);
  for (const std::size_t stride : {1u, 2u}) {
    Conv2d conv("c", 1, 2, 3, stride, 0, true, rng);
    EXPECT_THROW(conv.forward(Tensor4D(1, 1, 2, 2)), std::invalid_argument);
    EXPECT_THROW(conv.forward(Tensor4D(1, 1, 5, 2)), std::invalid_argument);
    EXPECT_THROW(conv.forward(Tensor4D(1, 1, 2, 5)), std::invalid_argument);
  }
  // Padding that covers the kernel is fine: a 3x3 kernel on a 1x1 input.
  Conv2d padded("c", 1, 2, 3, 2, 1, true, rng);
  const Tensor4D y = padded.forward(Tensor4D(1, 1, 1, 1));
  EXPECT_EQ(y.h, 1u);
  EXPECT_EQ(y.w, 1u);
}

TEST(Conv2d, BackwardBeforeForwardThrowsLogicError) {
  Rng rng(15);
  Conv2d conv("c", 1, 2, 3, 1, 1, true, rng);
  // std::invalid_argument is a std::logic_error too: the shape check must
  // not be what fires.
  try {
    conv.backward(Tensor4D(1, 2, 4, 4));
    ADD_FAILURE() << "backward before forward did not throw";
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "shape check fired instead: " << e.what();
  } catch (const std::logic_error&) {
  }
}

TEST(ReLU, ZeroesNegativesAndMasksGradients) {
  ReLU relu;
  Tensor4D x(1, 1, 2, 2);
  x.data = {-1.0, 2.0, 0.0, 3.0};
  Tensor4D y = relu.forward(x);
  EXPECT_EQ(y.data, (std::vector<double>{0, 2, 0, 3}));
  Tensor4D dy(1, 1, 2, 2);
  dy.data = {5, 5, 5, 5};
  Tensor4D dx = relu.backward(dy);
  EXPECT_EQ(dx.data, (std::vector<double>{0, 5, 0, 5}));
}

TEST(MaxPool2d, SelectsMaxAndRoutesGradient) {
  MaxPool2d pool;
  Tensor4D x(1, 1, 2, 2);
  x.data = {1, 5, 3, 2};
  Tensor4D y = pool.forward(x);
  ASSERT_EQ(y.count(), 1u);
  EXPECT_EQ(y.data[0], 5.0);
  Tensor4D dy(1, 1, 1, 1);
  dy.data = {7.0};
  Tensor4D dx = pool.backward(dy);
  EXPECT_EQ(dx.data, (std::vector<double>{0, 7, 0, 0}));
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  Tensor4D x(2, 3, 2, 2);
  for (std::size_t i = 0; i < x.data.size(); ++i) x.data[i] = i;
  Tensor4D y = flat.forward(x);
  EXPECT_EQ(y.c, 12u);
  EXPECT_EQ(y.h, 1u);
  Tensor4D back = flat.backward(y);
  EXPECT_TRUE(back.same_shape(x));
  EXPECT_EQ(back.data, x.data);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor4D logits(2, 4, 1, 1);  // all zeros -> uniform softmax
  std::vector<int> labels{0, 3};
  const double l = loss.forward(logits, labels);
  EXPECT_NEAR(l, std::log(4.0), 1e-12);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerSample) {
  SoftmaxCrossEntropy loss;
  Tensor4D logits(3, 5, 1, 1);
  tensor::Rng rng(13);
  tensor::fill_normal(logits.data, rng);
  std::vector<int> labels{1, 4, 0};
  loss.forward(logits, labels);
  Tensor4D grad = loss.backward();
  for (std::size_t i = 0; i < 3; ++i) {
    double sum = 0;
    for (double v : grad.sample(i)) sum += v;
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
}

TEST(SoftmaxCrossEntropy, AccuracyTracksArgmax) {
  SoftmaxCrossEntropy loss;
  Tensor4D logits(2, 2, 1, 1);
  logits.data = {5.0, 0.0, 0.0, 5.0};  // predicts class 0 then class 1
  std::vector<int> labels{0, 0};
  loss.forward(logits, labels);
  EXPECT_DOUBLE_EQ(loss.accuracy(), 0.5);
}

TEST(SoftmaxCrossEntropy, BadLabelThrows) {
  SoftmaxCrossEntropy loss;
  Tensor4D logits(1, 2, 1, 1);
  std::vector<int> labels{7};
  EXPECT_THROW(loss.forward(logits, labels), std::invalid_argument);
}

TEST(Sequential, CollectsPreconditionedLayers) {
  Rng rng(17);
  Sequential model = make_small_cnn(1, 8, 4, 8, 3, rng);
  const auto layers = model.preconditioned_layers();
  ASSERT_EQ(layers.size(), 3u);  // conv, conv, fc
  EXPECT_EQ(layers[0]->dim_g(), 4u);
  EXPECT_EQ(layers[2]->dim_g(), 3u);
}

TEST(Sequential, MlpForwardShape) {
  Rng rng(19);
  const std::size_t widths[] = {6, 8, 4};
  Sequential mlp = make_mlp(widths, rng);
  Tensor4D x(5, 6, 1, 1);
  Tensor4D y = mlp.forward(x);
  EXPECT_EQ(y.n, 5u);
  EXPECT_EQ(y.c, 4u);
}

TEST(Sequential, IdenticalSeedsGiveIdenticalWeights) {
  Rng rng_a(123), rng_b(123);
  const std::size_t widths[] = {4, 6, 2};
  Sequential a = make_mlp(widths, rng_a);
  Sequential b = make_mlp(widths, rng_b);
  const auto la = a.preconditioned_layers();
  const auto lb = b.preconditioned_layers();
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(la[i]->weight(), lb[i]->weight()), 0.0);
  }
}

TEST(Sequential, MakeMlpRejectsTooFewWidths) {
  Rng rng(23);
  const std::size_t widths[] = {4};
  EXPECT_THROW(make_mlp(widths, rng), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Loop references: the element-by-element implementations Conv2d, Linear,
// ReLU and MaxPool2d had before they kept their buffers and wrote GEMM
// output in place.  The layers must reproduce them bit for bit at every
// ISA level, special values included.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

struct PassResult {
  Tensor4D out, grad_in;
  Matrix kfac_input, kfac_output_grad, weight_grad;
};

PassResult conv_reference(const Matrix& weight, std::size_t kernel,
                          std::size_t stride, std::size_t padding, bool bias,
                          const Tensor4D& input,
                          const Tensor4D& grad_output) {
  const std::size_t n = input.n, cin = input.c, h = input.h, w = input.w;
  const std::size_t cout = weight.rows(), da = weight.cols();
  const std::size_t oh = (h + 2 * padding - kernel) / stride + 1;
  const std::size_t ow = (w + 2 * padding - kernel) / stride + 1;
  const auto inside = [&](std::ptrdiff_t iy, std::ptrdiff_t ix) {
    return iy >= 0 && ix >= 0 && iy < static_cast<std::ptrdiff_t>(h) &&
           ix < static_cast<std::ptrdiff_t>(w);
  };
  const auto origin = [&](std::size_t o, std::size_t k) {
    return static_cast<std::ptrdiff_t>(o * stride + k) -
           static_cast<std::ptrdiff_t>(padding);
  };
  PassResult r;
  r.kfac_input = Matrix(n * oh * ow, da);
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        double* dst = r.kfac_input.row_ptr((ni * oh + oy) * ow + ox);
        std::size_t col = 0;
        for (std::size_t ci = 0; ci < cin; ++ci) {
          for (std::size_t ky = 0; ky < kernel; ++ky) {
            for (std::size_t kx = 0; kx < kernel; ++kx, ++col) {
              const std::ptrdiff_t iy = origin(oy, ky), ix = origin(ox, kx);
              dst[col] = inside(iy, ix)
                             ? input.at(ni, ci, static_cast<std::size_t>(iy),
                                        static_cast<std::size_t>(ix))
                             : 0.0;
            }
          }
        }
        if (bias) dst[da - 1] = 1.0;
      }
    }
  }
  const Matrix out_rows = testsupport::matmul_nt(r.kfac_input, weight);
  r.out = Tensor4D(n, cout, oh, ow);
  r.kfac_output_grad = Matrix(n * oh * ow, cout);
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t row = (ni * oh + oy) * ow + ox;
        for (std::size_t co = 0; co < cout; ++co) {
          r.out.at(ni, co, oy, ox) = out_rows(row, co);
          r.kfac_output_grad(row, co) = grad_output.at(ni, co, oy, ox);
        }
      }
    }
  }
  r.weight_grad = tensor::matmul_tn(r.kfac_output_grad, r.kfac_input);
  const Matrix grad_patches = tensor::matmul(r.kfac_output_grad, weight);
  r.grad_in = Tensor4D(n, cin, h, w);
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const double* src = grad_patches.row_ptr((ni * oh + oy) * ow + ox);
        std::size_t col = 0;
        for (std::size_t ci = 0; ci < cin; ++ci) {
          for (std::size_t ky = 0; ky < kernel; ++ky) {
            for (std::size_t kx = 0; kx < kernel; ++kx, ++col) {
              const std::ptrdiff_t iy = origin(oy, ky), ix = origin(ox, kx);
              if (!inside(iy, ix)) continue;
              r.grad_in.at(ni, ci, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix)) += src[col];
            }
          }
        }
      }
    }
  }
  return r;
}

PassResult linear_reference(const Matrix& weight, bool bias,
                            const Tensor4D& input,
                            const Tensor4D& grad_output) {
  const std::size_t n = input.n, in = input.c, out = weight.rows();
  PassResult r;
  r.kfac_input = Matrix(n, weight.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < in; ++j) r.kfac_input(i, j) = input.sample(i)[j];
    if (bias) r.kfac_input(i, in) = 1.0;
  }
  const Matrix out_rows = testsupport::matmul_nt(r.kfac_input, weight);
  r.out = Tensor4D(n, out, 1, 1);
  r.kfac_output_grad = Matrix(n, out);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      r.out.sample(i)[j] = out_rows(i, j);
      r.kfac_output_grad(i, j) = grad_output.sample(i)[j];
    }
  }
  r.weight_grad = tensor::matmul_tn(r.kfac_output_grad, r.kfac_input);
  const Matrix grad_in_rows = tensor::matmul(r.kfac_output_grad, weight);
  r.grad_in = Tensor4D(n, in, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < in; ++j) r.grad_in.sample(i)[j] = grad_in_rows(i, j);
  }
  return r;
}

PassResult relu_reference(const Tensor4D& input, const Tensor4D& grad_output) {
  PassResult r;
  r.out = input;
  std::vector<bool> mask(input.count(), false);
  for (std::size_t i = 0; i < r.out.data.size(); ++i) {
    if (r.out.data[i] > 0.0) {
      mask[i] = true;
    } else {
      r.out.data[i] = 0.0;
    }
  }
  r.grad_in = grad_output;
  for (std::size_t i = 0; i < r.grad_in.data.size(); ++i) {
    if (!mask[i]) r.grad_in.data[i] = 0.0;
  }
  return r;
}

PassResult maxpool_reference(const Tensor4D& input,
                             const Tensor4D& grad_output) {
  const std::size_t oh = input.h / 2, ow = input.w / 2;
  PassResult r;
  r.out = Tensor4D(input.n, input.c, oh, ow);
  r.grad_in = Tensor4D(input.n, input.c, input.h, input.w);
  for (std::size_t ni = 0; ni < input.n; ++ni) {
    for (std::size_t ci = 0; ci < input.c; ++ci) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double best = input.at(ni, ci, 2 * oy, 2 * ox);
          std::size_t best_y = 2 * oy, best_x = 2 * ox;
          for (std::size_t dy = 0; dy < 2; ++dy) {
            for (std::size_t dx = 0; dx < 2; ++dx) {
              const double v = input.at(ni, ci, 2 * oy + dy, 2 * ox + dx);
              if (v > best) {
                best = v;
                best_y = 2 * oy + dy;
                best_x = 2 * ox + dx;
              }
            }
          }
          r.out.at(ni, ci, oy, ox) = best;
          r.grad_in.at(ni, ci, best_y, best_x) += grad_output.at(ni, ci, oy, ox);
        }
      }
    }
  }
  return r;
}

/// Runs one forward + backward pass of `layer`.
PassResult run_pass(Layer& layer, const Tensor4D& input,
                    const Tensor4D& grad_output) {
  PassResult r;
  r.out = layer.forward(input);
  r.grad_in = layer.backward(grad_output);
  if (auto* p = dynamic_cast<PreconditionedLayer*>(&layer)) {
    r.kfac_input = p->kfac_input();
    r.kfac_output_grad = p->kfac_output_grad();
    r.weight_grad = p->weight_grad();
  }
  return r;
}

/// Same bits, or NaN on both sides: when two NaNs meet in one addition,
/// the sign and payload that survive follow the operand order the compiler
/// emits, which the C++ source does not fix (col2im sums an inf - inf NaN
/// with a propagated input NaN when the input holds both).
void expect_same_bits(std::span<const double> got,
                      std::span<const double> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool same = std::memcmp(&got[i], &want[i], sizeof(double)) == 0 ||
                      (std::isnan(got[i]) && std::isnan(want[i]));
    if (!same) {
      ADD_FAILURE() << what << " differs at " << i << ": " << got[i]
                    << " vs " << want[i];
      return;
    }
  }
}

void expect_same_pass(const PassResult& got, const PassResult& want,
                      const std::string& what) {
  ASSERT_TRUE(got.out.same_shape(want.out)) << what;
  ASSERT_TRUE(got.grad_in.same_shape(want.grad_in)) << what;
  expect_same_bits(got.out.data, want.out.data, what + " output");
  expect_same_bits(got.grad_in.data, want.grad_in.data, what + " input grad");
  const std::pair<const Matrix*, const Matrix*> mats[] = {
      {&got.kfac_input, &want.kfac_input},
      {&got.kfac_output_grad, &want.kfac_output_grad},
      {&got.weight_grad, &want.weight_grad}};
  const char* names[] = {" kfac_input", " kfac_output_grad", " weight_grad"};
  for (std::size_t m = 0; m < 3; ++m) {
    ASSERT_EQ(mats[m].first->rows(), mats[m].second->rows()) << what;
    ASSERT_EQ(mats[m].first->cols(), mats[m].second->cols()) << what;
    expect_same_bits(mats[m].first->data(), mats[m].second->data(),
                     what + names[m]);
  }
}

Tensor4D random_tensor(std::size_t n, std::size_t c, std::size_t h,
                       std::size_t w, Rng& rng) {
  Tensor4D t(n, c, h, w);
  tensor::fill_normal(t.data, rng);
  return t;
}

/// Overwrites a spread of elements with NaN, +-inf and +-0.
void sprinkle_specials(Tensor4D& t) {
  const double specials[] = {kNan, kInf, -kInf, -0.0, 0.0};
  const std::size_t count = t.count();
  for (std::size_t s = 0; s < 5; ++s) {
    t.data[(s * 2 + 1) * count / 11] = specials[s];
  }
}

std::string describe(const char* layer, std::initializer_list<std::size_t> v) {
  std::string s = layer;
  for (const std::size_t x : v) {
    s += ' ';
    s += std::to_string(x);
  }
  return s;
}

/// Runs each test at one ISA level, restoring the previous level after.
class LayerOracle : public ::testing::TestWithParam<kernels::Isa> {
 protected:
  void SetUp() override {
    saved_ = kernels::active();
    kernels::force(GetParam());
  }
  void TearDown() override { kernels::force(saved_); }

 private:
  kernels::Isa saved_ = kernels::Isa::kScalar;
};

TEST_P(LayerOracle, Conv2dMatchesLoopReference) {
  Rng rng(31);
  const std::size_t cin = 2, cout = 5, h = 7, w = 5;
  for (const std::size_t kernel : {1u, 3u, 5u}) {
    for (const std::size_t stride : {1u, 2u}) {
      for (const std::size_t padding : {0u, 1u, 2u}) {
        for (const bool bias : {false, true}) {
          for (const std::size_t n : {1u, 3u}) {
            for (const bool specials : {false, true}) {
              Conv2d conv("c", cin, cout, kernel, stride, padding, bias, rng);
              tensor::fill_normal(conv.weight().data(), rng);
              Tensor4D x = random_tensor(n, cin, h, w, rng);
              const std::size_t oh = conv.out_h(h), ow = conv.out_h(w);
              Tensor4D dy = random_tensor(n, cout, oh, ow, rng);
              if (specials) {
                sprinkle_specials(x);
                sprinkle_specials(dy);
              }
              const PassResult want = conv_reference(
                  conv.weight(), kernel, stride, padding, bias, x, dy);
              expect_same_pass(run_pass(conv, x, dy), want,
                               describe("conv k/s/p/bias/n/specials",
                                        {kernel, stride, padding, bias, n,
                                         specials}));
            }
          }
        }
      }
    }
  }
}

TEST_P(LayerOracle, LinearMatchesLoopReference) {
  Rng rng(32);
  for (const std::size_t in : {1u, 7u, 16u}) {
    for (const std::size_t out : {1u, 5u, 10u}) {
      for (const bool bias : {false, true}) {
        for (const std::size_t n : {1u, 3u}) {
          for (const bool specials : {false, true}) {
            Linear fc("fc", in, out, bias, rng);
            tensor::fill_normal(fc.weight().data(), rng);
            Tensor4D x = random_tensor(n, in, 1, 1, rng);
            Tensor4D dy = random_tensor(n, out, 1, 1, rng);
            if (specials) {
              sprinkle_specials(x);
              sprinkle_specials(dy);
            }
            const PassResult want = linear_reference(fc.weight(), bias, x, dy);
            expect_same_pass(run_pass(fc, x, dy), want,
                             describe("linear in/out/bias/n/specials",
                                      {in, out, bias, n, specials}));
          }
        }
      }
    }
  }
}

TEST_P(LayerOracle, ReluMatchesLoopReference) {
  Rng rng(33);
  for (const std::size_t n : {1u, 3u}) {
    Tensor4D x = random_tensor(n, 3, 7, 5, rng);
    Tensor4D dy = random_tensor(n, 3, 7, 5, rng);
    sprinkle_specials(x);
    sprinkle_specials(dy);
    x.data[1] = -0.0;  // ReLU(-0) must come out +0
    ReLU relu;
    expect_same_pass(run_pass(relu, x, dy), relu_reference(x, dy),
                     describe("relu n", {n}));
  }
}

TEST_P(LayerOracle, MaxPoolMatchesLoopReference) {
  Rng rng(34);
  for (const std::size_t n : {1u, 3u}) {
    // Values from {-1, -0, +0, 1} tie inside most windows; odd H and W
    // leave a row and a column that no window covers.
    Tensor4D x(n, 3, 7, 5);
    const double values[] = {-1.0, -0.0, 0.0, 1.0};
    for (double& v : x.data) v = values[rng() % 4];
    sprinkle_specials(x);
    x.data[0] = kNan;  // a NaN first in its window wins it
    Tensor4D dy = random_tensor(n, 3, 3, 2, rng);
    sprinkle_specials(dy);
    MaxPool2d pool;
    expect_same_pass(run_pass(pool, x, dy), maxpool_reference(x, dy),
                     describe("maxpool n", {n}));
  }
}

TEST_P(LayerOracle, Conv2dPassesBitwiseEqualOnEveryPool) {
  // The bench CNN's two convolutions.  Chunks of samples, and the weight
  // gradient's rows, split across whichever pool is ambient (here, as in
  // the runtime, the pool the calling thread is a member of); the bits must
  // be those of the serial pass.
  struct Shape {
    std::size_t cin, cout, hw;
  };
  const Shape shapes[] = {{3, 16, 16}, {16, 32, 8}};
  Rng rng(51);
  for (const Shape& s : shapes) {
    for (const std::size_t n : {1u, 5u, 33u}) {
      Conv2d conv("c", s.cin, s.cout, 3, 1, 1, /*bias=*/true, rng);
      const Tensor4D x = random_tensor(n, s.cin, s.hw, s.hw, rng);
      const Tensor4D dy = random_tensor(n, s.cout, s.hw, s.hw, rng);
      PassResult serial;
      {
        const exec::Context forced_serial(nullptr);
        serial = run_pass(conv, x, dy);
      }
      for (const std::size_t workers : {1u, 2u, 4u}) {
        exec::ThreadPool pool(workers);
        const exec::ThreadPool::Member member(pool);
        ASSERT_EQ(exec::Context::current_pool(), &pool);
        expect_same_pass(run_pass(conv, x, dy), serial,
                         describe("conv cin/cout/n/workers",
                                  {s.cin, s.cout, n, workers}));
      }
    }
  }
}

std::vector<kernels::Isa> supported_levels() {
  std::vector<kernels::Isa> levels{kernels::Isa::kScalar};
  if (kernels::supported(kernels::Isa::kAvx2)) {
    levels.push_back(kernels::Isa::kAvx2);
  }
  return levels;
}

INSTANTIATE_TEST_SUITE_P(
    Levels, LayerOracle, ::testing::ValuesIn(supported_levels()),
    [](const ::testing::TestParamInfo<kernels::Isa>& info) {
      return std::string(kernels::to_string(info.param));
    });

// ---------------------------------------------------------------------------
// Persistent layer buffers.

/// The storage a PreconditionedLayer's K-FAC buffers live in.
struct BufferAddresses {
  const double* kfac_input;
  const double* kfac_output_grad;
  const double* weight_grad;
  bool operator==(const BufferAddresses&) const = default;
};

BufferAddresses addresses(const PreconditionedLayer& layer) {
  return {layer.kfac_input().data().data(),
          layer.kfac_output_grad().data().data(),
          layer.weight_grad().data().data()};
}

/// A Conv2d and a Linear with their input and output-gradient shapes.
struct LayerCase {
  std::unique_ptr<PreconditionedLayer> layer;
  std::size_t c, h, w, out_c, out_h, out_w;
};

std::vector<LayerCase> buffer_cases(Rng& rng) {
  std::vector<LayerCase> cases;
  cases.push_back({std::make_unique<Conv2d>("conv", 2, 4, 3, 1, 1, true, rng),
                   2, 6, 5, 4, 6, 5});
  cases.push_back(
      {std::make_unique<Linear>("fc", 7, 3, true, rng), 7, 1, 1, 3, 1, 1});
  return cases;
}

TEST(LayerBuffers, KeepStorageAcrossStepsAtOneShape) {
  Rng rng(41);
  for (LayerCase& lc : buffer_cases(rng)) {
    BufferAddresses first{};
    for (int step = 0; step < 3; ++step) {
      run_pass(*lc.layer, random_tensor(4, lc.c, lc.h, lc.w, rng),
               random_tensor(4, lc.out_c, lc.out_h, lc.out_w, rng));
      if (step == 0) {
        first = addresses(*lc.layer);
      } else {
        EXPECT_TRUE(addresses(*lc.layer) == first)
            << lc.layer->name() << " step " << step;
      }
    }
  }
}

TEST(LayerBuffers, BatchChangeReallocatesAndMatchesFreshLayer) {
  Rng rng(42), fresh_rng(43);
  std::vector<LayerCase> cases = buffer_cases(rng);
  std::vector<LayerCase> fresh_cases = buffer_cases(fresh_rng);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const LayerCase& lc = cases[i];
    PreconditionedLayer& layer = *lc.layer;
    run_pass(layer, random_tensor(4, lc.c, lc.h, lc.w, rng),
             random_tensor(4, lc.out_c, lc.out_h, lc.out_w, rng));
    const BufferAddresses before = addresses(layer);
    const std::size_t rows_before = layer.kfac_input().rows();

    const Tensor4D x = random_tensor(2, lc.c, lc.h, lc.w, rng);
    const Tensor4D dy = random_tensor(2, lc.out_c, lc.out_h, lc.out_w, rng);
    const PassResult got = run_pass(layer, x, dy);
    EXPECT_EQ(layer.kfac_input().rows(), rows_before / 2) << layer.name();
    EXPECT_NE(addresses(layer).kfac_input, before.kfac_input) << layer.name();
    EXPECT_NE(addresses(layer).kfac_output_grad, before.kfac_output_grad)
        << layer.name();

    PreconditionedLayer& fresh = *fresh_cases[i].layer;
    fresh.weight() = layer.weight();
    expect_same_pass(got, run_pass(fresh, x, dy), layer.name());
  }
}

}  // namespace
}  // namespace spdkfac::nn
