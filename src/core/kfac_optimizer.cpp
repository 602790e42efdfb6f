#include "core/kfac_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "tensor/kernels/kernels.hpp"

namespace spdkfac::core {

using tensor::Matrix;

namespace {

/// out = rows^T rows / rows.rows(), the Kronecker factor of one side.
void build_factor(const Matrix& rows, Matrix& out, const char* missing) {
  if (rows.rows() == 0) throw std::logic_error(missing);
  tensor::gram(rows, out);
  out *= 1.0 / static_cast<double>(rows.rows());
}

}  // namespace

void KfacOptions::validate() const {
  if (factor_update_freq == 0) {
    throw std::invalid_argument(
        "KfacOptions: factor_update_freq must be >= 1");
  }
  if (inverse_update_freq == 0) {
    throw std::invalid_argument(
        "KfacOptions: inverse_update_freq must be >= 1");
  }
  if (!(lr > 0.0)) {
    throw std::invalid_argument("KfacOptions: lr must be positive");
  }
  if (!(damping > 0.0)) {
    throw std::invalid_argument("KfacOptions: damping must be positive");
  }
  if (!(stat_decay >= 0.0) || !(stat_decay < 1.0)) {
    throw std::invalid_argument("KfacOptions: stat_decay must be in [0, 1)");
  }
  if (!(kl_clip >= 0.0) || !std::isfinite(kl_clip)) {
    throw std::invalid_argument(
        "KfacOptions: kl_clip must be finite and >= 0");
  }
}

void compute_factor_a(const nn::PreconditionedLayer& layer, Matrix& out) {
  build_factor(layer.kfac_input(), out,
               "compute_factor_a: no captured forward pass");
}

void compute_factor_g(const nn::PreconditionedLayer& layer, Matrix& out) {
  build_factor(layer.kfac_output_grad(), out,
               "compute_factor_g: no captured backward pass");
}

Matrix compute_factor_a(const nn::PreconditionedLayer& layer) {
  Matrix a;
  compute_factor_a(layer, a);
  return a;
}

Matrix compute_factor_g(const nn::PreconditionedLayer& layer) {
  Matrix g;
  compute_factor_g(layer, g);
  return g;
}

void update_running_average(Matrix& state, const Matrix& fresh,
                            double decay) {
  if (state.empty()) {
    state = fresh;
    return;
  }
  tensor::kernels::active_table().ema(state.data().data(),
                                      fresh.data().data(),
                                      state.data().size(), decay);
}

namespace {

double trace_of(const Matrix& m) {
  double t = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) t += m(i, i);
  return t;
}

}  // namespace

std::pair<double, double> factored_damping(const Matrix& a, const Matrix& g,
                                           double damping) {
  const double mean_a = trace_of(a) / static_cast<double>(a.rows());
  const double mean_g = trace_of(g) / static_cast<double>(g.rows());
  if (mean_a <= 0.0 || mean_g <= 0.0) return {damping, damping};
  const double pi = std::sqrt(mean_a / mean_g);
  const double root = std::sqrt(damping);
  return {pi * root, root / pi};
}

double kl_clip_factor(std::span<const std::span<const double>> deltas,
                      std::span<const Matrix> grads, double lr,
                      double kl_clip) {
  if (kl_clip <= 0.0) return 1.0;
  if (deltas.size() != grads.size()) {
    throw std::invalid_argument("kl_clip_factor: size mismatch");
  }
  double vg_sum = 0.0;
  for (std::size_t l = 0; l < deltas.size(); ++l) {
    const std::span<const double> dd = deltas[l];
    auto gd = grads[l].data();
    if (dd.size() != gd.size()) {
      throw std::invalid_argument("kl_clip_factor: delta shape mismatch");
    }
    double dot = 0.0;
    for (std::size_t i = 0; i < dd.size(); ++i) dot += dd[i] * gd[i];
    vg_sum += lr * lr * dot;
  }
  if (vg_sum <= 0.0) return 1.0;
  return std::min(1.0, std::sqrt(kl_clip / vg_sum));
}

double kl_clip_factor(std::span<const Matrix> deltas,
                      std::span<const Matrix> grads, double lr,
                      double kl_clip) {
  std::vector<std::span<const double>> views;
  views.reserve(deltas.size());
  for (const Matrix& d : deltas) views.push_back(d.data());
  return kl_clip_factor(views, grads, lr, kl_clip);
}

void SgdOptimizer::step() {
  for (nn::PreconditionedLayer* layer : layers_) {
    layer->apply_update(layer->weight_grad(), lr_);
  }
}

KfacOptimizer::KfacOptimizer(std::vector<nn::PreconditionedLayer*> layers,
                             KfacOptions options)
    : layers_(std::move(layers)), options_(options) {
  if (layers_.empty()) {
    throw std::invalid_argument("KfacOptimizer: no preconditioned layers");
  }
  options_.validate();
  state_.resize(layers_.size());
}

void KfacOptimizer::step() {
  const bool update_factors =
      step_count_ % options_.factor_update_freq == 0;
  const bool update_inverses =
      step_count_ % options_.inverse_update_freq == 0;

  std::vector<Matrix> deltas(layers_.size());
  std::vector<Matrix> grads(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    nn::PreconditionedLayer& layer = *layers_[l];
    LayerState& st = state_[l];
    if (update_factors) {
      update_running_average(st.a, compute_factor_a(layer),
                             options_.stat_decay);
      update_running_average(st.g, compute_factor_g(layer),
                             options_.stat_decay);
    }
    if (update_inverses) {
      auto [gamma_a, gamma_g] =
          options_.pi_damping
              ? factored_damping(st.a, st.g, options_.damping)
              : std::pair<double, double>{options_.damping, options_.damping};
      tensor::damped_cholesky_into(st.a, gamma_a, st.a_chol);
      tensor::damped_cholesky_into(st.g, gamma_g, st.g_chol);
    }
    // Precondition: delta = G^-1 * grad * A^-1, two in-place solves.
    grads[l] = layer.weight_grad();
    deltas[l] = grads[l];
    tensor::solve_right(st.a_chol, deltas[l].data());
    tensor::solve_left(st.g_chol, deltas[l].data());
  }
  const double nu =
      kl_clip_factor(deltas, grads, options_.lr, options_.kl_clip);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l]->apply_update(deltas[l], options_.lr * nu);
  }
  ++step_count_;
}

}  // namespace spdkfac::core
