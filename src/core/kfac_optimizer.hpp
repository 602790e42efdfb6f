// Single-process K-FAC optimizer (the numerics of Eq. (12)).
//
// For every preconditioned layer l the optimizer maintains Kronecker factors
//   A_l = a_l^T a_l / rows    (layer-input second moment, bias-augmented)
//   G_l = g_l^T g_l / rows    (pre-activation-gradient second moment)
// as exponential running averages, computes the damped inverses
// (A_l + gamma I)^-1 and (G_l + gamma I)^-1 via Cholesky, and applies
//   W_l <- W_l - lr * G_l^-1 (dL/dW_l) A_l^-1,
// which is the matrix form of Eq. (12) under the Kronecker identity
// (A ⊗ G)^-1 vec(V) = vec(G^-1 V A^-1).
//
// The distributed variants in dist_kfac.hpp produce the same update with the
// local factors/gradients replaced by their cross-worker averages (Eq. 13);
// tests/core assert that equivalence.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.hpp"
#include "tensor/linalg.hpp"
#include "tensor/matrix.hpp"

namespace spdkfac::core {

/// How damped factor inverses are computed.
enum class InverseMethod {
  kCholesky,  ///< direct Cholesky inverse (the paper's cuSolver path)
  kEigen,     ///< Jacobi eigendecomposition; Q diag(1/(l+g)) Q^T (KAISA-style)
};

struct KfacOptions {
  double lr = 0.05;
  double damping = 3e-2;       ///< gamma of Eq. (12)
  double stat_decay = 0.95;    ///< factor running-average decay
  std::size_t factor_update_freq = 1;   ///< recompute A/G every k steps
  std::size_t inverse_update_freq = 1;  ///< re-invert every k steps
  /// KL clipping (Osawa et al., kfac-pytorch): rescale the whole update by
  /// nu = min(1, sqrt(kl_clip / sum_l lr^2 <delta_l, grad_l>)) so the
  /// preconditioned step's approximate KL stays bounded.  0 disables.
  double kl_clip = 0.0;
  InverseMethod inverse_method = InverseMethod::kCholesky;
  /// Factored Tikhonov damping (Martens & Grosse §6.3): split gamma between
  /// the factors as gamma_A = pi*sqrt(gamma), gamma_G = sqrt(gamma)/pi with
  /// pi = sqrt((tr A / d_A) / (tr G / d_G)), equalizing the two factors'
  /// relative regularization.
  bool pi_damping = false;

  /// Throws std::invalid_argument on nonsensical settings: zero update
  /// frequencies, non-positive lr/damping, a stat_decay outside [0, 1), or
  /// a negative/non-finite kl_clip.
  void validate() const;
};

/// Damped inverse via the chosen method; both satisfy
/// (m + damping*I) * result ~= I.
tensor::Matrix damped_inverse_by(const tensor::Matrix& m, double damping,
                                 InverseMethod method);

/// The factored-damping split {gamma_a, gamma_g} of §6.3 (see
/// KfacOptions::pi_damping).  Falls back to {gamma, gamma} when a trace is
/// non-positive.
std::pair<double, double> factored_damping(const tensor::Matrix& a,
                                           const tensor::Matrix& g,
                                           double damping);

/// Computes the KL-clipping factor nu for a set of (delta, grad) pairs.
/// Returns 1.0 when clipping is disabled or the trust measure is <= 0.
/// Each delta is a row-major view of its grad's shape.
double kl_clip_factor(std::span<const std::span<const double>> deltas,
                      std::span<const tensor::Matrix> grads, double lr,
                      double kl_clip);
double kl_clip_factor(std::span<const tensor::Matrix> deltas,
                      std::span<const tensor::Matrix> grads, double lr,
                      double kl_clip);

/// Computes a layer's local Kronecker factors from its captured rows.
tensor::Matrix compute_factor_a(const nn::PreconditionedLayer& layer);
tensor::Matrix compute_factor_g(const nn::PreconditionedLayer& layer);

/// The same factors built into `out`, reallocated only when its shape
/// differs (tensor::gram) — bitwise equal to the returning forms.
void compute_factor_a(const nn::PreconditionedLayer& layer,
                      tensor::Matrix& out);
void compute_factor_g(const nn::PreconditionedLayer& layer,
                      tensor::Matrix& out);

/// Folds `fresh` into running average `state` with the given decay
/// (initializes state on first use).
void update_running_average(tensor::Matrix& state,
                            const tensor::Matrix& fresh, double decay);

/// Plain SGD on the same layer set — the paper's first-order baseline.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(std::vector<nn::PreconditionedLayer*> layers,
                        double lr = 0.1)
      : layers_(std::move(layers)), lr_(lr) {}

  /// Applies w -= lr * grad using the gradients of the last backward pass.
  void step();

 private:
  std::vector<nn::PreconditionedLayer*> layers_;
  double lr_;
};

class KfacOptimizer {
 public:
  /// Throws std::invalid_argument on an empty layer list or options that
  /// KfacOptions::validate() rejects.
  KfacOptimizer(std::vector<nn::PreconditionedLayer*> layers,
                KfacOptions options = {});

  /// One optimization step; call after forward + backward populated the
  /// layers' captured rows and gradients.
  void step();

  std::size_t steps() const noexcept { return step_count_; }

  // Introspection (tests, distributed-equivalence checks).
  const tensor::Matrix& factor_a(std::size_t l) const {
    return state_[l].a;
  }
  const tensor::Matrix& factor_g(std::size_t l) const {
    return state_[l].g;
  }
  const tensor::Matrix& inverse_a(std::size_t l) const {
    return state_[l].a_inv;
  }
  const tensor::Matrix& inverse_g(std::size_t l) const {
    return state_[l].g_inv;
  }
  std::size_t num_layers() const noexcept { return layers_.size(); }

 private:
  struct LayerState {
    tensor::Matrix a, g;          // running-average factors
    tensor::Matrix a_inv, g_inv;  // damped inverses
  };

  std::vector<nn::PreconditionedLayer*> layers_;
  KfacOptions options_;
  std::vector<LayerState> state_;
  std::size_t step_count_ = 0;
};

}  // namespace spdkfac::core
