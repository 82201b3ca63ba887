// Minimal dense neural-network substrate: fully-connected layers, common
// activations, MSE loss and the Adam optimiser. This is the training engine
// behind the Magnifier-style autoencoders (autoencoder.hpp) and the VAE
// (vae.hpp). Inputs here are 4-50 dimensional flow-feature vectors, so a
// layer is a few hundred multiply-adds and its cost is add latency, not
// arithmetic. Every pass therefore runs minibatch-major over row-major
// blocks with up to eight independent accumulator chains, while each
// element keeps the floating-point operation order of the textbook
// per-sample loop, so results are bit-identical to it (DESIGN.md §4a
// "Dense-layer kernels").
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.hpp"
#include "ml/rng.hpp"

namespace iguard::ml {

enum class Activation { kLinear, kRelu, kSigmoid, kTanh };

double apply_activation(Activation a, double z);
/// Derivative expressed in terms of the *activated* output y = f(z).
double activation_grad_from_output(Activation a, double y);

/// One fully-connected layer `y = f(W x + b)` with Adam state. The layer
/// holds parameters only; activations live in the caller's row-major
/// buffers (`n` rows of in_dim() or out_dim() values).
class DenseLayer {
 public:
  DenseLayer(std::size_t in, std::size_t out, Activation act, Rng& rng);

  std::size_t in_dim() const { return w_.cols(); }
  std::size_t out_dim() const { return w_.rows(); }
  Activation activation() const { return act_; }

  /// Forward n rows of x into n rows of y. Const: concurrent calls on one
  /// layer are race-free.
  void forward(const double* x, std::size_t n, double* y) const;
  /// Forward one sample (an n = 1 call); resizes y.
  void forward(std::span<const double> x, std::vector<double>& y) const;

  /// Backward over the n rows of a forward(x, n, y) call. On entry dz holds
  /// dL/dy; it is overwritten with dL/dz. Accumulates the parameter
  /// gradients over the rows in order and writes dL/dx unless dx is null.
  void backward(const double* x, const double* y, double* dz, std::size_t n, double* dx);

  /// Adam update with the accumulated gradients (averaged over `batch`),
  /// then clears the accumulators.
  void step(double lr, std::size_t batch, std::size_t t, double beta1 = 0.9,
            double beta2 = 0.999, double eps = 1e-8);

  const Matrix& weights() const { return w_; }
  const std::vector<double>& bias() const { return b_; }
  /// Adam moments {m_W, v_W, m_b, v_b}, for comparison against a reference.
  std::array<std::span<const double>, 4> adam_moments() const {
    return {mw_.flat(), vw_.flat(), mb_, vb_};
  }

 private:
  void transpose_weights();

  Matrix w_;                   // out x in
  std::vector<double> wt_;     // w_ transposed (in x out), read by forward
  std::vector<double> b_;      // out
  Activation act_;
  // Gradient accumulators and Adam moments.
  Matrix gw_, mw_, vw_;
  std::vector<double> gb_, mb_, vb_;
};

/// A feed-forward stack of dense layers trained with MSE loss.
class Mlp {
 public:
  /// `dims` = {in, h1, ..., out}; `acts.size() == dims.size() - 1`.
  Mlp(std::span<const std::size_t> dims, std::span<const Activation> acts, Rng& rng);
  Mlp() = default;

  std::size_t in_dim() const;
  std::size_t out_dim() const;

  /// Forward one sample, keeping its activations for backward(); the
  /// returned output is valid until the next forward or training call.
  std::span<const double> forward(std::span<const double> x);

  /// Inference-only forward pass of n rows (n x in_dim(), row-major) into
  /// caller-owned buffers: `out` receives n x out_dim() values and `scratch`
  /// holds the intermediate layers. Leaves the network untouched, so
  /// concurrent calls on one const Mlp are race-free.
  void forward_const(const double* x, std::size_t n, std::vector<double>& out,
                     std::vector<double>& scratch) const;
  /// One sample (an n = 1 call).
  void forward_const(std::span<const double> x, std::vector<double>& out,
                     std::vector<double>& scratch) const;

  /// One minibatch of (x -> target) pairs with MSE loss; returns mean loss.
  double train_batch(const Matrix& x, const Matrix& target,
                     std::span<const std::size_t> idx, double lr);

  /// Full training loop: shuffled minibatches for `epochs`; returns the mean
  /// loss of the final epoch.
  double fit(const Matrix& x, const Matrix& target, std::size_t epochs,
             std::size_t batch_size, double lr, Rng& rng);

  /// Backward from an externally supplied output gradient (used by the VAE);
  /// must directly follow forward() and accumulates layer gradients. The
  /// first form also writes dL/dx; the second skips it.
  void backward(std::span<const double> dout, std::vector<double>& dx);
  void backward(std::span<const double> dout);
  void step(double lr, std::size_t batch);

  const std::vector<DenseLayer>& layers() const { return layers_; }

 private:
  void resize_rows(std::size_t n);
  void forward_rows(std::size_t n);
  void backward_one(std::span<const double> dout, double* dx);
  void backward_rows(std::size_t n, double* dx);

  std::vector<DenseLayer> layers_;
  // Minibatch buffers, n rows each: act_[l] is layer l's input (act_[0] the
  // batch, act_.back() the output) and grad_[l] is dL/d act_[l] (grad_[0]
  // is unused: nothing reads the input gradient of a training pass).
  std::vector<std::vector<double>> act_, grad_;
  std::size_t adam_t_ = 0;
};

}  // namespace iguard::ml
