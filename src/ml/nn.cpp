#include "ml/nn.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <type_traits>

namespace iguard::ml {

double apply_activation(Activation a, double z) {
  switch (a) {
    case Activation::kLinear:
      return z;
    case Activation::kRelu:
      return z > 0.0 ? z : 0.0;
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-z));
    case Activation::kTanh:
      return std::tanh(z);
  }
  return z;
}

double activation_grad_from_output(Activation a, double y) {
  switch (a) {
    case Activation::kLinear:
      return 1.0;
    case Activation::kRelu:
      return y > 0.0 ? 1.0 : 0.0;
    case Activation::kSigmoid:
      return y * (1.0 - y);
    case Activation::kTanh:
      return 1.0 - y * y;
  }
  return 1.0;
}

namespace {

// Calls op(A) with the activation as a compile-time constant, so that a
// pass over many values takes the switch once and its loop body is the
// single case, free of branches.
template <class Op>
void with_activation(Activation a, Op op) {
  using enum Activation;
  switch (a) {
    case kLinear:
      return op(std::integral_constant<Activation, kLinear>{});
    case kRelu:
      return op(std::integral_constant<Activation, kRelu>{});
    case kSigmoid:
      return op(std::integral_constant<Activation, kSigmoid>{});
    case kTanh:
      return op(std::integral_constant<Activation, kTanh>{});
  }
}

// Two adjacent columns of c in one vector register (SSE2 on x86-64, NEON on
// AArch64, plain scalars elsewhere). Arithmetic is lane-wise IEEE, so a lane
// is exactly the scalar chain it replaces.
typedef double Pair __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// c[0..2P) = init + sum_{k < depth} a[k * a_k] * b[k * cols + 0..2P), with
// init c's current value when `accumulate` is set and 0.0 otherwise: P
// register pairs, each lane one add chain.
template <std::size_t P>
void product_block(const double* a, std::size_t a_k, const double* b, std::size_t cols,
                   std::size_t depth, double* c, bool accumulate) {
  Pair acc[P];
  for (std::size_t p = 0; p < P; ++p) acc[p] = accumulate ? load_pair(c + 2 * p) : Pair{0.0, 0.0};
  for (std::size_t k = 0; k < depth; ++k) {
    const double ak = a[k * a_k];
    const Pair a2 = {ak, ak};
    const double* bk = b + k * cols;
    for (std::size_t p = 0; p < P; ++p) acc[p] += a2 * load_pair(bk + 2 * p);
  }
  std::memcpy(c, acc, sizeof acc);
}

// The odd last column: one scalar chain.
void product_column(const double* a, std::size_t a_k, const double* b, std::size_t cols,
                    std::size_t depth, double* c, bool accumulate) {
  double acc = accumulate ? *c : 0.0;
  for (std::size_t k = 0; k < depth; ++k) acc += a[k * a_k] * b[k * cols];
  *c = acc;
}

// The one kernel behind every dense-layer pass: for r < rows, q < cols,
//   c[r][q] = init + sum_{k < depth} a[r * a_row + k * a_k] * b[k][q]
// with b row-major (depth x cols) and c row-major (rows x cols). Each
// element is the scalar `s += a * b` loop in ascending k. A row of c is
// taken in blocks of 8, 4, 2 and 1 adjacent columns held in registers, so
// every k step advances up to eight independent add chains whatever the
// depth; the blocking changes throughput, never an element's own
// operation order.
void product(const double* a, std::size_t a_row, std::size_t a_k, const double* b,
             std::size_t rows, std::size_t cols, std::size_t depth, double* c,
             bool accumulate) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* ar = a + r * a_row;
    double* cr = c + r * cols;
    std::size_t q = 0;
    for (; q + 8 <= cols; q += 8) product_block<4>(ar, a_k, b + q, cols, depth, cr + q, accumulate);
    if (q + 4 <= cols) {
      product_block<2>(ar, a_k, b + q, cols, depth, cr + q, accumulate);
      q += 4;
    }
    if (q + 2 <= cols) {
      product_block<1>(ar, a_k, b + q, cols, depth, cr + q, accumulate);
      q += 2;
    }
    if (q < cols) product_column(ar, a_k, b + q, cols, depth, cr + q, accumulate);
  }
}

}  // namespace

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Activation act, Rng& rng)
    : w_(out, in),
      b_(out, 0.0),
      act_(act),
      gw_(out, in),
      mw_(out, in),
      vw_(out, in),
      gb_(out, 0.0),
      mb_(out, 0.0),
      vb_(out, 0.0) {
  // Glorot-uniform initialisation keeps small nets trainable at lr ~1e-3.
  const double limit = std::sqrt(6.0 / static_cast<double>(in + out));
  for (double& v : w_.flat()) v = rng.uniform(-limit, limit);
  transpose_weights();
}

void DenseLayer::forward(const double* x, std::size_t n, double* y) const {
  const std::size_t in = in_dim(), out = out_dim();
  // y[s][o] = f(sum_i x[s][i] * w[o][i] + b[o]): dot(w_o, x_s) + b_o as the
  // scalar layer computes it (each product is commutative bit for bit).
  product(x, in, 1, wt_.data(), n, out, in, y, false);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t o = 0; o < out; ++o) y[s * out + o] += b_[o];
  }
  with_activation(act_, [&](auto a) {
    for (std::size_t k = 0; k < n * out; ++k) y[k] = apply_activation(a, y[k]);
  });
}

void DenseLayer::forward(std::span<const double> x, std::vector<double>& y) const {
  if (x.size() != in_dim()) throw std::invalid_argument("DenseLayer: bad input width");
  y.resize(out_dim());
  forward(x.data(), 1, y.data());
}

void DenseLayer::backward(const double* x, const double* y, double* dz, std::size_t n,
                          double* dx) {
  const std::size_t in = in_dim(), out = out_dim();
  with_activation(act_, [&](auto a) {
    for (std::size_t k = 0; k < n * out; ++k) dz[k] *= activation_grad_from_output(a, y[k]);
  });
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t o = 0; o < out; ++o) gb_[o] += dz[s * out + o];
  }
  // gw[o][i] += dz[s][o] * x[s][i], over the rows in order.
  product(dz, 1, out, x, out, in, n, gw_.flat().data(), true);
  // dx[s][i] = sum_o dz[s][o] * w[o][i].
  if (dx != nullptr) product(dz, out, 1, w_.flat().data(), n, in, out, dx, false);
}

void DenseLayer::transpose_weights() {
  const std::size_t in = in_dim(), out = out_dim();
  wt_.resize(in * out);
  for (std::size_t o = 0; o < out; ++o) {
    for (std::size_t i = 0; i < in; ++i) wt_[i * out + o] = w_(o, i);
  }
}

void DenseLayer::step(double lr, std::size_t batch, std::size_t t, double beta1,
                      double beta2, double eps) {
  const double inv = 1.0 / static_cast<double>(batch);
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  auto g = gw_.flat();
  auto m = mw_.flat();
  auto v = vw_.flat();
  auto w = w_.flat();
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double grad = g[i] * inv;
    m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
    v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
    w[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
    g[i] = 0.0;
  }
  for (std::size_t o = 0; o < b_.size(); ++o) {
    const double grad = gb_[o] * inv;
    mb_[o] = beta1 * mb_[o] + (1.0 - beta1) * grad;
    vb_[o] = beta2 * vb_[o] + (1.0 - beta2) * grad * grad;
    b_[o] -= lr * (mb_[o] / bc1) / (std::sqrt(vb_[o] / bc2) + eps);
    gb_[o] = 0.0;
  }
  transpose_weights();
}

Mlp::Mlp(std::span<const std::size_t> dims, std::span<const Activation> acts, Rng& rng) {
  if (dims.size() < 2 || acts.size() != dims.size() - 1) {
    throw std::invalid_argument("Mlp: dims/acts mismatch");
  }
  layers_.reserve(acts.size());
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    layers_.emplace_back(dims[l], dims[l + 1], acts[l], rng);
  }
  act_.resize(dims.size());
  grad_.resize(dims.size());
}

std::size_t Mlp::in_dim() const { return layers_.front().in_dim(); }
std::size_t Mlp::out_dim() const { return layers_.back().out_dim(); }

// Buffers only ever grow to the largest minibatch: a smaller (ragged) batch
// shrinks their size, not their capacity.
void Mlp::resize_rows(std::size_t n) {
  act_[0].resize(n * in_dim());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    act_[l + 1].resize(n * layers_[l].out_dim());
    grad_[l + 1].resize(n * layers_[l].out_dim());
  }
}

void Mlp::forward_rows(std::size_t n) {
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].forward(act_[l].data(), n, act_[l + 1].data());
  }
}

std::span<const double> Mlp::forward(std::span<const double> x) {
  if (x.size() != in_dim()) throw std::invalid_argument("Mlp: bad input width");
  resize_rows(1);
  std::copy(x.begin(), x.end(), act_[0].begin());
  forward_rows(1);
  return act_.back();
}

void Mlp::forward_const(const double* x, std::size_t n, std::vector<double>& out,
                        std::vector<double>& scratch) const {
  // Alternate the two buffers so that the last layer writes `out`.
  const double* in = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<double>& y = (layers_.size() - l) % 2 == 1 ? out : scratch;
    y.resize(n * layers_[l].out_dim());
    layers_[l].forward(in, n, y.data());
    in = y.data();
  }
}

void Mlp::forward_const(std::span<const double> x, std::vector<double>& out,
                        std::vector<double>& scratch) const {
  if (x.size() != in_dim()) throw std::invalid_argument("Mlp: bad input width");
  forward_const(x.data(), 1, out, scratch);
}

// grad_.back() holds dL/dy for the n rows in act_; the input layer writes
// its dL/dx to `dx`, or skips it when dx is null.
void Mlp::backward_rows(std::size_t n, double* dx) {
  for (std::size_t l = layers_.size(); l-- > 0;) {
    layers_[l].backward(act_[l].data(), act_[l + 1].data(), grad_[l + 1].data(), n,
                        l > 0 ? grad_[l].data() : dx);
  }
}

void Mlp::backward_one(std::span<const double> dout, double* dx) {
  if (dout.size() != out_dim()) throw std::invalid_argument("Mlp: bad output gradient width");
  std::copy(dout.begin(), dout.end(), grad_.back().begin());
  backward_rows(1, dx);
}

void Mlp::backward(std::span<const double> dout, std::vector<double>& dx) {
  dx.resize(in_dim());
  backward_one(dout, dx.data());
}

void Mlp::backward(std::span<const double> dout) { backward_one(dout, nullptr); }

void Mlp::step(double lr, std::size_t batch) {
  ++adam_t_;
  for (auto& layer : layers_) layer.step(lr, batch, adam_t_);
}

double Mlp::train_batch(const Matrix& x, const Matrix& target,
                        std::span<const std::size_t> idx, double lr) {
  if (x.cols() != in_dim() || target.cols() != out_dim()) {
    throw std::invalid_argument("Mlp::train_batch: width mismatch");
  }
  const std::size_t n = idx.size(), in = in_dim(), out = out_dim();
  resize_rows(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto row = x.row(idx[s]);
    std::copy(row.begin(), row.end(), act_[0].begin() + static_cast<std::ptrdiff_t>(s * in));
  }
  forward_rows(n);
  const double* y = act_.back().data();
  double* dout = grad_.back().data();
  double loss = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    auto t = target.row(idx[s]);
    for (std::size_t j = 0; j < out; ++j) {
      const double e = y[s * out + j] - t[j];
      loss += e * e;
      dout[s * out + j] = 2.0 * e / static_cast<double>(out);
    }
  }
  backward_rows(n, nullptr);
  step(lr, n);
  return loss / static_cast<double>(n * out);
}

double Mlp::fit(const Matrix& x, const Matrix& target, std::size_t epochs,
                std::size_t batch_size, double lr, Rng& rng) {
  if (x.rows() != target.rows()) throw std::invalid_argument("Mlp::fit: row mismatch");
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  double last_epoch_loss = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    rng.shuffle(std::span<std::size_t>(order));
    double total = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size(); start += batch_size) {
      const std::size_t len = std::min(batch_size, order.size() - start);
      total += train_batch(x, target, {order.data() + start, len}, lr);
      ++batches;
    }
    last_epoch_loss = total / static_cast<double>(std::max<std::size_t>(batches, 1));
  }
  return last_epoch_loss;
}

}  // namespace iguard::ml
