#include "ml/nn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/autoencoder.hpp"

namespace iguard::ml {
namespace {

TEST(Activation, Values) {
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kLinear, -2.0), -2.0);
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kRelu, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kRelu, 3.0), 3.0);
  EXPECT_NEAR(apply_activation(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(apply_activation(Activation::kTanh, 0.0), 0.0, 1e-12);
}

// Numerical check: grad-from-output matches finite differences of f.
TEST(Activation, GradMatchesFiniteDifference) {
  const double eps = 1e-6;
  for (Activation a : {Activation::kLinear, Activation::kSigmoid, Activation::kTanh}) {
    for (double z : {-1.5, -0.3, 0.2, 1.1}) {
      const double y = apply_activation(a, z);
      const double num =
          (apply_activation(a, z + eps) - apply_activation(a, z - eps)) / (2.0 * eps);
      EXPECT_NEAR(activation_grad_from_output(a, y), num, 1e-5);
    }
  }
}

TEST(DenseLayer, ForwardComputesAffine) {
  Rng rng(1);
  DenseLayer layer(2, 1, Activation::kLinear, rng);
  std::vector<double> y;
  const double x[] = {1.0, 2.0};
  layer.forward(x, y);
  const double expect = layer.weights()(0, 0) * 1.0 + layer.weights()(0, 1) * 2.0;
  EXPECT_NEAR(y[0], expect, 1e-12);
}

TEST(DenseLayer, BadInputWidthThrows) {
  Rng rng(1);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  std::vector<double> y;
  const double x[] = {1.0};
  EXPECT_THROW(layer.forward(x, y), std::invalid_argument);
}

// Gradient check for a small MLP: analytic dL/dx vs finite differences.
TEST(Mlp, GradientCheckInputGrad) {
  Rng rng(3);
  const std::size_t dims[] = {3, 4, 2};
  const Activation acts[] = {Activation::kTanh, Activation::kLinear};
  Mlp net(dims, acts, rng);

  std::vector<double> x = {0.3, -0.7, 0.9};
  const std::vector<double> target = {0.5, -0.2};

  auto loss_at = [&](const std::vector<double>& in) {
    const auto& y = net.forward(in);
    double l = 0.0;
    for (std::size_t j = 0; j < y.size(); ++j) l += (y[j] - target[j]) * (y[j] - target[j]);
    return l / static_cast<double>(y.size());
  };

  const auto& y = net.forward(x);
  std::vector<double> dout(y.size());
  for (std::size_t j = 0; j < y.size(); ++j)
    dout[j] = 2.0 * (y[j] - target[j]) / static_cast<double>(y.size());
  std::vector<double> dx;
  net.backward(dout, dx);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss_at(xp) - loss_at(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], num, 1e-5) << "input " << i;
  }
}

TEST(Mlp, LearnsLinearMap) {
  Rng rng(5);
  const std::size_t dims[] = {2, 8, 1};
  const Activation acts[] = {Activation::kTanh, Activation::kLinear};
  Mlp net(dims, acts, rng);

  // y = 2a - b over a grid.
  Matrix x(0, 2), t(0, 1);
  for (double a = -1.0; a <= 1.0; a += 0.2) {
    for (double b = -1.0; b <= 1.0; b += 0.2) {
      const double row[] = {a, b};
      x.push_row(row);
      const double yr[] = {2.0 * a - b};
      t.push_row(yr);
    }
  }
  const double final_loss = net.fit(x, t, 300, 16, 5e-3, rng);
  EXPECT_LT(final_loss, 5e-3);
}

TEST(Mlp, DimsActsMismatchThrows) {
  Rng rng(1);
  const std::size_t dims[] = {2, 3};
  const Activation acts[] = {Activation::kRelu, Activation::kRelu};
  EXPECT_THROW(Mlp(dims, acts, rng), std::invalid_argument);
}

// --- kernels vs the scalar per-sample algorithm ---------------------------------

// The textbook per-sample algorithm the minibatch kernels replace, kept here
// as the oracle: one dot product per output, a per-sample backward that
// accumulates into the gradient buffers, and the same Adam update.
struct OracleLayer {
  Matrix w, gw, mw, vw;
  std::vector<double> b, gb, mb, vb, last_x, last_y;
  Activation act;

  explicit OracleLayer(const DenseLayer& l)
      : w(l.weights()),
        gw(l.out_dim(), l.in_dim()),
        mw(l.out_dim(), l.in_dim()),
        vw(l.out_dim(), l.in_dim()),
        b(l.bias()),
        gb(l.out_dim(), 0.0),
        mb(l.out_dim(), 0.0),
        vb(l.out_dim(), 0.0),
        act(l.activation()) {}

  void forward(std::span<const double> x, std::vector<double>& y) {
    last_x.assign(x.begin(), x.end());
    y.resize(w.rows());
    for (std::size_t o = 0; o < w.rows(); ++o) {
      y[o] = apply_activation(act, dot(w.row(o), x) + b[o]);
    }
    last_y = y;
  }

  void backward(std::span<const double> dy, std::vector<double>& dx) {
    dx.assign(w.cols(), 0.0);
    for (std::size_t o = 0; o < w.rows(); ++o) {
      const double dz = dy[o] * activation_grad_from_output(act, last_y[o]);
      gb[o] += dz;
      for (std::size_t i = 0; i < w.cols(); ++i) {
        gw(o, i) += dz * last_x[i];
        dx[i] += dz * w(o, i);
      }
    }
  }

  void step(double lr, std::size_t batch, std::size_t t) {
    const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    const double inv = 1.0 / static_cast<double>(batch);
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    auto upd = [&](double& g, double& m, double& v, double& p) {
      const double grad = g * inv;
      m = beta1 * m + (1.0 - beta1) * grad;
      v = beta2 * v + (1.0 - beta2) * grad * grad;
      p -= lr * (m / bc1) / (std::sqrt(v / bc2) + eps);
      g = 0.0;
    };
    for (std::size_t i = 0; i < gw.flat().size(); ++i) {
      upd(gw.flat()[i], mw.flat()[i], vw.flat()[i], w.flat()[i]);
    }
    for (std::size_t o = 0; o < b.size(); ++o) upd(gb[o], mb[o], vb[o], b[o]);
  }
};

struct OracleMlp {
  std::vector<OracleLayer> layers;
  std::vector<std::vector<double>> buf;
  std::size_t adam_t = 0;

  explicit OracleMlp(const Mlp& net) : buf(net.layers().size()) {
    for (const auto& l : net.layers()) layers.emplace_back(l);
  }

  const std::vector<double>& forward(std::span<const double> x) {
    std::span<const double> cur = x;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      layers[l].forward(cur, buf[l]);
      cur = buf[l];
    }
    return buf.back();
  }

  void backward(std::span<const double> dout, std::vector<double>& dx) {
    std::vector<double> d(dout.begin(), dout.end());
    for (std::size_t l = layers.size(); l-- > 0;) {
      layers[l].backward(d, dx);
      d = dx;
    }
  }

  void step(double lr, std::size_t batch) {
    ++adam_t;
    for (auto& l : layers) l.step(lr, batch, adam_t);
  }

  double fit(const Matrix& x, const Matrix& target, std::size_t epochs, std::size_t batch_size,
             double lr, Rng& rng) {
    std::vector<std::size_t> order(x.rows());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    double last = 0.0;
    for (std::size_t e = 0; e < epochs; ++e) {
      rng.shuffle(std::span<std::size_t>(order));
      double total = 0.0;
      std::size_t batches = 0;
      for (std::size_t start = 0; start < order.size(); start += batch_size) {
        const std::size_t len = std::min(batch_size, order.size() - start);
        double loss = 0.0;
        std::vector<double> dout, dx;
        for (std::size_t k = start; k < start + len; ++k) {
          const auto& y = forward(x.row(order[k]));
          auto t = target.row(order[k]);
          dout.resize(y.size());
          for (std::size_t j = 0; j < y.size(); ++j) {
            const double err = y[j] - t[j];
            loss += err * err;
            dout[j] = 2.0 * err / static_cast<double>(y.size());
          }
          backward(dout, dx);
        }
        step(lr, len);
        total += loss / static_cast<double>(len * layers.back().w.rows());
        ++batches;
      }
      last = total / static_cast<double>(batches);
    }
    return last;
  }
};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

::testing::AssertionResult same_state(const Mlp& net, const OracleMlp& oracle) {
  for (std::size_t l = 0; l < oracle.layers.size(); ++l) {
    const DenseLayer& k = net.layers()[l];
    const OracleLayer& o = oracle.layers[l];
    const auto m = k.adam_moments();
    if (!same_bits(k.weights().flat(), o.w.flat()) || !same_bits(k.bias(), o.b) ||
        !same_bits(m[0], o.mw.flat()) || !same_bits(m[1], o.vw.flat()) ||
        !same_bits(m[2], o.mb) || !same_bits(m[3], o.vb)) {
      return ::testing::AssertionFailure() << "layer " << l << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.normal(0.0, 1.5);
  return m;
}

// Random shapes (widths 1-40, odd and even), every activation, batch 1 and
// ragged final minibatches, several Adam steps: the trained weights, biases
// and Adam moments, the loss, and every inference path must equal the
// scalar algorithm bit for bit.
TEST(DenseKernels, TrainingMatchesScalarOracleBitForBit) {
  Rng shape(2024);
  const Activation all[] = {Activation::kLinear, Activation::kRelu, Activation::kSigmoid,
                            Activation::kTanh};
  for (std::size_t trial = 0; trial < 16; ++trial) {
    const std::size_t layers = 1 + shape.index(3);
    std::vector<std::size_t> dims;
    for (std::size_t l = 0; l <= layers; ++l) dims.push_back(1 + shape.index(40));
    std::vector<Activation> acts;
    for (std::size_t l = 0; l < layers; ++l) acts.push_back(all[(trial + l) % 4]);
    const std::size_t batch = trial % 4 == 0 ? 1 : 2 + shape.index(15);
    std::size_t rows = 3 * batch + 1 + shape.index(20);
    if (batch > 1 && rows % batch == 0) ++rows;  // ragged final minibatch
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " layers " << layers << " batch "
                                      << batch << " rows " << rows);

    Rng init(trial);
    Mlp net(dims, acts, init);
    OracleMlp oracle(net);
    const Matrix x = random_matrix(rows, dims.front(), shape);
    const Matrix t = random_matrix(rows, dims.back(), shape);
    Rng ra(77 + trial), rb(77 + trial);
    const double loss = net.fit(x, t, 3, batch, 1e-2, ra);
    const double oracle_loss = oracle.fit(x, t, 3, batch, 1e-2, rb);
    EXPECT_TRUE(same_bits(std::span(&loss, 1), std::span(&oracle_loss, 1)));
    EXPECT_TRUE(same_state(net, oracle));

    // Inference: the batched const pass, the single-row const pass and the
    // caching forward all give the oracle's output.
    std::vector<double> all_out, one_out, scratch;
    net.forward_const(x.flat().data(), rows, all_out, scratch);
    for (std::size_t i = 0; i < rows; ++i) {
      const std::vector<double> expect = oracle.forward(x.row(i));
      net.forward_const(x.row(i), one_out, scratch);
      ASSERT_TRUE(same_bits(one_out, expect)) << "row " << i;
      ASSERT_TRUE(same_bits({all_out.data() + i * expect.size(), expect.size()}, expect));
      ASSERT_TRUE(same_bits(net.forward(x.row(i)), expect)) << "row " << i;
    }
  }
}

// The per-sample backward used by the VAE: dL/dx and the accumulated
// gradients match the oracle, and skipping dL/dx changes no parameter.
TEST(DenseKernels, PerSampleBackwardMatchesScalarOracle) {
  const std::size_t dims[] = {7, 13, 5, 9};
  const Activation acts[] = {Activation::kRelu, Activation::kTanh, Activation::kSigmoid};
  Rng a(3), b(3);
  Mlp with_dx(dims, acts, a), without_dx(dims, acts, b);
  OracleMlp oracle(with_dx);
  Rng data(8);
  const Matrix x = random_matrix(6, 7, data);
  const Matrix g = random_matrix(6, 9, data);
  std::vector<double> dx, oracle_dx;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    with_dx.forward(x.row(i));
    without_dx.forward(x.row(i));
    oracle.forward(x.row(i));
    with_dx.backward(g.row(i), dx);
    without_dx.backward(g.row(i));
    oracle.backward(g.row(i), oracle_dx);
    ASSERT_TRUE(same_bits(dx, oracle_dx)) << "row " << i;
    if (i % 3 == 2) {
      with_dx.step(1e-2, 3);
      without_dx.step(1e-2, 3);
      oracle.step(1e-2, 3);
    }
  }
  EXPECT_TRUE(same_state(with_dx, oracle));
  EXPECT_TRUE(same_state(without_dx, oracle));
}

// The batched reconstruction-error call equals per-row calls bit for bit,
// for any row range (including one that ends in a partial score block).
TEST(DenseKernels, BatchedReconstructionErrorsMatchPerRow) {
  Rng rng(11);
  const Matrix x = random_matrix(Autoencoder::kScoreRows * 2 + 7, 13, rng);
  Autoencoder ae(testbed_autoencoder_config(3));
  ae.fit(x, rng);
  std::vector<double> all(x.rows());
  ae.reconstruction_errors(x, 0, all);
  std::vector<double> tail(x.rows() - 5);
  ae.reconstruction_errors(x, 5, tail);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double one = ae.reconstruction_error(x.row(i));
    ASSERT_TRUE(same_bits(std::span(&one, 1), std::span(&all[i], 1))) << "row " << i;
    if (i >= 5) {
      ASSERT_TRUE(same_bits(std::span(&one, 1), std::span(&tail[i - 5], 1))) << "row " << i;
    }
  }
  EXPECT_THROW(ae.reconstruction_errors(x, 1, all), std::invalid_argument);
}

}  // namespace
}  // namespace iguard::ml
