#include "ml/autoencoder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace iguard::ml {

void Autoencoder::fit(const Matrix& benign, Rng& rng) {
  if (benign.rows() == 0) throw std::invalid_argument("Autoencoder::fit: empty data");
  const std::size_t m = benign.cols();
  Matrix z = scaler_.fit_transform(benign);

  std::vector<std::size_t> dims;
  std::vector<Activation> acts;
  dims.push_back(m);
  for (std::size_t i = 0; i < cfg_.encoder_hidden.size(); ++i) {
    dims.push_back(cfg_.encoder_hidden[i]);
    // tanh at the bottleneck: a narrow ReLU code can die wholesale (all
    // units stuck at 0), which flatlines the whole autoencoder.
    const bool bottleneck = i + 1 == cfg_.encoder_hidden.size();
    acts.push_back(bottleneck ? Activation::kTanh : Activation::kRelu);
  }
  for (std::size_t h : cfg_.decoder_hidden) {
    dims.push_back(h);
    acts.push_back(Activation::kRelu);
  }
  dims.push_back(m);
  acts.push_back(Activation::kLinear);  // reconstruct standardised values
  net_ = Mlp(dims, acts, rng);

  final_loss_ = net_.fit(z, z, cfg_.epochs, cfg_.batch_size, cfg_.learning_rate, rng);

  // T_u = quantile of benign training reconstruction errors.
  std::vector<double> errors(benign.rows());
  reconstruction_errors(benign, 0, errors);
  std::sort(errors.begin(), errors.end());
  const double q = std::clamp(cfg_.threshold_quantile, 0.0, 1.0);
  const std::size_t k =
      std::min(errors.size() - 1, static_cast<std::size_t>(q * static_cast<double>(errors.size())));
  threshold_ = errors[k];
}

double Autoencoder::reconstruction_error(std::span<const double> x) const {
  if (!scaler_.fitted()) throw std::logic_error("Autoencoder: not fitted");
  if (x.size() != net_.in_dim()) throw std::invalid_argument("Autoencoder: bad input width");
  double re = 0.0;
  score_rows(x.data(), 1, &re);
  return re;
}

void Autoencoder::reconstruction_errors(const Matrix& x, std::size_t first,
                                        std::span<double> out) const {
  if (!scaler_.fitted()) throw std::logic_error("Autoencoder: not fitted");
  if (x.cols() != net_.in_dim() || first + out.size() > x.rows()) {
    throw std::invalid_argument("Autoencoder::reconstruction_errors: bad row range");
  }
  if (!out.empty()) score_rows(x.row(first).data(), out.size(), out.data());
}

// n contiguous rows of x, scored kScoreRows at a time.
void Autoencoder::score_rows(const double* x, std::size_t n, double* out) const {
  // Thread-local scratch: no allocation on the hot path, no shared mutable
  // state — the distillation and batch-scoring loops call this from many
  // threads on one const autoencoder.
  thread_local std::vector<double> scaled, recon, scratch;
  const std::size_t m = net_.in_dim();
  for (std::size_t first = 0; first < n; first += kScoreRows) {
    const std::size_t rows = std::min(kScoreRows, n - first);
    scaled.resize(rows * m);
    for (std::size_t r = 0; r < rows; ++r) {
      scaler_.transform_row({x + (first + r) * m, m}, {scaled.data() + r * m, m});
    }
    net_.forward_const(scaled.data(), rows, recon, scratch);
    for (std::size_t r = 0; r < rows; ++r) {
      double s = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double d = recon[r * m + i] - scaled[r * m + i];
        s += d * d;
      }
      out[first + r] = std::sqrt(s / static_cast<double>(m));
    }
  }
}

AutoencoderConfig magnifier_config(std::size_t epochs) {
  AutoencoderConfig cfg;
  cfg.encoder_hidden = {32, 16, 4};
  cfg.decoder_hidden = {};  // asymmetric: 4 -> m directly
  cfg.epochs = epochs;
  cfg.label = "magnifier";
  return cfg;
}

AutoencoderConfig testbed_autoencoder_config(std::size_t epochs) {
  AutoencoderConfig cfg;
  cfg.encoder_hidden = {16, 8, 3};
  cfg.decoder_hidden = {};
  cfg.epochs = epochs;
  cfg.label = "testbed-ae";
  return cfg;
}

}  // namespace iguard::ml
