#include "ml/vae.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace iguard::ml {

void Vae::fit(const Matrix& benign, Rng& rng) {
  if (benign.rows() == 0) throw std::invalid_argument("Vae::fit: empty data");
  const std::size_t m = benign.cols();
  const std::size_t L = cfg_.latent;
  Matrix z = scaler_.fit_transform(benign);

  {
    std::vector<std::size_t> dims{m};
    std::vector<Activation> acts;
    for (std::size_t h : cfg_.encoder_hidden) {
      dims.push_back(h);
      acts.push_back(Activation::kRelu);
    }
    dims.push_back(2 * L);
    acts.push_back(Activation::kLinear);
    encoder_ = Mlp(dims, acts, rng);
  }
  {
    std::vector<std::size_t> dims{L};
    std::vector<Activation> acts;
    for (std::size_t h : cfg_.decoder_hidden) {
      dims.push_back(h);
      acts.push_back(Activation::kRelu);
    }
    dims.push_back(m);
    acts.push_back(Activation::kLinear);
    decoder_ = Mlp(dims, acts, rng);
  }

  std::vector<std::size_t> order(z.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> lat(L), eps(L), dy(m), dz, dlat(2 * L);

  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng.shuffle(std::span<std::size_t>(order));
    double total = 0.0;
    for (std::size_t start = 0; start < order.size(); start += cfg_.batch_size) {
      const std::size_t len = std::min(cfg_.batch_size, order.size() - start);
      for (std::size_t b = 0; b < len; ++b) {
        auto x = z.row(order[start + b]);
        const auto& enc = encoder_.forward(x);  // [mu | logvar]
        for (std::size_t j = 0; j < L; ++j) {
          eps[j] = rng.normal();
          const double logvar = std::clamp(enc[L + j], -8.0, 8.0);
          lat[j] = enc[j] + std::exp(0.5 * logvar) * eps[j];
        }
        const auto& y = decoder_.forward(lat);

        double recon = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          const double e = y[j] - x[j];
          recon += e * e;
          dy[j] = 2.0 * e / static_cast<double>(m);
        }
        recon /= static_cast<double>(m);
        double kl = 0.0;
        for (std::size_t j = 0; j < L; ++j) {
          const double logvar = std::clamp(enc[L + j], -8.0, 8.0);
          kl += -0.5 * (1.0 + logvar - enc[j] * enc[j] - std::exp(logvar));
        }
        total += recon + cfg_.beta * kl;

        decoder_.backward(dy, dz);  // dz = dL/dz (latent)
        for (std::size_t j = 0; j < L; ++j) {
          const double logvar = std::clamp(enc[L + j], -8.0, 8.0);
          dlat[j] = dz[j] + cfg_.beta * enc[j];  // dmu
          dlat[L + j] = dz[j] * eps[j] * 0.5 * std::exp(0.5 * logvar) +
                        cfg_.beta * 0.5 * (std::exp(logvar) - 1.0);  // dlogvar
        }
        encoder_.backward(dlat);  // the input gradient is not needed
      }
      decoder_.step(cfg_.learning_rate, len);
      encoder_.step(cfg_.learning_rate, len);
    }
    final_loss_ = total / static_cast<double>(z.rows());
  }

  std::vector<double> errors(benign.rows());
  for (std::size_t i = 0; i < benign.rows(); ++i) errors[i] = reconstruction_error(benign.row(i));
  std::sort(errors.begin(), errors.end());
  const std::size_t qi = std::min(
      errors.size() - 1,
      static_cast<std::size_t>(cfg_.threshold_quantile * static_cast<double>(errors.size())));
  threshold_ = errors[qi];
}

double Vae::reconstruction_error(std::span<const double> x) {
  if (!scaler_.fitted()) throw std::logic_error("Vae: not fitted");
  const std::size_t L = cfg_.latent;
  zin_.resize(x.size());
  scaler_.transform_row(x, zin_);
  const auto& enc = encoder_.forward(zin_);
  zlat_.assign(enc.begin(), enc.begin() + static_cast<std::ptrdiff_t>(L));
  const auto& y = decoder_.forward(zlat_);
  double s = 0.0;
  for (std::size_t j = 0; j < y.size(); ++j) {
    const double d = y[j] - zin_[j];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(y.size()));
}

}  // namespace iguard::ml
