// Dense autoencoders trained on benign traffic; anomaly score is the RMSE
// reconstruction error of §3.2.1:  RE(x) = sqrt(1/m * sum_i (AE(x)_i - x_i)^2)
// computed in standardised feature space. Includes a factory for the
// asymmetric "Magnifier"-style architecture of HorusEye (deep encoder,
// single-layer decoder) and for the paper's custom testbed autoencoder.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/detector.hpp"
#include "ml/nn.hpp"
#include "ml/scaler.hpp"

namespace iguard::ml {

struct AutoencoderConfig {
  /// Hidden layer widths of the encoder (last entry = bottleneck).
  std::vector<std::size_t> encoder_hidden{16, 4};
  /// Hidden layer widths of the decoder, bottleneck excluded, output layer
  /// implied. Empty = asymmetric single-layer decoder.
  std::vector<std::size_t> decoder_hidden{};
  std::size_t epochs = 40;
  std::size_t batch_size = 32;
  double learning_rate = 1e-3;
  /// RMSE threshold T_u = this quantile of training reconstruction errors.
  double threshold_quantile = 0.98;
  std::string label = "autoencoder";
};

class Autoencoder : public AnomalyDetector {
 public:
  explicit Autoencoder(AutoencoderConfig cfg = {}) : cfg_(std::move(cfg)) {}

  void fit(const Matrix& benign, Rng& rng) override;
  double score(std::span<const double> x) override { return reconstruction_error(x); }
  bool thread_safe_score() const override { return true; }
  double threshold() const override { return threshold_; }
  void set_threshold(double t) override { threshold_ = t; }
  std::string name() const override { return cfg_.label; }

  /// RMSE reconstruction error in standardised space (RE_u in the paper).
  /// Const and race-free: concurrent calls on one fitted autoencoder are
  /// safe (scratch buffers are thread-local).
  double reconstruction_error(std::span<const double> x) const;

  /// reconstruction_error() of rows [first, first + out.size()) of x into
  /// out, bit for bit, through the minibatch kernels. Single-threaded, const
  /// and race-free; its thread-local scratch holds kScoreRows rows.
  void reconstruction_errors(const Matrix& x, std::size_t first, std::span<double> out) const;
  static constexpr std::size_t kScoreRows = 64;

  /// Final-epoch training loss (diagnostics / tests).
  double final_loss() const { return final_loss_; }
  const AutoencoderConfig& config() const { return cfg_; }

 private:
  void score_rows(const double* x, std::size_t n, double* out) const;

  AutoencoderConfig cfg_;
  StandardScaler scaler_;
  Mlp net_;
  double threshold_ = 0.0;
  double final_loss_ = 0.0;
};

/// HorusEye's Magnifier stand-in: deep encoder m->32->16->4, shallow decoder
/// 4->m (the asymmetry is the point: cheap decode, expressive encode).
AutoencoderConfig magnifier_config(std::size_t epochs = 40);

/// The paper's custom asymmetric AE for the 13 switch-extractable FL
/// features (§4.2): smaller encoder suited to the reduced feature set.
AutoencoderConfig testbed_autoencoder_config(std::size_t epochs = 40);

}  // namespace iguard::ml
