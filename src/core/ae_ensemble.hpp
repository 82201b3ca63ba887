// Ensemble of r autoencoders (§3.2.1). Each AE_u is trained independently on
// the benign set and carries an RMSE threshold T_u; the ensemble prediction
// is the weighted vote  1{ sum_u w_u * 1{RE_u(x) > T_u} > 0.5 }  with
// w in [0,1], sum w_u = 1. This is the "teacher" that guides iTree node
// expansion and labels leaves during knowledge distillation.
#pragma once

#include <memory>
#include <vector>

#include "ml/autoencoder.hpp"
#include "ml/matrix.hpp"
#include "ml/rng.hpp"

namespace iguard::core {

struct AeEnsembleConfig {
  std::size_t ensemble_size = 3;  // r
  ml::AutoencoderConfig base = ml::magnifier_config();
  /// Global multiplier on each AE's calibrated threshold T_u (the paper's
  /// grid-searched "T" hyperparameter).
  double threshold_scale = 1.0;
  /// Worker threads for member training and batch scoring (0 = hardware
  /// concurrency). Member RNG forks are drawn sequentially before the
  /// parallel section, so results are bit-identical at any thread count.
  std::size_t num_threads = 1;
};

class AeEnsemble {
 public:
  AeEnsemble() = default;

  /// Train r independent AEs on the benign set (each with its own RNG fork
  /// and shuffled minibatch order, so the ensemble has genuine diversity).
  void fit(const ml::Matrix& benign, const AeEnsembleConfig& cfg, ml::Rng& rng);

  std::size_t size() const { return aes_.size(); }

  /// RE_u(x): reconstruction RMSE of member u.
  double reconstruction_error(std::size_t u, std::span<const double> x) const;

  /// Batched scoring: row i of the result holds {RE_0(x_i), ..., RE_{r-1}(x_i)},
  /// bit-identical to reconstruction_error(). Blocks of rows are scored in
  /// parallel (num_threads = 0 → hardware concurrency); at one thread no
  /// pool is created, so pool tasks may call this. The output is identical
  /// at every thread count.
  ml::Matrix reconstruction_errors(const ml::Matrix& x, std::size_t num_threads = 1) const;

  /// Batched ensemble predictions over every row of x (1 = malicious),
  /// equal to predict() and scored like reconstruction_errors().
  std::vector<int> predict_batch(const ml::Matrix& x, std::size_t num_threads = 1) const;
  /// T_u (already scaled by threshold_scale).
  double member_threshold(std::size_t u) const { return thresholds_[u]; }
  double weight(std::size_t u) const { return weights_[u]; }

  /// Autoencoders.predict(x) of §3.2.1 — 1 = malicious.
  int predict(std::span<const double> x) const;

  /// Weighted vote over *precomputed* per-member errors (used for leaf
  /// labelling, Eq. 6, where the error is an expectation over leaf samples).
  int vote_from_errors(std::span<const double> per_member_errors) const;

  /// Replace the uniform weights (must sum to ~1; sizes must match).
  void set_weights(std::vector<double> w);

  /// Recalibrate one member's RMSE threshold T_u (the paper grid-searches T
  /// on the validation split; see eval::best_f1_threshold).
  void set_member_threshold(std::size_t u, double t) { thresholds_.at(u) = t; }

 private:
  std::vector<std::unique_ptr<ml::Autoencoder>> aes_;
  std::vector<double> thresholds_;
  std::vector<double> weights_;
};

}  // namespace iguard::core
