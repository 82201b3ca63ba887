#include "core/ae_ensemble.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/parallel.hpp"

namespace iguard::core {

void AeEnsemble::fit(const ml::Matrix& benign, const AeEnsembleConfig& cfg, ml::Rng& rng) {
  if (cfg.ensemble_size == 0) throw std::invalid_argument("AeEnsemble: r must be >= 1");
  aes_.clear();
  thresholds_.clear();
  // Fork all member RNGs sequentially first: the forks consume the parent
  // stream in a fixed order, so training the members in parallel afterwards
  // produces bit-identical ensembles at every thread count.
  std::vector<ml::Rng> children;
  children.reserve(cfg.ensemble_size);
  for (std::size_t u = 0; u < cfg.ensemble_size; ++u) children.push_back(rng.fork());

  aes_.resize(cfg.ensemble_size);
  thresholds_.assign(cfg.ensemble_size, 0.0);
  ml::ThreadPool pool(std::min(ml::resolve_threads(cfg.num_threads), cfg.ensemble_size));
  pool.parallel_for(cfg.ensemble_size, [&](std::size_t u) {
    auto ae = std::make_unique<ml::Autoencoder>(cfg.base);
    ae->fit(benign, children[u]);
    thresholds_[u] = ae->threshold() * cfg.threshold_scale;
    aes_[u] = std::move(ae);
  });
  weights_.assign(aes_.size(), 1.0 / static_cast<double>(aes_.size()));
}

double AeEnsemble::reconstruction_error(std::size_t u, std::span<const double> x) const {
  return aes_.at(u)->reconstruction_error(x);
}

namespace {

// Rows per scoring task: each member scores a block in one batched call.
constexpr std::size_t kBlockRows = ml::Autoencoder::kScoreRows;

// fn(first, n) over consecutive row blocks of a `rows`-row matrix: inline at
// one thread (so the forest's per-tree and per-leaf tasks never nest a
// pool), else on a pool.
template <class Fn>
void for_row_blocks(std::size_t rows, std::size_t num_threads, Fn&& fn) {
  const std::size_t blocks = (rows + kBlockRows - 1) / kBlockRows;
  auto task = [&](std::size_t b) {
    const std::size_t first = b * kBlockRows;
    fn(first, std::min(kBlockRows, rows - first));
  };
  const std::size_t threads = ml::resolve_threads(num_threads);
  if (threads == 1 || blocks <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) task(b);
    return;
  }
  ml::ThreadPool pool(threads);
  pool.parallel_for(blocks, task);
}

}  // namespace

ml::Matrix AeEnsemble::reconstruction_errors(const ml::Matrix& x,
                                             std::size_t num_threads) const {
  ml::Matrix out(x.rows(), aes_.size());
  for_row_blocks(x.rows(), num_threads, [&](std::size_t first, std::size_t n) {
    std::array<double, kBlockRows> e{};
    for (std::size_t u = 0; u < aes_.size(); ++u) {
      aes_[u]->reconstruction_errors(x, first, {e.data(), n});
      for (std::size_t i = 0; i < n; ++i) out(first + i, u) = e[i];
    }
  });
  return out;
}

// The weighted vote of predict(), member by member over a block of rows.
std::vector<int> AeEnsemble::predict_batch(const ml::Matrix& x,
                                           std::size_t num_threads) const {
  std::vector<int> out(x.rows(), 0);
  for_row_blocks(x.rows(), num_threads, [&](std::size_t first, std::size_t n) {
    std::array<double, kBlockRows> e{}, vote{};
    for (std::size_t u = 0; u < aes_.size(); ++u) {
      aes_[u]->reconstruction_errors(x, first, {e.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        if (e[i] > thresholds_[u]) vote[i] += weights_[u];
      }
    }
    for (std::size_t i = 0; i < n; ++i) out[first + i] = vote[i] > 0.5 ? 1 : 0;
  });
  return out;
}

int AeEnsemble::predict(std::span<const double> x) const {
  double vote = 0.0;
  for (std::size_t u = 0; u < aes_.size(); ++u) {
    if (reconstruction_error(u, x) > thresholds_[u]) vote += weights_[u];
  }
  return vote > 0.5 ? 1 : 0;
}

int AeEnsemble::vote_from_errors(std::span<const double> per_member_errors) const {
  if (per_member_errors.size() != aes_.size()) {
    throw std::invalid_argument("vote_from_errors: size mismatch");
  }
  double vote = 0.0;
  for (std::size_t u = 0; u < aes_.size(); ++u) {
    if (per_member_errors[u] > thresholds_[u]) vote += weights_[u];
  }
  return vote > 0.5 ? 1 : 0;
}

void AeEnsemble::set_weights(std::vector<double> w) {
  if (w.size() != aes_.size()) throw std::invalid_argument("set_weights: size mismatch");
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  if (std::abs(sum - 1.0) > 1e-6) throw std::invalid_argument("set_weights: must sum to 1");
  weights_ = std::move(w);
}

}  // namespace iguard::core
