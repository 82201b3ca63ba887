#include "core/guided_iforest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/ae_ensemble.hpp"
#include "eval/metrics.hpp"

namespace iguard::core {
namespace {

// Shared fixture: a 2-D benign manifold (y = x) with an AE-ensemble teacher
// trained on it; anomalies live on the anti-diagonal.
class GuidedForestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new ml::Rng(17);
    train_ = new ml::Matrix(0, 2);
    for (int i = 0; i < 1500; ++i) {
      const double x = rng_->normal(0.0, 1.0);
      const double row[2] = {x, x + rng_->normal(0.0, 0.1)};
      train_->push_row(row);
    }
    teacher_ = new AeEnsemble();
    AeEnsembleConfig cfg;
    cfg.ensemble_size = 2;
    // Bottleneck of 1: the AE must compress onto the 1-D manifold, so
    // off-manifold points reconstruct poorly (a 2-D latent could learn the
    // identity and give the growth phase nothing to work with).
    cfg.base.encoder_hidden = {8, 1};
    cfg.base.epochs = 80;
    teacher_->fit(*train_, cfg, *rng_);

    // Calibrate member thresholds on a small labelled validation set, as
    // the experiment protocol does (otherwise the default 98%-quantile
    // thresholds give the growth phase no entropy signal to split on).
    ml::Matrix val(0, 2);
    std::vector<int> vy;
    for (int i = 0; i < 150; ++i) {
      const double t = rng_->normal(0.0, 1.0);
      const double on[2] = {t, t + rng_->normal(0.0, 0.1)};
      val.push_row(on);
      vy.push_back(0);
      if (i % 3 == 0) {
        double off[2] = {t, -t};
        if (std::abs(off[1] - off[0]) < 0.6) off[1] += off[1] > off[0] ? 0.6 : -0.6;
        val.push_row(off);
        vy.push_back(1);
      }
    }
    for (std::size_t u = 0; u < teacher_->size(); ++u) {
      std::vector<double> s(val.rows());
      for (std::size_t i = 0; i < val.rows(); ++i)
        s[i] = teacher_->reconstruction_error(u, val.row(i));
      teacher_->set_member_threshold(u, eval::best_f1_threshold(vy, s));
    }
  }
  static void TearDownTestSuite() {
    delete teacher_;
    delete train_;
    delete rng_;
    teacher_ = nullptr;
    train_ = nullptr;
    rng_ = nullptr;
  }

  static ml::Rng* rng_;
  static ml::Matrix* train_;
  static AeEnsemble* teacher_;
};
ml::Rng* GuidedForestTest::rng_ = nullptr;
ml::Matrix* GuidedForestTest::train_ = nullptr;
AeEnsemble* GuidedForestTest::teacher_ = nullptr;

TEST_F(GuidedForestTest, TrainsRequestedTreeCount) {
  GuidedForestConfig cfg;
  cfg.num_trees = 3;
  cfg.subsample = 256;
  cfg.augment = 64;
  GuidedIsolationForest f{cfg};
  ml::Rng rng(1);
  f.fit(*train_, *teacher_, rng);
  EXPECT_EQ(f.trees().size(), 3u);
  for (const auto& t : f.trees()) EXPECT_GE(t.leaf_count(), 1u);
}

TEST_F(GuidedForestTest, DepthRespectsHeightCap) {
  GuidedForestConfig cfg;
  cfg.num_trees = 2;
  cfg.subsample = 128;  // cap = 7
  GuidedIsolationForest f{cfg};
  ml::Rng rng(2);
  f.fit(*train_, *teacher_, rng);
  for (const auto& t : f.trees()) {
    for (const auto& n : t.nodes) EXPECT_LE(n.depth, 7);
  }
}

TEST_F(GuidedForestTest, LeavesCarryDistilledState) {
  GuidedForestConfig cfg;
  cfg.num_trees = 2;
  cfg.subsample = 256;
  GuidedIsolationForest f{cfg};
  ml::Rng rng(3);
  f.fit(*train_, *teacher_, rng);
  for (const auto& t : f.trees()) {
    for (const auto& n : t.nodes) {
      if (n.feature >= 0) continue;
      EXPECT_EQ(n.leaf_re.size(), teacher_->size());      // Eq. 5 embedded
      EXPECT_TRUE(n.label == 0 || n.label == 1);          // Eq. 6 label
      EXPECT_EQ(n.box_lo.size(), train_->cols());         // support box
      for (std::size_t j = 0; j < n.box_lo.size(); ++j) {
        EXPECT_LE(n.box_lo[j], n.box_hi[j]);
      }
    }
  }
}

TEST_F(GuidedForestTest, StudentTracksTeacherAndAcceptsBenign) {
  // The distilled forest is a student: it cannot beat its teacher, but it
  // must (a) keep accepting fresh on-manifold traffic and (b) flag at least
  // as much off-manifold traffic as the teacher does (the support boxes can
  // only add detections on top of the teacher's labels).
  GuidedForestConfig cfg;
  GuidedIsolationForest f{cfg};
  ml::Rng rng(4);
  f.fit(*train_, *teacher_, rng);
  ml::Rng probe(99);
  std::size_t benign_ok = 0, forest_catch = 0, teacher_catch = 0, n = 0;
  for (int i = 0; i < 200; ++i) {
    const double x = probe.normal(0.0, 0.8);
    const double on[2] = {x, x + probe.normal(0.0, 0.1)};
    double off[2] = {x, -x};
    if (std::abs(off[1] - on[0]) < 0.6) off[1] += off[1] > x ? 0.6 : -0.6;
    benign_ok += f.predict(on) == 0 ? 1 : 0;
    forest_catch += static_cast<std::size_t>(f.predict(off));
    teacher_catch += static_cast<std::size_t>(teacher_->predict(off));
    ++n;
  }
  EXPECT_GT(static_cast<double>(benign_ok) / static_cast<double>(n), 0.8);
  // Axis-aligned leaves cannot carve a diagonal hole exactly (the paper's
  // "Challenge" paragraph), so the student undershoots a perfect teacher
  // here — but it must catch a clearly non-trivial share, and never more
  // than the teacher-guided structure allows.
  EXPECT_GT(forest_catch, n / 15);
  EXPECT_LE(forest_catch, teacher_catch);
}

TEST_F(GuidedForestTest, VoteFractionConsistentWithPredict) {
  GuidedForestConfig cfg;
  cfg.num_trees = 5;
  GuidedIsolationForest f{cfg};
  ml::Rng rng(5);
  f.fit(*train_, *teacher_, rng);
  ml::Rng probe(42);
  for (int i = 0; i < 100; ++i) {
    const double p[2] = {probe.uniform(-4, 4), probe.uniform(-4, 4)};
    const double v = f.vote_fraction(p);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_EQ(f.predict(p), 2.0 * v > 1.0 ? 1 : 0);
  }
}

TEST_F(GuidedForestTest, PointOutsideAllBenignBoxesIsMalicious) {
  GuidedForestConfig cfg;
  GuidedIsolationForest f{cfg};
  ml::Rng rng(6);
  f.fit(*train_, *teacher_, rng);
  // Far outside the training support in every dimension.
  const double far[2] = {50.0, -50.0};
  EXPECT_EQ(f.predict(far), 1);
  EXPECT_DOUBLE_EQ(f.vote_fraction(far), 1.0);
}

TEST_F(GuidedForestTest, FeatureRangeAccessorsMatchData) {
  GuidedForestConfig cfg;
  cfg.num_trees = 1;
  GuidedIsolationForest f{cfg};
  ml::Rng rng(7);
  f.fit(*train_, *teacher_, rng);
  ASSERT_EQ(f.feature_min().size(), 2u);
  double lo = 1e18, hi = -1e18;
  for (std::size_t i = 0; i < train_->rows(); ++i) {
    lo = std::min(lo, (*train_)(i, 0));
    hi = std::max(hi, (*train_)(i, 0));
  }
  EXPECT_DOUBLE_EQ(f.feature_min()[0], lo);
  EXPECT_DOUBLE_EQ(f.feature_max()[0], hi);
}

TEST_F(GuidedForestTest, EmptyInputsThrow) {
  GuidedIsolationForest f{GuidedForestConfig{}};
  ml::Rng rng(8);
  ml::Matrix empty;
  EXPECT_THROW(f.fit(empty, *teacher_, rng), std::invalid_argument);
  AeEnsemble untrained;
  EXPECT_THROW(f.fit(*train_, untrained, rng), std::invalid_argument);
  EXPECT_THROW(f.predict(std::vector<double>{0.0, 0.0}), std::logic_error);
}

TEST(AeEnsembleTest, WeightedVoteSemantics) {
  // Two members with controlled thresholds: vote passes 0.5 only when the
  // weighted sum of firing members exceeds it.
  ml::Rng rng(1);
  ml::Matrix train(0, 2);
  for (int i = 0; i < 400; ++i) {
    const double row[2] = {rng.normal(), rng.normal()};
    train.push_row(row);
  }
  AeEnsemble ens;
  AeEnsembleConfig cfg;
  cfg.ensemble_size = 2;
  cfg.base.encoder_hidden = {4, 2};
  cfg.base.epochs = 20;
  ens.fit(train, cfg, rng);

  const std::vector<double> errs_high = {1e9, 1e9};
  const std::vector<double> errs_low = {0.0, 0.0};
  EXPECT_EQ(ens.vote_from_errors(errs_high), 1);
  EXPECT_EQ(ens.vote_from_errors(errs_low), 0);
  // One member over threshold with uniform weights: 0.5 vote, not > 0.5.
  const std::vector<double> errs_split = {1e9, 0.0};
  EXPECT_EQ(ens.vote_from_errors(errs_split), 0);
  // Reweight so the firing member carries 0.6.
  ens.set_weights({0.6, 0.4});
  EXPECT_EQ(ens.vote_from_errors(errs_split), 1);
}

TEST(AeEnsembleTest, SetWeightsValidation) {
  ml::Rng rng(2);
  ml::Matrix train(0, 1);
  for (int i = 0; i < 100; ++i) {
    const double row[1] = {rng.normal()};
    train.push_row(row);
  }
  AeEnsemble ens;
  AeEnsembleConfig cfg;
  cfg.ensemble_size = 2;
  cfg.base.encoder_hidden = {2};
  cfg.base.epochs = 5;
  ens.fit(train, cfg, rng);
  EXPECT_THROW(ens.set_weights({1.0}), std::invalid_argument);
  EXPECT_THROW(ens.set_weights({0.9, 0.9}), std::invalid_argument);
  EXPECT_NO_THROW(ens.set_weights({0.3, 0.7}));
}

// --- golden bits ---------------------------------------------------------------

// FNV-1a over the raw bytes of every value fed in.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
};

// A fixed 13-feature matrix (the testbed FL width): three latent factors
// mixed linearly and through a tanh, plus small noise.
ml::Matrix golden_matrix() {
  ml::Rng rng(4242);
  ml::Matrix x(0, 13);
  std::vector<double> row(13);
  for (int i = 0; i < 360; ++i) {
    const double a = rng.normal(), b = rng.normal(), c = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const double k = static_cast<double>(j) + 1.0;
      row[j] = a * std::cos(k) + b * std::sin(0.7 * k) + std::tanh(c * k / 4.0) +
               0.05 * rng.normal();
    }
    x.push_row(row);
  }
  return x;
}

// Pins the exact bits of a testbed teacher (member thresholds and every
// reconstruction error on the matrix) and of a guided forest fit on it
// (splits, leaf labels and the distilled leaf_re), at 1 and 2 threads.
// Any change to the dense-layer kernels' floating-point operation order,
// or to how the forest queries its teacher, changes this hash.
TEST(GuidedForestGolden, TestbedTeacherAndForestBitsArePinned) {
  const ml::Matrix x = golden_matrix();
  for (std::size_t threads : {1u, 2u}) {
    AeEnsembleConfig tcfg{.ensemble_size = 3, .base = ml::testbed_autoencoder_config(12)};
    tcfg.num_threads = threads;
    ml::Rng rng(99);
    AeEnsemble teacher;
    teacher.fit(x, tcfg, rng);
    GuidedForestConfig fcfg;
    fcfg.augment = 64;
    fcfg.num_threads = threads;
    GuidedIsolationForest forest(fcfg);
    forest.fit(x, teacher, rng);

    Fnv1a h;
    for (std::size_t u = 0; u < teacher.size(); ++u) h.f64(teacher.member_threshold(u));
    const ml::Matrix re = teacher.reconstruction_errors(x, threads);
    for (double v : re.flat()) h.f64(v);
    std::size_t leaves = 0, malicious = 0;
    for (const auto& tree : forest.trees()) {
      for (const auto& n : tree.nodes) {
        h.i64(n.feature);
        h.f64(n.threshold);
        h.i64(n.label);
        for (double v : n.leaf_re) h.f64(v);
        leaves += n.feature < 0 ? 1 : 0;
        malicious += n.feature < 0 && n.label == 1 ? 1 : 0;
      }
    }
    // The fit must exercise both growth and distillation.
    EXPECT_GT(leaves, 5u * forest.trees().size()) << "threads " << threads;
    EXPECT_GT(malicious, 0u) << "threads " << threads;
    EXPECT_EQ(h.h, 0xc0b116fa57368fa4ull) << "threads " << threads;
  }
}

}  // namespace
}  // namespace iguard::core
