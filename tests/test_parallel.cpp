// The parallelism layer (ml/parallel.hpp) and its central promise: training
// and scoring results are bit-identical at every thread count, because each
// task draws from an RNG stream that is a pure function of (seed, index).
#include "ml/parallel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/ae_ensemble.hpp"
#include "core/guided_iforest.hpp"

namespace iguard {
namespace {

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ml::resolve_threads(0), 1u);
  EXPECT_EQ(ml::resolve_threads(1), 1u);
  EXPECT_EQ(ml::resolve_threads(3), 3u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ml::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t n = 10000;
  std::vector<int> hits(n, 0);  // each task owns its own element: no race
  pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ml::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(17, 0);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ThreadPool, EmptyAndSingleTaskRunInline) {
  ml::ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no tasks expected"; });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, RethrowsFirstTaskException) {
  ml::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i % 7 == 0) throw std::runtime_error("task failed");
                                 }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::vector<int> hits(8, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(TaskRng, StreamsAreStableAndDecorrelated) {
  // Same (seed, index) -> same stream, regardless of when it is created.
  ml::Rng a = ml::task_rng(42, 7);
  ml::Rng b = ml::task_rng(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.engine()(), b.engine()());
  // Adjacent indices give unrelated first draws.
  ml::Rng c = ml::task_rng(42, 8);
  EXPECT_NE(ml::task_rng(42, 7).engine()(), c.engine()());
}

// --- bit-identical fits across thread counts ---------------------------------

// Small 2-D benign manifold (y = x) shared by the determinism tests.
ml::Matrix manifold(std::size_t rows, std::uint64_t seed) {
  ml::Rng rng(seed);
  ml::Matrix x(0, 2);
  for (std::size_t i = 0; i < rows; ++i) {
    const double t = rng.normal(0.0, 1.0);
    const double row[2] = {t, t + rng.normal(0.0, 0.1)};
    x.push_row(row);
  }
  return x;
}

core::AeEnsembleConfig small_teacher_config(std::size_t num_threads) {
  core::AeEnsembleConfig cfg;
  cfg.ensemble_size = 2;
  cfg.base.encoder_hidden = {4, 1};
  cfg.base.epochs = 15;
  cfg.num_threads = num_threads;
  return cfg;
}

TEST(ParallelDeterminism, AeEnsembleFitMatchesSequential) {
  const ml::Matrix train = manifold(300, 11);
  core::AeEnsemble seq, par;
  {
    ml::Rng rng(5);
    seq.fit(train, small_teacher_config(1), rng);
  }
  {
    ml::Rng rng(5);
    par.fit(train, small_teacher_config(4), rng);
  }
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t u = 0; u < seq.size(); ++u) {
    EXPECT_EQ(seq.member_threshold(u), par.member_threshold(u));
    for (std::size_t i = 0; i < train.rows(); i += 37) {
      EXPECT_EQ(seq.reconstruction_error(u, train.row(i)),
                par.reconstruction_error(u, train.row(i)));
    }
  }
}

TEST(ParallelDeterminism, BatchedScoringMatchesPerRow) {
  const ml::Matrix train = manifold(300, 11);
  core::AeEnsemble ens;
  ml::Rng rng(5);
  ens.fit(train, small_teacher_config(1), rng);

  // Several scoring blocks, so the 4-thread run really spreads them.
  const ml::Matrix probe = manifold(3 * ml::Autoencoder::kScoreRows + 5, 99);
  const ml::Matrix e1 = ens.reconstruction_errors(probe, 1);
  const ml::Matrix e4 = ens.reconstruction_errors(probe, 4);
  const auto p4 = ens.predict_batch(probe, 4);
  ASSERT_EQ(e1.rows(), probe.rows());
  ASSERT_EQ(e1.cols(), ens.size());
  for (std::size_t i = 0; i < probe.rows(); ++i) {
    for (std::size_t u = 0; u < ens.size(); ++u) {
      EXPECT_EQ(e1(i, u), ens.reconstruction_error(u, probe.row(i)));
      EXPECT_EQ(e1(i, u), e4(i, u));
    }
    EXPECT_EQ(p4[i], ens.predict(probe.row(i)));
  }
}

TEST(ParallelDeterminism, GuidedForestFitIsThreadCountInvariant) {
  const ml::Matrix train = manifold(500, 11);
  core::AeEnsemble teacher;
  {
    ml::Rng rng(5);
    teacher.fit(train, small_teacher_config(1), rng);
  }

  core::GuidedForestConfig base;
  base.num_trees = 4;
  base.subsample = 128;
  base.augment = 32;

  auto fit_with = [&](std::size_t threads) {
    core::GuidedForestConfig cfg = base;
    cfg.num_threads = threads;
    core::GuidedIsolationForest f(cfg);
    ml::Rng rng(99);
    f.fit(train, teacher, rng);
    return f;
  };
  const auto f1 = fit_with(1);
  const auto f8 = fit_with(8);

  ASSERT_EQ(f1.trees().size(), f8.trees().size());
  for (std::size_t t = 0; t < f1.trees().size(); ++t) {
    const auto& na = f1.trees()[t].nodes;
    const auto& nb = f8.trees()[t].nodes;
    ASSERT_EQ(na.size(), nb.size()) << "tree " << t;
    for (std::size_t i = 0; i < na.size(); ++i) {
      SCOPED_TRACE("tree " + std::to_string(t) + " node " + std::to_string(i));
      EXPECT_EQ(na[i].feature, nb[i].feature);
      EXPECT_EQ(na[i].threshold, nb[i].threshold);  // bit-identical, not NEAR
      EXPECT_EQ(na[i].left, nb[i].left);
      EXPECT_EQ(na[i].right, nb[i].right);
      EXPECT_EQ(na[i].depth, nb[i].depth);
      EXPECT_EQ(na[i].label, nb[i].label);
      EXPECT_EQ(na[i].train_count, nb[i].train_count);
      EXPECT_EQ(na[i].leaf_re, nb[i].leaf_re);
      EXPECT_EQ(na[i].box_lo, nb[i].box_lo);
      EXPECT_EQ(na[i].box_hi, nb[i].box_hi);
    }
  }
  EXPECT_EQ(f1.feature_min(), f8.feature_min());
  EXPECT_EQ(f1.feature_max(), f8.feature_max());
}

}  // namespace
}  // namespace iguard
