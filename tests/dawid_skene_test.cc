#include "core/dawid_skene.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/majority_vote.h"
#include "eval/metrics.h"
#include "synth/synthetic_matrix.h"
#include "util/math_util.h"
#include "util/random.h"

namespace snorkel {
namespace {

/// Simulates a K-class crowdsourcing matrix: each worker votes on each item
/// with probability `propensity`, is correct with probability equal to its
/// accuracy, and otherwise picks a uniformly random wrong class.
struct CrowdData {
  LabelMatrix matrix;
  std::vector<Label> gold;
};

CrowdData MakeCrowd(size_t num_items, const std::vector<double>& worker_accs,
                    int cardinality, double propensity, uint64_t seed) {
  Rng rng(seed);
  std::vector<Label> gold(num_items);
  std::vector<std::vector<Label>> dense(
      num_items, std::vector<Label>(worker_accs.size(), kAbstain));
  for (size_t i = 0; i < num_items; ++i) {
    gold[i] = static_cast<Label>(rng.UniformInt(1, cardinality));
    for (size_t j = 0; j < worker_accs.size(); ++j) {
      if (!rng.Bernoulli(propensity)) continue;
      if (rng.Bernoulli(worker_accs[j])) {
        dense[i][j] = gold[i];
      } else {
        Label wrong = static_cast<Label>(rng.UniformInt(1, cardinality - 1));
        if (wrong >= gold[i]) ++wrong;
        dense[i][j] = wrong;
      }
    }
  }
  auto matrix = LabelMatrix::FromDense(dense, cardinality);
  EXPECT_TRUE(matrix.ok());
  return CrowdData{std::move(matrix).value(), std::move(gold)};
}

TEST(DawidSkeneTest, RejectsEmptyMatrix) {
  auto m = LabelMatrix::FromDense({});
  ASSERT_TRUE(m.ok());
  DawidSkeneModel model;
  EXPECT_FALSE(model.Fit(*m).ok());
}

TEST(DawidSkeneTest, RecoversWorkerAccuraciesFiveClasses) {
  std::vector<double> accs = {0.9, 0.9, 0.7, 0.5, 0.3};
  CrowdData crowd = MakeCrowd(2000, accs, 5, 0.8, 17);
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(crowd.matrix).ok());
  for (size_t j = 0; j < accs.size(); ++j) {
    EXPECT_NEAR(model.WorkerAccuracy(j), accs[j], 0.08) << "worker " << j;
  }
}

TEST(DawidSkeneTest, BeatsPluralityVoteWithHeterogeneousWorkers) {
  // Two excellent workers among six noisy ones; weighting should win.
  std::vector<double> accs = {0.95, 0.95, 0.45, 0.45, 0.45, 0.45};
  CrowdData crowd = MakeCrowd(3000, accs, 5, 0.7, 18);
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(crowd.matrix).ok());
  double ds_acc = MulticlassAccuracy(model.PredictLabels(crowd.matrix),
                                     crowd.gold);
  double mv_acc = MulticlassAccuracy(PluralityVotePredictions(crowd.matrix),
                                     crowd.gold);
  EXPECT_GT(ds_acc, mv_acc + 0.05);
}

TEST(DawidSkeneTest, BinaryMatrixLabelMapping) {
  auto data = SyntheticMatrixGenerator::GenerateIid(1500, 6, 0.85, 0.7, 19);
  ASSERT_TRUE(data.ok());
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(data->matrix).ok());
  EXPECT_EQ(model.cardinality(), 2);
  EXPECT_EQ(model.ClassToLabel(0), 1);
  EXPECT_EQ(model.ClassToLabel(1), -1);
  EXPECT_EQ(model.LabelToClass(1), 0u);
  EXPECT_EQ(model.LabelToClass(-1), 1u);
  auto preds = model.PredictLabels(data->matrix);
  auto conf = ComputeBinaryConfusion(preds, data->gold);
  EXPECT_GT(conf.Accuracy(), 0.9);
}

TEST(DawidSkeneTest, AgreesWithGenerativeModelOnBinaryIid) {
  // Both models estimate the same latent-class structure on independent
  // binary data; their accuracy estimates should be close.
  auto data = SyntheticMatrixGenerator::GenerateIid(4000, 5, 0.8, 0.6, 20);
  ASSERT_TRUE(data.ok());
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(data->matrix).ok());
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(model.WorkerAccuracy(j), 0.8, 0.07);
  }
}

TEST(DawidSkeneTest, PosteriorsSumToOne) {
  CrowdData crowd = MakeCrowd(200, {0.8, 0.6, 0.4}, 3, 0.9, 21);
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(crowd.matrix).ok());
  auto proba = model.PredictProba(crowd.matrix);
  for (const auto& row : proba) {
    double sum = 0.0;
    for (double p : row) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DawidSkeneTest, AllAbstainRowGetsClassPriors) {
  auto m = LabelMatrix::FromDense({{1, 1}, {1, 1}, {1, 0}, {2, 2}, {0, 0}}, 3);
  ASSERT_TRUE(m.ok());
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(*m).ok());
  auto proba = model.PredictProba(*m);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(proba[4][c], model.class_priors()[c], 1e-9);
  }
}

TEST(DawidSkeneTest, EstimatesClassImbalance) {
  // 80/20 binary imbalance with accurate workers.
  Rng rng(22);
  std::vector<std::vector<Label>> dense;
  for (int i = 0; i < 2000; ++i) {
    Label y = rng.Bernoulli(0.8) ? 1 : -1;
    std::vector<Label> row(4, kAbstain);
    for (int j = 0; j < 4; ++j) {
      row[static_cast<size_t>(j)] =
          rng.Bernoulli(0.9) ? y : static_cast<Label>(-y);
    }
    dense.push_back(std::move(row));
  }
  auto m = LabelMatrix::FromDense(dense);
  ASSERT_TRUE(m.ok());
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(*m).ok());
  // Class index 0 is +1.
  EXPECT_NEAR(model.class_priors()[0], 0.8, 0.05);
}

TEST(DawidSkeneTest, UniformPriorsWhenBalanceEstimationDisabled) {
  CrowdData crowd = MakeCrowd(500, {0.8, 0.7}, 4, 0.9, 23);
  DawidSkeneOptions options;
  options.estimate_class_balance = false;
  DawidSkeneModel model(options);
  ASSERT_TRUE(model.Fit(crowd.matrix).ok());
  for (double p : model.class_priors()) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(DawidSkeneTest, ConvergesBeforeMaxIters) {
  CrowdData crowd = MakeCrowd(800, {0.9, 0.8, 0.7}, 3, 0.9, 24);
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(crowd.matrix).ok());
  EXPECT_LT(model.iterations(), 200);
}

TEST(DawidSkeneTest, ConfusionRowsAreDistributions) {
  CrowdData crowd = MakeCrowd(500, {0.75, 0.55}, 4, 0.8, 25);
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(crowd.matrix).ok());
  for (size_t j = 0; j < 2; ++j) {
    for (size_t c = 0; c < 4; ++c) {
      double sum = 0.0;
      for (double v : model.Confusion(j)[c]) sum += v;
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(DawidSkeneTest, FlatPosteriorsMatchNestedAndAnyThreadCount) {
  CrowdData crowd = MakeCrowd(700, {0.8, 0.6, 0.45, 0.7}, 5, 0.7, 31);
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(crowd.matrix).ok());

  auto nested = model.PredictProba(crowd.matrix);
  std::vector<double> flat = model.PredictProbaFlat(crowd.matrix);
  ASSERT_EQ(flat.size(), nested.size() * 5);
  for (size_t i = 0; i < nested.size(); ++i) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(flat[i * 5 + c], nested[i][c])
          << "flat/nested drift at (" << i << ", " << c << ")";
    }
  }

  // The serving kernel shards over fixed-grain rows: any thread count must
  // produce the same bits.
  for (int threads : {1, 2, 8}) {
    DawidSkeneOptions options;
    options.num_threads = threads;
    DawidSkeneModel threaded(options);
    ASSERT_TRUE(threaded
                    .Restore(model.cardinality(), model.num_lfs(),
                             model.class_priors(), model.FlatConfusions())
                    .ok());
    EXPECT_EQ(threaded.PredictProbaFlat(crowd.matrix), flat)
        << "thread count " << threads << " drifted";
  }
}

/// The textbook EM loop, written independently of the model: nested
/// posteriors, a std::log per vote and class, SoftmaxInPlace. On at most
/// 2048 rows the model's M-step is one shard, so summing into a zeroed
/// accumulator and then adding it to the smoothing reproduces its order.
struct ReferenceEm {
  std::vector<double> priors;
  std::vector<std::vector<std::vector<double>>> conf;  // [j][c][e]
  int iterations = 0;
};

size_t RefClass(Label y, int k) {
  if (k == 2) return y > 0 ? 0 : 1;
  return static_cast<size_t>(y) - 1;
}

std::vector<std::vector<double>> RefPosteriors(const LabelMatrix& matrix,
                                               const ReferenceEm& em) {
  size_t k = em.priors.size();
  std::vector<std::vector<double>> post(matrix.num_rows());
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    std::vector<double> log_post(k);
    for (size_t c = 0; c < k; ++c) log_post[c] = std::log(em.priors[c]);
    for (const auto& e : matrix.row(i)) {
      size_t emitted = RefClass(e.label, matrix.cardinality());
      for (size_t c = 0; c < k; ++c) {
        log_post[c] += std::log(em.conf[e.lf][c][emitted]);
      }
    }
    SoftmaxInPlace(&log_post);
    post[i] = std::move(log_post);
  }
  return post;
}

ReferenceEm FitReferenceEm(const LabelMatrix& matrix,
                           const DawidSkeneOptions& options) {
  size_t k = static_cast<size_t>(matrix.cardinality());
  size_t m = matrix.num_rows();
  size_t n = matrix.num_lfs();
  double s = options.smoothing;
  std::vector<std::vector<double>> post(m, std::vector<double>(k, s + 1e-3));
  for (size_t i = 0; i < m; ++i) {
    for (const auto& e : matrix.row(i)) {
      post[i][RefClass(e.label, matrix.cardinality())] += 1.0;
    }
    double z = 0.0;
    for (double p : post[i]) z += p;
    for (double& p : post[i]) p /= z;
  }
  ReferenceEm em;
  em.priors.assign(k, 1.0 / static_cast<double>(k));
  for (int iter = 0; iter < options.max_iters; ++iter) {
    ++em.iterations;
    std::vector<double> prior_acc(k, 0.0);
    std::vector<std::vector<std::vector<double>>> conf_acc(
        n, std::vector<std::vector<double>>(k, std::vector<double>(k, 0.0)));
    for (size_t i = 0; i < m; ++i) {
      for (size_t c = 0; c < k; ++c) prior_acc[c] += post[i][c];
      for (const auto& e : matrix.row(i)) {
        size_t emitted = RefClass(e.label, matrix.cardinality());
        for (size_t c = 0; c < k; ++c) conf_acc[e.lf][c][emitted] += post[i][c];
      }
    }
    if (options.estimate_class_balance) {
      double z = 0.0;
      for (double& p : prior_acc) z += (p += s);
      for (size_t c = 0; c < k; ++c) em.priors[c] = prior_acc[c] / z;
    }
    em.conf = std::move(conf_acc);
    for (auto& lf : em.conf) {
      for (auto& row : lf) {
        double z = 0.0;
        for (double& v : row) z += (v += s);
        for (double& v : row) v /= z;
      }
    }
    std::vector<std::vector<double>> next = RefPosteriors(matrix, em);
    double max_change = 0.0;
    for (size_t i = 0; i < m; ++i) {
      for (size_t c = 0; c < k; ++c) {
        max_change = std::max(max_change, std::fabs(next[i][c] - post[i][c]));
      }
    }
    post = std::move(next);
    if (max_change < options.tol) break;
  }
  return em;
}

void ExpectMatchesReference(const LabelMatrix& matrix,
                            DawidSkeneOptions options) {
  ASSERT_LE(matrix.num_rows(), 2048u);
  ReferenceEm ref = FitReferenceEm(matrix, options);
  std::vector<double> ref_conf;
  for (const auto& lf : ref.conf) {
    for (const auto& row : lf) {
      ref_conf.insert(ref_conf.end(), row.begin(), row.end());
    }
  }
  std::vector<double> ref_post;
  for (const auto& row : RefPosteriors(matrix, ref)) {
    ref_post.insert(ref_post.end(), row.begin(), row.end());
  }
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    DawidSkeneModel model(options);
    ASSERT_TRUE(model.Fit(matrix).ok());
    EXPECT_EQ(model.iterations(), ref.iterations) << threads << " threads";
    EXPECT_EQ(model.FlatConfusions(), ref_conf) << threads << " threads";
    EXPECT_EQ(model.class_priors(), ref.priors) << threads << " threads";
    EXPECT_EQ(model.PredictProbaFlat(matrix), ref_post)
        << threads << " threads";
  }
}

TEST(DawidSkeneTest, FitMatchesReferenceEmBitwise) {
  {
    SCOPED_TRACE("binary, imbalanced, default tol");
    Rng rng(41);
    const std::vector<double> accs = {0.95, 0.9, 0.9, 0.85, 0.8, 0.85};
    std::vector<std::vector<Label>> dense;
    for (int i = 0; i < 1800; ++i) {
      Label y = rng.Bernoulli(0.75) ? 1 : -1;
      std::vector<Label> row(accs.size(), kAbstain);
      for (size_t j = 0; j < accs.size(); ++j) {
        if (!rng.Bernoulli(0.9)) continue;
        row[j] = rng.Bernoulli(accs[j]) ? y : static_cast<Label>(-y);
      }
      dense.push_back(std::move(row));
    }
    auto m = LabelMatrix::FromDense(dense);
    ASSERT_TRUE(m.ok());
    DawidSkeneOptions options;
    ReferenceEm probe = FitReferenceEm(*m, options);
    ASSERT_LT(probe.iterations, options.max_iters) << "must stop early";
    ExpectMatchesReference(*m, options);
  }
  {
    SCOPED_TRACE("K = 5 crowd, tol = 0");
    std::vector<double> accs;
    for (int j = 0; j < 40; ++j) accs.push_back(0.35 + 0.01 * j);
    CrowdData crowd = MakeCrowd(2048, accs, 5, 0.4, 42);
    DawidSkeneOptions options;
    options.max_iters = 20;
    options.tol = 0.0;
    ExpectMatchesReference(crowd.matrix, options);
  }
}

TEST(DawidSkeneTest, RestoreRoundTripsBitwise) {
  CrowdData crowd = MakeCrowd(400, {0.85, 0.5, 0.65}, 3, 0.75, 13);
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(crowd.matrix).ok());

  DawidSkeneModel restored;
  ASSERT_TRUE(restored
                  .Restore(model.cardinality(), model.num_lfs(),
                           model.class_priors(), model.FlatConfusions())
                  .ok());
  EXPECT_TRUE(restored.is_fit());
  EXPECT_EQ(restored.cardinality(), 3);
  EXPECT_EQ(restored.num_lfs(), 3u);
  EXPECT_EQ(restored.PredictProbaFlat(crowd.matrix),
            model.PredictProbaFlat(crowd.matrix));
  EXPECT_EQ(restored.PredictLabels(crowd.matrix),
            model.PredictLabels(crowd.matrix));
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(restored.WorkerAccuracy(j), model.WorkerAccuracy(j));
  }
}

TEST(DawidSkeneTest, RestoreValidatesShapesAndPositivity) {
  DawidSkeneModel model;
  // Wrong prior length.
  EXPECT_EQ(model.Restore(3, 1, {0.5, 0.5}, std::vector<double>(9, 1.0 / 3))
                .code(),
            StatusCode::kInvalidArgument);
  // Wrong confusion length.
  EXPECT_EQ(model.Restore(3, 1, {0.4, 0.3, 0.3}, std::vector<double>(8, 0.1))
                .code(),
            StatusCode::kInvalidArgument);
  // A zero probability would be log'd to -inf.
  std::vector<double> with_zero(9, 1.0 / 3);
  with_zero[4] = 0.0;
  EXPECT_EQ(model.Restore(3, 1, {0.4, 0.3, 0.3}, with_zero).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(model.is_fit());
  EXPECT_TRUE(
      model.Restore(3, 1, {0.4, 0.3, 0.3}, std::vector<double>(9, 1.0 / 3))
          .ok());
  EXPECT_TRUE(model.is_fit());
}

}  // namespace
}  // namespace snorkel
