#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <limits>

#include "lf/applier.h"
#include "synth/relation_task.h"
#include "synth/synthetic_matrix.h"

namespace snorkel {
namespace {

OptimizerOptions FastOptions() {
  OptimizerOptions options;
  options.eta = 0.1;  // Coarse ε grid keeps tests fast.
  options.structure.epochs = 20;
  options.structure.sweep_epochs = 10;
  options.structure.max_rows = 2000;
  return options;
}

TEST(OptimizerTest, RejectsMulticlass) {
  auto m = LabelMatrix::FromDense({{1, 3}}, 3);
  ASSERT_TRUE(m.ok());
  ModelingStrategyOptimizer optimizer(FastOptions());
  EXPECT_FALSE(optimizer.Choose(*m).ok());
}

TEST(OptimizerTest, RejectsBadHyperparameters) {
  auto data = SyntheticMatrixGenerator::GenerateIid(100, 3, 0.8, 0.5, 1);
  ASSERT_TRUE(data.ok());
  OptimizerOptions bad = FastOptions();
  bad.eta = 0.0;
  EXPECT_FALSE(ModelingStrategyOptimizer(bad).Choose(data->matrix).ok());
  bad = FastOptions();
  bad.gamma = -1.0;
  EXPECT_FALSE(ModelingStrategyOptimizer(bad).Choose(data->matrix).ok());
}

TEST(OptimizerTest, RejectsNonFiniteHyperparameters) {
  auto data = SyntheticMatrixGenerator::GenerateIid(100, 3, 0.8, 0.5, 1);
  ASSERT_TRUE(data.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double eta : {nan, inf}) {
    OptimizerOptions bad = FastOptions();
    bad.eta = eta;
    EXPECT_EQ(ModelingStrategyOptimizer(bad).Choose(data->matrix)
                  .status().code(),
              StatusCode::kInvalidArgument);
  }
  for (double gamma : {nan, inf}) {
    OptimizerOptions bad = FastOptions();
    bad.gamma = gamma;
    EXPECT_EQ(ModelingStrategyOptimizer(bad).Choose(data->matrix)
                  .status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(OptimizerTest, CdrDecisionIsPinned) {
  // The CDR train split at the benchmark's Algorithm 1 settings. The values
  // below are the per-row structure learner's; fitting each distinct row
  // once, weighted by its count, must reproduce them exactly.
  auto task = MakeCdrTask(1, 0.5);
  ASSERT_TRUE(task.ok());
  auto matrix = LFApplier(LFApplier::Options{.num_threads = 2,
                                             .cardinality = 2})
                    .Apply(task->lfs, task->corpus, task->candidates);
  ASSERT_TRUE(matrix.ok());
  const LabelMatrix train = matrix->SelectRows(task->train_idx);

  OptimizerOptions options;
  options.eta = 0.05;
  options.structure.epochs = 25;
  options.structure.sweep_epochs = 10;
  options.structure.max_rows = 4000;
  auto decision = ModelingStrategyOptimizer(options).Choose(train);
  ASSERT_TRUE(decision.ok());
  ASSERT_EQ(decision->strategy, ModelingStrategy::kGenerativeModel);
  std::vector<size_t> counts;
  for (const auto& point : decision->sweep) {
    counts.push_back(point.num_correlations);
  }
  EXPECT_EQ(counts, (std::vector<size_t>{0, 0, 0, 0, 0, 0, 0, 0, 2, 23}));
  EXPECT_NEAR(decision->chosen_epsilon, 0.15, 1e-12);
  EXPECT_EQ(decision->correlations.size(), 15u);
}

TEST(OptimizerTest, SingleLfChoosesMajorityVote) {
  // One LF can never beat its own majority vote: Ã* = 0 < γ.
  auto data = SyntheticMatrixGenerator::GenerateIid(1000, 1, 0.8, 0.3, 2);
  ASSERT_TRUE(data.ok());
  ModelingStrategyOptimizer optimizer(FastOptions());
  auto decision = optimizer.Choose(data->matrix);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->strategy, ModelingStrategy::kMajorityVote);
  EXPECT_DOUBLE_EQ(decision->predicted_advantage, 0.0);
  EXPECT_TRUE(decision->correlations.empty());
}

TEST(OptimizerTest, LowDensityChoosesMajorityVote) {
  // Very sparse votes: almost no conflicts, Ã* below γ.
  auto data = SyntheticMatrixGenerator::GenerateIid(3000, 4, 0.8, 0.02, 3);
  ASSERT_TRUE(data.ok());
  ModelingStrategyOptimizer optimizer(FastOptions());
  auto decision = optimizer.Choose(data->matrix);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->strategy, ModelingStrategy::kMajorityVote);
}

TEST(OptimizerTest, MidDensityChoosesGenerativeModel) {
  auto data = SyntheticMatrixGenerator::GenerateIid(2000, 10, 0.75, 0.1, 4);
  ASSERT_TRUE(data.ok());
  ModelingStrategyOptimizer optimizer(FastOptions());
  auto decision = optimizer.Choose(data->matrix);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->strategy, ModelingStrategy::kGenerativeModel);
  EXPECT_GE(decision->predicted_advantage, optimizer.options().gamma);
  // The ε sweep ran and the chosen ε comes from its grid.
  EXPECT_FALSE(decision->sweep.empty());
  EXPECT_GT(decision->chosen_epsilon, 0.0);
}

TEST(OptimizerTest, SweepGridMatchesEta) {
  auto data = SyntheticMatrixGenerator::GenerateIid(1000, 8, 0.7, 0.3, 5);
  ASSERT_TRUE(data.ok());
  OptimizerOptions options = FastOptions();
  options.eta = 0.1;  // Grid {0.1, ..., 0.5}: 5 points.
  ModelingStrategyOptimizer optimizer(options);
  auto decision = optimizer.Choose(data->matrix);
  ASSERT_TRUE(decision.ok());
  if (decision->strategy == ModelingStrategy::kGenerativeModel) {
    EXPECT_EQ(decision->sweep.size(), 5u);
    EXPECT_DOUBLE_EQ(decision->sweep.front().epsilon, 0.5);
    EXPECT_DOUBLE_EQ(decision->sweep.back().epsilon, 0.1);
  }
}

TEST(OptimizerTest, StructureSearchCanBeDisabled) {
  auto data = SyntheticMatrixGenerator::GenerateIid(2000, 10, 0.75, 0.1, 6);
  ASSERT_TRUE(data.ok());
  OptimizerOptions options = FastOptions();
  options.search_structure = false;
  ModelingStrategyOptimizer optimizer(options);
  auto decision = optimizer.Choose(data->matrix);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->strategy, ModelingStrategy::kGenerativeModel);
  EXPECT_TRUE(decision->sweep.empty());
  EXPECT_TRUE(decision->correlations.empty());
}

TEST(OptimizerTest, CorrelatedLfsSurfaceInDecision) {
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      3000, /*num_clusters=*/2, /*cluster_size=*/3, /*num_independent=*/4,
      /*accuracy=*/0.75, /*propensity=*/0.4, /*copy_prob=*/0.9, /*seed=*/7);
  ASSERT_TRUE(data.ok());
  ModelingStrategyOptimizer optimizer(FastOptions());
  auto decision = optimizer.Choose(data->matrix);
  ASSERT_TRUE(decision.ok());
  ASSERT_EQ(decision->strategy, ModelingStrategy::kGenerativeModel);
  EXPECT_FALSE(decision->correlations.empty());
}

TEST(OptimizerTest, GammaControlsTheThreshold) {
  auto data = SyntheticMatrixGenerator::GenerateIid(2000, 10, 0.75, 0.1, 8);
  ASSERT_TRUE(data.ok());
  OptimizerOptions lenient = FastOptions();
  lenient.gamma = 0.0;
  OptimizerOptions strict = FastOptions();
  strict.gamma = 1.1;  // Impossible bar: Ã* <= 2 but realistic values < 1.
  auto lenient_decision =
      ModelingStrategyOptimizer(lenient).Choose(data->matrix);
  auto strict_decision = ModelingStrategyOptimizer(strict).Choose(data->matrix);
  ASSERT_TRUE(lenient_decision.ok() && strict_decision.ok());
  EXPECT_EQ(lenient_decision->strategy, ModelingStrategy::kGenerativeModel);
  EXPECT_EQ(strict_decision->strategy, ModelingStrategy::kMajorityVote);
}

TEST(OptimizerTest, StrategyToString) {
  EXPECT_EQ(ModelingStrategyToString(ModelingStrategy::kMajorityVote), "MV");
  EXPECT_EQ(ModelingStrategyToString(ModelingStrategy::kGenerativeModel), "GM");
}

}  // namespace
}  // namespace snorkel
