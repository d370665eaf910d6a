#include "core/structure_learner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "synth/synthetic_matrix.h"

namespace snorkel {
namespace {

std::set<std::pair<size_t, size_t>> AsSet(
    const std::vector<CorrelationPair>& pairs) {
  std::set<std::pair<size_t, size_t>> out;
  for (const auto& p : pairs) out.insert({p.j, p.k});
  return out;
}

TEST(StructureLearnerTest, RejectsMulticlassMatrix) {
  auto m = LabelMatrix::FromDense({{1, 3}}, 3);
  ASSERT_TRUE(m.ok());
  StructureLearner learner;
  EXPECT_FALSE(learner.LearnStructure(*m).ok());
}

TEST(StructureLearnerTest, RejectsNonPositiveEpsilon) {
  auto data = SyntheticMatrixGenerator::GenerateIid(100, 3, 0.8, 0.5, 1);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  EXPECT_FALSE(learner.LearnStructure(data->matrix, 0.0).ok());
  EXPECT_FALSE(learner.LearnStructure(data->matrix, -0.1).ok());
}

TEST(StructureLearnerTest, RejectsNonFiniteEpsilon) {
  auto data = SyntheticMatrixGenerator::GenerateIid(100, 3, 0.8, 0.5, 1);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(learner.LearnStructure(data->matrix, nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(learner.LearnStructure(data->matrix, inf).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(learner.Sweep(data->matrix, {0.2, nan, 0.1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(learner.Sweep(data->matrix, {inf, 0.1}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StructureLearnerTest, SingleLfYieldsNoPairs) {
  auto data = SyntheticMatrixGenerator::GenerateIid(100, 1, 0.8, 0.5, 2);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto pairs = learner.LearnStructure(data->matrix);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());
}

TEST(StructureLearnerTest, FindsPlantedCorrelatedBlock) {
  // 4 perfect copies (indices 0-3) + 6 independents: every selected pair
  // should be inside the block, and the block should be found.
  auto data = SyntheticMatrixGenerator::GenerateExample31(
      3000, /*num_correlated=*/4, /*num_independent=*/6,
      /*corr_accuracy=*/0.6, /*indep_accuracy=*/0.8, /*seed=*/3);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto pairs = learner.LearnStructure(data->matrix, 0.2);
  ASSERT_TRUE(pairs.ok());
  ASSERT_FALSE(pairs->empty());
  size_t in_block = 0;
  for (const auto& p : *pairs) {
    if (p.j < 4 && p.k < 4) ++in_block;
  }
  // The block dominates the selection and most block pairs are recovered.
  EXPECT_GE(in_block * 2, pairs->size() * 2 - pairs->size());
  EXPECT_GE(in_block, 3u);
  EXPECT_LE(pairs->size() - in_block, 2u);
}

TEST(StructureLearnerTest, IndependentLfsYieldFewPairs) {
  auto data = SyntheticMatrixGenerator::GenerateIid(3000, 8, 0.75, 0.4, 4);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto pairs = learner.LearnStructure(data->matrix, 0.2);
  ASSERT_TRUE(pairs.ok());
  EXPECT_LE(pairs->size(), 2u);  // 28 possible pairs; nearly all rejected.
}

TEST(StructureLearnerTest, PartialCopiesStillDetected) {
  // Copies with 70% copy probability are still strongly dependent.
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      4000, /*num_clusters=*/1, /*cluster_size=*/3, /*num_independent=*/5,
      /*accuracy=*/0.75, /*propensity=*/0.5, /*copy_prob=*/0.7, /*seed=*/5);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto pairs = learner.LearnStructure(data->matrix, 0.15);
  ASSERT_TRUE(pairs.ok());
  auto set = AsSet(*pairs);
  // At least the head-copy pairs (0,1) or (0,2) or the sibling pair (1,2).
  bool found_cluster_pair = set.count({0, 1}) || set.count({0, 2}) ||
                            set.count({1, 2});
  EXPECT_TRUE(found_cluster_pair);
}

TEST(StructureLearnerTest, SweepCountsAreMonotoneInEpsilon) {
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      2000, 2, 3, 4, 0.75, 0.5, 0.9, 6);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto sweep = learner.Sweep(data->matrix, {0.4, 0.3, 0.2, 0.1, 0.05});
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 5u);
  for (size_t i = 0; i + 1 < sweep->size(); ++i) {
    EXPECT_GT((*sweep)[i].epsilon, (*sweep)[i + 1].epsilon);
    // Lower ε keeps at least as many correlations (warm-started path).
    EXPECT_LE((*sweep)[i].num_correlations, (*sweep)[i + 1].num_correlations);
  }
}

TEST(StructureLearnerTest, SweepDeduplicatesAndSortsEpsilons) {
  auto data = SyntheticMatrixGenerator::GenerateIid(500, 4, 0.8, 0.5, 7);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto sweep = learner.Sweep(data->matrix, {0.1, 0.3, 0.1, 0.2});
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 3u);
  EXPECT_DOUBLE_EQ((*sweep)[0].epsilon, 0.3);
  EXPECT_DOUBLE_EQ((*sweep)[2].epsilon, 0.1);
}

TEST(ElbowTest, PicksKneeBeforeExplosion) {
  std::vector<StructureSweepPoint> sweep = {
      {0.30, 0}, {0.25, 2}, {0.20, 4}, {0.15, 6}, {0.10, 80}, {0.05, 400}};
  size_t elbow = StructureLearner::SelectElbowIndex(sweep);
  // The knee is at count 6 (index 3): past it the count explodes.
  EXPECT_EQ(elbow, 3u);
}

TEST(ElbowTest, HandlesShortSweeps) {
  EXPECT_EQ(StructureLearner::SelectElbowIndex({}), 0u);
  EXPECT_EQ(StructureLearner::SelectElbowIndex({{0.1, 5}}), 0u);
  EXPECT_EQ(StructureLearner::SelectElbowIndex({{0.2, 1}, {0.1, 9}}), 0u);
}

TEST(ElbowTest, FlatSweepPicksInterior) {
  std::vector<StructureSweepPoint> sweep = {{0.3, 5}, {0.2, 5}, {0.1, 5}};
  size_t elbow = StructureLearner::SelectElbowIndex(sweep);
  EXPECT_GE(elbow, 1u);
  EXPECT_LE(elbow, 1u);
}

TEST(StructureLearnerTest, DeterministicGivenSeed) {
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      1500, 1, 4, 3, 0.7, 0.5, 0.9, 8);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto a = learner.LearnStructure(data->matrix, 0.15);
  auto b = learner.LearnStructure(data->matrix, 0.15);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(AsSet(*a), AsSet(*b));
}

TEST(StructureLearnerTest, SweepAndLearnIdenticalAcrossThreadCounts) {
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      2000, 2, 3, 4, 0.75, 0.5, 0.8, 9);
  ASSERT_TRUE(data.ok());
  const std::vector<double> grid = {0.4, 0.3, 0.2, 0.15, 0.1, 0.05};
  std::vector<std::vector<StructureSweepPoint>> sweeps;
  std::vector<std::vector<CorrelationPair>> pairs;
  for (int threads : {1, 2, 4}) {
    StructureLearnerOptions options;
    options.num_threads = threads;
    options.max_rows = 1200;  // Exercises the subsample as well.
    StructureLearner learner(options);
    auto sweep = learner.Sweep(data->matrix, grid);
    auto learned = learner.LearnStructure(data->matrix, 0.1);
    ASSERT_TRUE(sweep.ok() && learned.ok());
    sweeps.push_back(*sweep);
    pairs.push_back(*learned);
  }
  for (size_t t = 1; t < sweeps.size(); ++t) {
    ASSERT_EQ(sweeps[t].size(), sweeps[0].size());
    for (size_t i = 0; i < sweeps[0].size(); ++i) {
      EXPECT_EQ(sweeps[t][i].epsilon, sweeps[0][i].epsilon);
      EXPECT_EQ(sweeps[t][i].num_correlations, sweeps[0][i].num_correlations);
    }
    ASSERT_EQ(pairs[t].size(), pairs[0].size());
    for (size_t i = 0; i < pairs[0].size(); ++i) {
      EXPECT_EQ(pairs[t][i].j, pairs[0][i].j);
      EXPECT_EQ(pairs[t][i].k, pairs[0][i].k);
    }
  }
}

TEST(StructureLearnerTest, RepeatedRowsFitLikeTheirPatterns) {
  // Repeating every row 3x (the copies interleaved, not adjacent) changes
  // each distinct row's count but not its share of the rows, so the
  // count-weighted fit must make the same decisions.
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      800, 2, 3, 4, 0.75, 0.5, 0.9, 10);
  ASSERT_TRUE(data.ok());
  const LabelMatrix& once = data->matrix;
  std::vector<size_t> order(once.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<size_t> thrice;
  for (int copy = 0; copy < 3; ++copy) {
    thrice.insert(thrice.end(), order.begin(), order.end());
  }
  const LabelMatrix repeated = once.SelectRows(thrice);
  ASSERT_EQ(repeated.num_rows(), 3 * once.num_rows());

  StructureLearner learner;  // max_rows 8000: neither matrix is subsampled.
  const std::vector<double> grid = {0.4, 0.3, 0.2, 0.15, 0.1, 0.05};
  auto sweep_once = learner.Sweep(once, grid);
  auto sweep_thrice = learner.Sweep(repeated, grid);
  ASSERT_TRUE(sweep_once.ok() && sweep_thrice.ok());
  ASSERT_EQ(sweep_once->size(), sweep_thrice->size());
  size_t total = 0;
  for (size_t i = 0; i < sweep_once->size(); ++i) {
    EXPECT_EQ((*sweep_once)[i].num_correlations,
              (*sweep_thrice)[i].num_correlations);
    total += (*sweep_once)[i].num_correlations;
  }
  EXPECT_GT(total, 0u);

  for (double eps : {0.2, 0.1}) {
    auto a = learner.LearnStructure(once, eps);
    auto b = learner.LearnStructure(repeated, eps);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_FALSE(a->empty());
    EXPECT_EQ(AsSet(*a), AsSet(*b));
  }
}

}  // namespace
}  // namespace snorkel
