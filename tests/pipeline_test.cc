#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include "synth/relation_task.h"

namespace snorkel {
namespace {

PipelineOptions FastOptions() {
  PipelineOptions options;
  options.gen.epochs = 150;
  options.disc.epochs = 10;
  options.num_threads = 2;
  return options;
}

TEST(PipelineTest, CdrEndToEndReproducesTable3Shape) {
  auto task = MakeCdrTask(42, 0.25);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  auto report = RunRelationPipeline(*task, FastOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Shape claims of Table 3 (not absolute numbers):
  // 1. The generative model is far more precise than raw distant
  //    supervision.
  EXPECT_GT(report->gen_test.Precision(), report->ds_test.Precision() + 0.1);
  // 2. The discriminative model generalizes beyond the LFs (Example 2.5):
  //    high recall, and overall at least on par with the generative stage.
  EXPECT_GT(report->disc_test.Recall(), 0.6);
  EXPECT_GT(report->disc_test.F1(), report->gen_test.F1() - 0.20);
  // 3. Snorkel (Disc.) beats the distant-supervision baseline on F1.
  EXPECT_GT(report->disc_test.F1(), report->ds_test.F1());
  // 4. Snorkel approaches hand supervision. The gap is wider here than the
  //    paper's ~2 F1 because the synthetic hand baseline trains on a large
  //    near-deterministic gold set; ROADMAP.md item 1 tracks the end-model
  //    gaps to the paper.
  EXPECT_GT(report->disc_test.F1(), report->hand_test.F1() - 0.25);
}

TEST(PipelineTest, GenerativeLabelsBeatUnweightedAverage) {
  // Table 5's premise: the generative model's probabilistic labels are
  // higher quality (lower Brier vs gold) than the unweighted LF average.
  auto task = MakeCdrTask(43, 0.25);
  ASSERT_TRUE(task.ok());
  auto report = RunRelationPipeline(*task, FastOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->gen_label_brier, report->unweighted_label_brier);
}

TEST(PipelineTest, LfSubsetRestrictsMatrix) {
  auto task = MakeSpousesTask(44, 0.2);
  ASSERT_TRUE(task.ok());
  PipelineOptions options = FastOptions();
  // A subset with positive and negative LFs so votes overlap and conflict
  // (with zero overlap, source accuracies are unidentifiable from Λ and the
  // pipeline reports FailedPrecondition — see the test below).
  options.lf_subset = {0, 1, 2, 5, 6, 8, 9};
  options.run_hand_baseline = false;
  options.run_ds_baseline = false;
  options.run_unweighted_baseline = false;
  auto report = RunRelationPipeline(*task, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->gen_accuracies.size(), 7u);
}

TEST(PipelineTest, LfSubsetValidated) {
  auto task = MakeSpousesTask(45, 0.1);
  ASSERT_TRUE(task.ok());
  PipelineOptions options = FastOptions();
  options.lf_subset = {999};
  EXPECT_FALSE(RunRelationPipeline(*task, options).ok());
}

TEST(PipelineTest, OptimizerPathRuns) {
  auto task = MakeSpousesTask(46, 0.15);
  ASSERT_TRUE(task.ok());
  PipelineOptions options = FastOptions();
  options.use_optimizer = true;
  options.optimizer.eta = 0.1;
  options.optimizer.structure.epochs = 15;
  options.optimizer.structure.sweep_epochs = 8;
  options.optimizer.structure.max_rows = 2000;
  options.run_hand_baseline = false;
  auto report = RunRelationPipeline(*task, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The decision is populated either way.
  EXPECT_GE(report->decision.predicted_advantage, 0.0);
}

TEST(PipelineTest, ClassBalanceEstimatedFromDev) {
  auto task = MakeChemTask(47, 0.15);
  ASSERT_TRUE(task.ok());
  auto report = RunRelationPipeline(*task, FastOptions());
  ASSERT_TRUE(report.ok());
  // Chem is ~4% positive; the dev estimate should reflect that.
  EXPECT_LT(report->class_balance, 0.15);
  EXPECT_GT(report->class_balance, 0.01);
}

}  // namespace
}  // namespace snorkel
