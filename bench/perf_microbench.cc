// Performance microbenchmarks (google-benchmark) for the §3.1-3.2 speed
// claims: the MV shortcut vs generative-model training (up to 1.8x per
// pipeline execution), the linear cost of correlations in the Gibbs
// sampler, structure-learning sweep cost, LF application throughput, and
// the serving column cache's unadmitted and admitted-miss paths, and the
// Dawid-Skene EM behind K-class training and the binary warm start.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/advantage.h"
#include "core/dawid_skene.h"
#include "core/generative_model.h"
#include "core/majority_vote.h"
#include "core/optimizer.h"
#include "core/structure_learner.h"
#include "lf/applier.h"
#include "serve/incremental_applier.h"
#include "synth/crossmodal.h"
#include "synth/relation_task.h"
#include "synth/synthetic_matrix.h"

namespace snorkel {
namespace {

const SyntheticDataset& SharedMatrix() {
  static const SyntheticDataset* data = [] {
    auto result = SyntheticMatrixGenerator::GenerateIid(
        /*num_points=*/5000, /*num_lfs=*/50, /*accuracy=*/0.75,
        /*propensity=*/0.2, /*seed=*/11);
    return new SyntheticDataset(std::move(result).value());
  }();
  return *data;
}

/// §3.1: the majority-vote shortcut the optimizer can select.
void BM_MajorityVote(benchmark::State& state) {
  const auto& data = SharedMatrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MajorityVotePredictions(data.matrix));
  }
}
BENCHMARK(BM_MajorityVote);

/// §3.1: the generative model training the shortcut skips.
void BM_GenerativeModelFitExact(benchmark::State& state) {
  const auto& data = SharedMatrix();
  GenerativeModelOptions options;
  options.epochs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    GenerativeModel gen(options);
    benchmark::DoNotOptimize(gen.Fit(data.matrix).ok());
  }
}
BENCHMARK(BM_GenerativeModelFitExact)->Arg(50)->Arg(150);

/// §3.2: Gibbs-sampled training cost grows with the number of modeled
/// correlations (linear overhead per correlation).
void BM_GenerativeModelFitCorrelated(benchmark::State& state) {
  const auto& data = SharedMatrix();
  std::vector<CorrelationPair> correlations;
  for (int c = 0; c < state.range(0); ++c) {
    size_t j = static_cast<size_t>(c) % 49;
    correlations.push_back({j, j + 1});
  }
  GenerativeModelOptions options;
  options.epochs = 30;
  for (auto _ : state) {
    GenerativeModel gen(options);
    benchmark::DoNotOptimize(gen.Fit(data.matrix, correlations).ok());
  }
}
BENCHMARK(BM_GenerativeModelFitCorrelated)->Arg(0)->Arg(10)->Arg(40);

/// Same correlated fit at explicit worker-pool sizes. Fitted weights are
/// bitwise-identical across these arms (fixed shard grain + per-chain RNG
/// streams); the arms measure pure scaling.
void BM_GenerativeModelFitCorrelatedThreads(benchmark::State& state) {
  const auto& data = SharedMatrix();
  std::vector<CorrelationPair> correlations;
  for (int c = 0; c < 40; ++c) {
    size_t j = static_cast<size_t>(c) % 49;
    correlations.push_back({j, j + 1});
  }
  GenerativeModelOptions options;
  options.epochs = 30;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    GenerativeModel gen(options);
    benchmark::DoNotOptimize(gen.Fit(data.matrix, correlations).ok());
  }
}
BENCHMARK(BM_GenerativeModelFitCorrelatedThreads)->Arg(1)->Arg(2)->Arg(8);

/// Posterior inference p(y | Λ) over the full matrix — the serving hot path
/// behind LabelService.
void BM_PredictProba(benchmark::State& state) {
  const auto& data = SharedMatrix();
  static const GenerativeModel* model = [] {
    GenerativeModelOptions options;
    options.epochs = 50;
    auto* gen = new GenerativeModel(options);
    if (!gen->Fit(SharedMatrix().matrix).ok()) std::abort();
    return gen;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->PredictProba(data.matrix));
  }
}
BENCHMARK(BM_PredictProba);

/// §3.2: one structure-learning pass (pseudolikelihood, exact gradients).
void BM_StructureLearning(benchmark::State& state) {
  const auto& data = SharedMatrix();
  StructureLearnerOptions options;
  options.epochs = 15;
  options.max_rows = static_cast<size_t>(state.range(0));
  StructureLearner learner(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(learner.LearnStructure(data.matrix, 0.2).ok());
  }
}
BENCHMARK(BM_StructureLearning)->Arg(1000)->Arg(4000);

/// Algorithm 1 end to end on a real, sparse label matrix: the CDR train
/// split (33 LFs, about 2 votes per row) repeats few distinct rows, which
/// the structure learner fits once each. BM_StructureLearning's dense IID
/// matrix has almost no repeats, so it cannot show that.
void BM_OptimizerChooseCdr(benchmark::State& state) {
  static const LabelMatrix* train = [] {
    auto task = MakeCdrTask(42, 0.5);
    auto matrix = LFApplier(LFApplier::Options{.num_threads = 0,
                                               .cardinality = 2})
                      .Apply(task->lfs, task->corpus, task->candidates);
    return new LabelMatrix(matrix->SelectRows(task->train_idx));
  }();
  OptimizerOptions options;
  options.eta = 0.05;
  options.structure.epochs = 25;
  options.structure.sweep_epochs = 10;
  options.structure.max_rows = 4000;
  ModelingStrategyOptimizer optimizer(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.Choose(*train).ok());
  }
}
BENCHMARK(BM_OptimizerChooseCdr);

/// The optimizer's Ã* heuristic is a single cheap pass over Λ.
void BM_PredictedAdvantage(benchmark::State& state) {
  const auto& data = SharedMatrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PredictedAdvantage(data.matrix));
  }
}
BENCHMARK(BM_PredictedAdvantage);

/// Dawid-Skene EM in its two production shapes. `crowd`: the §4.1.2 crowd
/// serving task (4096 items x 102 workers, K = 5) at a fixed 20 iterations.
/// `cdr_warm_start`: the binary CDR matrix under GenerativeModel's warm
/// start options (25 iterations, smoothing 1, default tol).
const LabelMatrix& CrowdMatrix() {
  static const LabelMatrix* matrix = [] {
    auto task = MakeCrowdServingTask(CrowdServingOptions{
        .num_items = 4096, .num_workers = 102, .cardinality = 5});
    if (!task.ok()) std::abort();
    auto result = LFApplier(LFApplier::Options{.cardinality = 5})
                      .Apply(task->lfs, task->corpus, task->candidates);
    return new LabelMatrix(std::move(result).value());
  }();
  return *matrix;
}

const LabelMatrix& CdrMatrix() {
  static const LabelMatrix* matrix = [] {
    auto task = MakeCdrTask(42, 1.0);
    if (!task.ok()) std::abort();
    auto result = LFApplier().Apply(task->lfs, task->corpus, task->candidates);
    return new LabelMatrix(std::move(result).value());
  }();
  return *matrix;
}

void BM_DawidSkeneFit(benchmark::State& state, bool crowd) {
  const LabelMatrix& matrix = crowd ? CrowdMatrix() : CdrMatrix();
  DawidSkeneOptions options;
  if (crowd) {
    options.max_iters = 20;
    options.tol = 0.0;
  } else {
    options.max_iters = 25;
    options.smoothing = 1.0;
  }
  for (auto _ : state) {
    DawidSkeneModel model(options);
    benchmark::DoNotOptimize(model.Fit(matrix).ok());
  }
}
BENCHMARK_CAPTURE(BM_DawidSkeneFit, crowd, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DawidSkeneFit, cdr_warm_start, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Appendix C: LF application is embarrassingly parallel over candidates.
void BM_LfApplication(benchmark::State& state) {
  static const RelationTask* task = [] {
    auto result = MakeCdrTask(42, 0.25);
    return new RelationTask(std::move(result).value());
  }();
  LFApplier applier(
      LFApplier::Options{static_cast<size_t>(state.range(0)), 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        applier.Apply(task->lfs, task->corpus, task->candidates).ok());
  }
}
BENCHMARK(BM_LfApplication)->Arg(1)->Arg(2);

/// The interpreted baseline for BM_LfApplication (which, like production
/// serving, dispatches compilable LFs through lf/compiled/): same task, same
/// thread counts, per-row lambda execution only. The ratio between the two
/// is the compiled engine's speedup on the trajectory.
void BM_LfApplicationInterpreted(benchmark::State& state) {
  static const RelationTask* task = [] {
    auto result = MakeCdrTask(42, 0.25);
    return new RelationTask(std::move(result).value());
  }();
  LFApplier applier(
      LFApplier::Options{.num_threads = static_cast<size_t>(state.range(0)),
                         .cardinality = 2,
                         .use_compiled = false});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        applier.Apply(task->lfs, task->corpus, task->candidates).ok());
  }
}
BENCHMARK(BM_LfApplicationInterpreted)->Arg(1)->Arg(2);

/// Serving-shaped sub-batches for the column-cache cases: 128 rows of the
/// CDR task, reporting indices that advance with `batch`, so every batch is
/// a set the cache has never seen (the fresh-stream rule).
const RelationTask& ServingTask() {
  static const RelationTask* task = [] {
    auto result = MakeCdrTask(42, 0.25);
    return new RelationTask(std::move(result).value());
  }();
  return *task;
}

std::vector<CandidateRef> FreshBatch(uint64_t batch) {
  constexpr size_t kRows = 128;
  const std::vector<Candidate>& candidates = ServingTask().candidates;
  std::vector<CandidateRef> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const size_t row = (batch * kRows + i) % candidates.size();
    rows[i] = CandidateRef{&candidates[row], batch * kRows + i};
  }
  return rows;
}

/// One-shot traffic: every Apply is a set's first sighting, served from
/// request-local columns without touching the cache.
void BM_IncrementalApplyFirstSighting(benchmark::State& state) {
  const RelationTask& task = ServingTask();
  IncrementalApplier applier(
      IncrementalApplier::Options{.num_threads = 1, .cardinality = 2});
  uint64_t batch = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::vector<CandidateRef> rows = FreshBatch(batch++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        applier.ApplyRefs(task.lfs, task.corpus, rows).ok());
  }
}
BENCHMARK(BM_IncrementalApplyFirstSighting);

/// An admitted miss against a cache filled to its byte budget: each timed
/// Apply is a set's second sighting, so it inserts the set's columns and
/// evicts the least recently used set.
void BM_IncrementalApplyAdmittedMissFullCache(benchmark::State& state) {
  const RelationTask& task = ServingTask();
  IncrementalApplier applier(IncrementalApplier::Options{
      .num_threads = 1, .cardinality = 2, .max_cached_bytes = 4u << 20});
  uint64_t batch = 0;
  while (applier.stats().evicted_sets == 0) {
    const std::vector<CandidateRef> rows = FreshBatch(batch++);
    for (int sighting = 0; sighting < 2; ++sighting) {
      if (!applier.ApplyRefs(task.lfs, task.corpus, rows).ok()) {
        state.SkipWithError("fill apply failed");
        return;
      }
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    const std::vector<CandidateRef> rows = FreshBatch(batch++);
    bool ok = applier.ApplyRefs(task.lfs, task.corpus, rows).ok();
    state.ResumeTiming();
    ok = applier.ApplyRefs(task.lfs, task.corpus, rows).ok() && ok;
    benchmark::DoNotOptimize(ok);
  }
  state.counters["cached_sets"] = static_cast<double>(applier.cached_sets());
}
BENCHMARK(BM_IncrementalApplyAdmittedMissFullCache);

}  // namespace
}  // namespace snorkel

BENCHMARK_MAIN();
