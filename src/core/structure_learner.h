#ifndef SNORKEL_CORE_STRUCTURE_LEARNER_H_
#define SNORKEL_CORE_STRUCTURE_LEARNER_H_

#include <vector>

#include "core/label_matrix.h"
#include "core/types.h"
#include "util/status.h"

namespace snorkel {

/// Hyper-parameters for StructureLearner.
struct StructureLearnerOptions {
  /// The selection threshold ε (§3.2): both the ℓ1 regularization
  /// coefficient and the minimum absolute correlation weight a dependency
  /// must reach to be selected.
  double epsilon = 0.1;
  /// Full-batch proximal-gradient epochs per labeling function.
  int epochs = 40;
  /// Epochs per ε step during a warm-started Sweep().
  int sweep_epochs = 15;
  /// Proximal-gradient step size.
  double learning_rate = 0.5;
  /// Mean accuracy weight w̄ for the pilot posterior over the latent label
  /// (same default as the optimizer's footnote-8 prior).
  double mean_acc_weight = 1.0;
  /// Structure learning subsamples rows beyond this cap; the estimator is a
  /// per-LF regression, so a few thousand rows suffice (the paper reports
  /// 15 s for 100 LFs x 10k points vs 45 min for full MLE).
  size_t max_rows = 8000;
  /// Worker threads for the per-LF conditional fits, which are independent
  /// regressions and run as one pool task per LF: 0 uses the process-wide
  /// SharedThreadPool. Each LF's conditional touches only its own
  /// optimization state, so results are identical for any value.
  int num_threads = 0;
  uint64_t seed = 42;
};

/// One point of an ε sweep: the threshold and how many correlations it
/// selects (the dashed lines of Figure 5).
struct StructureSweepPoint {
  double epsilon = 0.0;
  size_t num_correlations = 0;
};

/// Learns which labeling-function pairs to model as correlated, from the
/// label matrix alone (no ground truth), following the pseudolikelihood
/// approach of Bach et al. [5] as used in paper §3.2.
///
/// For each LF j we model the conditional p(Λ_j | Λ_{\j}) with the latent
/// label marginalized exactly:
///   p(λ | Λ_{\j}) = Σ_y π(y | Λ_{\j}) q_j(λ | y, Λ_{\j}),
///   q_j(λ | y, ·) ∝ exp(θ_lab 1{λ≠∅} + θ_acc 1{λ=y} + Σ_{k≠j} θ_k 1{λ=Λ_k}),
/// where π is a pilot posterior using mean accuracy weight w̄. The ℓ1
/// penalty ε on the θ_k is applied with proximal (ISTA) updates; gradients
/// are exact (no sampling). A pair (j,k) is selected when either direction's
/// learned weight reaches ε in absolute value.
///
/// The gradients run over the distinct rows ("label patterns") of the
/// subsampled matrix rather than over every row: rows are deduplicated by
/// hash in first-occurrence order, and each pattern's gradient term is
/// weighted by its count / m (m the subsample size). Sparse LF sets repeat
/// few patterns — the CDR train split's 4000-row subsample holds about 500 —
/// and a matrix whose rows all repeat k times fits exactly like the matrix
/// itself. The θ-independent parts of each row (LF j's own vote and the pilot
/// posterior π) are computed once per LF, not once per epoch.
class StructureLearner {
 public:
  explicit StructureLearner(StructureLearnerOptions options = {});

  /// Learns the correlation set C at options().epsilon.
  Result<std::vector<CorrelationPair>> LearnStructure(
      const LabelMatrix& matrix) const;

  /// Learns the correlation set C at the given ε (positive and finite), cold:
  /// options().epochs from the initial weights.
  Result<std::vector<CorrelationPair>> LearnStructure(const LabelMatrix& matrix,
                                                      double epsilon) const;

  /// Runs the ε search over `epsilons` (any order; processed from largest to
  /// smallest with warm starts, which matches the paper's early-termination
  /// trick) and returns one sweep point per ε, ordered by descending ε.
  ///
  /// The schedule is one pool task per LF: task j walks the whole ε path on
  /// LF j's conditional (options().epochs at the largest ε, sweep_epochs at
  /// each next one, warm-started) and records its row of pair weights per ε.
  /// The per-ε correlation counts are read from those records afterwards, so
  /// the sweep waits on the pool once rather than once per ε. Every ε must be
  /// positive and finite.
  Result<std::vector<StructureSweepPoint>> Sweep(
      const LabelMatrix& matrix, const std::vector<double>& epsilons) const;

  /// Picks the elbow index of a sweep ordered by descending ε: the point of
  /// greatest absolute difference from its neighbors (discrete curvature of
  /// the correlation-count curve), per §3.2.2. Returns 0 for sweeps with
  /// fewer than three points.
  static size_t SelectElbowIndex(const std::vector<StructureSweepPoint>& sweep);

  const StructureLearnerOptions& options() const { return options_; }

 private:
  StructureLearnerOptions options_;
};

}  // namespace snorkel

#endif  // SNORKEL_CORE_STRUCTURE_LEARNER_H_
