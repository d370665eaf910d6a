#ifndef SNORKEL_CORE_DAWID_SKENE_H_
#define SNORKEL_CORE_DAWID_SKENE_H_

#include <vector>

#include "core/label_matrix.h"
#include "core/types.h"
#include "util/status.h"

namespace snorkel {

/// Hyper-parameters for DawidSkeneModel.
struct DawidSkeneOptions {
  int max_iters = 200;
  /// EM stops when the largest posterior change falls below this.
  double tol = 1e-8;
  /// Additive (Dirichlet) smoothing for confusion rows and class priors.
  double smoothing = 0.1;
  /// When false, class priors stay uniform.
  bool estimate_class_balance = true;
  /// Worker threads for the sharded EM row loops: 0 uses the process-wide
  /// SharedThreadPool. The M-step's shard grain is fixed (it sets the
  /// summation order); the E-step's is free, because its kernel is
  /// row-pure. So the fitted model is identical for any value.
  int num_threads = 0;
};

/// The classic Dawid-Skene latent-class model [13], fit with EM. Snorkel's
/// related-work section positions it as the crowdsourcing comparator, and
/// the Crowd task (§4.1.2) — one labeling function per crowd worker, five
/// sentiment classes — is exactly its use case. Supports any cardinality;
/// binary ±1 matrices are mapped internally to class indices.
///
/// Each labeling function j gets a full K x K confusion matrix
/// ρ_j[c][c'] = P(Λ_j = c' | Y = c, Λ_j != ∅); abstentions are missing data
/// (ignored by the likelihood), matching the constant-probability-sampling
/// reading of Theorem 1.
class DawidSkeneModel {
 public:
  explicit DawidSkeneModel(DawidSkeneOptions options = {});

  /// Fits confusion matrices and class priors with EM; initialization is the
  /// plurality-vote posterior. Each E-step is PredictProbaFlat's kernel over
  /// that iteration's log-tables, so training and serving share one E-step.
  Status Fit(const LabelMatrix& matrix);

  /// Restores a fitted model from serialized parameters (the snapshot-store
  /// hook, serve/snapshot.h). `flat_confusions` is row-major [j][c][c']
  /// (j < num_lfs, c = true class, c' = emitted class), the layout
  /// FlatConfusions() produces. Validates shapes and strict positivity
  /// (every probability is log'd), then marks the model fit; posteriors
  /// computed after a restore are bitwise-identical to the model that
  /// produced the parameters.
  Status Restore(int cardinality, size_t num_lfs,
                 std::vector<double> class_priors,
                 const std::vector<double>& flat_confusions);

  bool is_fit() const { return is_fit_; }
  int cardinality() const { return cardinality_; }
  /// Number of labeling functions the model was fit (or restored) over.
  size_t num_lfs() const { return num_lfs_; }
  /// Number of EM iterations actually run.
  int iterations() const { return iterations_; }

  /// Posterior P(Y = c | Λ_i) for each row; columns ordered by class index
  /// (see ClassToLabel for the mapping back to labels).
  std::vector<std::vector<double>> PredictProba(const LabelMatrix& matrix) const;

  /// PredictProba in the serving layout: one flat row-major buffer of
  /// num_rows × cardinality posteriors, computed with the batched
  /// KClassPosteriorRows kernel over precomputed log-tables and sharded
  /// over the worker pool. Bitwise-identical to PredictProba row for row,
  /// for any num_threads (fixed-grain shards, row-pure kernel).
  std::vector<double> PredictProbaFlat(const LabelMatrix& matrix) const;

  /// Confusion matrices flattened row-major to [j][c][c'] — the
  /// serialization layout Restore() accepts.
  std::vector<double> FlatConfusions() const;

  /// Hard MAP labels (in the matrix's label convention): the argmax of
  /// PredictProbaFlat, ties to the lowest class index.
  std::vector<Label> PredictLabels(const LabelMatrix& matrix) const;

  /// Confusion matrix of LF j, rows = true class, cols = emitted class.
  const std::vector<std::vector<double>>& Confusion(size_t j) const {
    return confusions_[j];
  }

  /// Prior-weighted diagonal mass of LF j's confusion matrix: the
  /// probability a non-abstaining vote is correct.
  double WorkerAccuracy(size_t j) const;

  const std::vector<double>& class_priors() const { return class_priors_; }

  /// Maps a class index (0-based) back to a Label in the convention of the
  /// fitted matrix: binary {+1, -1}, multi-class {1..K}.
  Label ClassToLabel(size_t c) const;

  /// Maps a label to its class index.
  size_t LabelToClass(Label y) const;

 private:
  /// Precomputes the log-space tables PredictProbaFlat streams over:
  /// log_priors_ and the confusion log-table transposed to
  /// [j][emitted][class] so the E-step kernel adds contiguous k-vectors.
  /// Called after every M-step of Fit() and by Restore().
  void BuildLogTables();

  DawidSkeneOptions options_;
  bool is_fit_ = false;
  int cardinality_ = 0;
  int iterations_ = 0;
  size_t num_lfs_ = 0;
  std::vector<double> class_priors_;
  // confusions_[j][c][c'].
  std::vector<std::vector<std::vector<double>>> confusions_;
  // Serving tables (see BuildLogTables).
  std::vector<double> log_priors_;
  std::vector<double> log_conf_emit_;
};

}  // namespace snorkel

#endif  // SNORKEL_CORE_DAWID_SKENE_H_
