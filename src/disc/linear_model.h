#ifndef SNORKEL_DISC_LINEAR_MODEL_H_
#define SNORKEL_DISC_LINEAR_MODEL_H_

#include <vector>

#include "core/types.h"
#include "disc/features.h"
#include "util/status.h"

namespace snorkel {

/// Shared hyper-parameters for the discriminative models. Follows the
/// paper's end-model training setup (§4.1 "Discriminative Models") —
/// minibatches and a small labeled dev set for model selection — except for
/// the optimizer: Fit takes per-coordinate AdaGrad steps where the paper
/// uses Adam, so an update touches only the active hashed features.
struct DiscModelOptions {
  int epochs = 20;
  double learning_rate = 0.05;
  double l2 = 1e-5;
  size_t batch_size = 64;
  uint64_t seed = 42;
};

/// Binary logistic regression over hashed sparse features, trained with the
/// noise-aware loss of §2.3:
///
///   θ̂ = argmin_θ (1/m) Σ_i E_{y~Ỹ_i}[ l(h_θ(x_i), y) ]
///
/// which for the logistic loss is cross-entropy against the *probabilistic*
/// label ỹ_i ∈ [0,1] rather than a hard 0/1 target. Training on hard labels
/// is the special case ỹ ∈ {0,1}.
class LogisticRegressionClassifier {
 public:
  explicit LogisticRegressionClassifier(DiscModelOptions options = {});

  /// Fits on features and probabilistic targets ỹ_i = P(y_i = +1). When
  /// `dev_features`/`dev_labels` are non-null, the epoch with the best dev
  /// F1 is kept (simple model selection on the small labeled dev set).
  Status Fit(const std::vector<FeatureVector>& features, size_t num_buckets,
             const std::vector<double>& soft_labels,
             const std::vector<FeatureVector>* dev_features = nullptr,
             const std::vector<Label>* dev_labels = nullptr);

  /// Convenience: trains on hard ±1 labels (hand-supervision baseline).
  Status FitHard(const std::vector<FeatureVector>& features,
                 size_t num_buckets, const std::vector<Label>& labels,
                 const std::vector<FeatureVector>* dev_features = nullptr,
                 const std::vector<Label>* dev_labels = nullptr);

  bool is_fit() const { return is_fit_; }

  /// P(y = +1 | x) for each feature vector.
  std::vector<double> PredictProba(
      const std::vector<FeatureVector>& features) const;

  /// Hard ±1 predictions at threshold 0.5.
  std::vector<Label> PredictLabels(
      const std::vector<FeatureVector>& features) const;

  double Score(const FeatureVector& features) const;

  /// Learned per-bucket weights (size = num_buckets after Fit/Restore).
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// Restores a fitted classifier from serialized weights (the snapshot
  /// hook, serve/snapshot.h). `weights.size()` must equal the feature
  /// hasher's bucket count used at training time.
  Status Restore(std::vector<double> weights, double bias);

 private:
  DiscModelOptions options_;
  bool is_fit_ = false;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// Multinomial (softmax) regression trained against full posterior vectors,
/// the multi-class noise-aware loss used for the 5-class Crowd task: the
/// target for row i is the label-model posterior q_i over classes, and the
/// loss is cross-entropy -Σ_c q_ic log p_ic.
class SoftmaxRegressionClassifier {
 public:
  explicit SoftmaxRegressionClassifier(DiscModelOptions options = {});

  /// `soft_labels[i]` is a distribution over `cardinality` classes.
  Status Fit(const std::vector<FeatureVector>& features, size_t num_buckets,
             const std::vector<std::vector<double>>& soft_labels,
             int cardinality);

  /// Convenience: hard labels in {1..K} become one-hot targets.
  Status FitHard(const std::vector<FeatureVector>& features,
                 size_t num_buckets, const std::vector<Label>& labels,
                 int cardinality);

  bool is_fit() const { return is_fit_; }
  int cardinality() const { return cardinality_; }

  /// Class posteriors, ordered class 1..K.
  std::vector<std::vector<double>> PredictProba(
      const std::vector<FeatureVector>& features) const;

  /// MAP labels in {1..K}.
  std::vector<Label> PredictLabels(
      const std::vector<FeatureVector>& features) const;

 private:
  DiscModelOptions options_;
  bool is_fit_ = false;
  int cardinality_ = 0;
  size_t num_buckets_ = 0;
  // weights_[c * num_buckets_ + f]; biases_[c].
  std::vector<double> weights_;
  std::vector<double> biases_;
};

}  // namespace snorkel

#endif  // SNORKEL_DISC_LINEAR_MODEL_H_
