#include "core/optimizer.h"

#include <algorithm>
#include <cmath>

namespace snorkel {

std::string ModelingStrategyToString(ModelingStrategy strategy) {
  switch (strategy) {
    case ModelingStrategy::kMajorityVote:
      return "MV";
    case ModelingStrategy::kGenerativeModel:
      return "GM";
  }
  return "?";
}

ModelingStrategyOptimizer::ModelingStrategyOptimizer(OptimizerOptions options)
    : options_(options) {}

Result<OptimizerDecision> ModelingStrategyOptimizer::Choose(
    const LabelMatrix& matrix) const {
  if (matrix.cardinality() != 2) {
    return Status::InvalidArgument("optimizer supports binary matrices");
  }
  // Written so that NaN fails every comparison and is rejected.
  if (!(std::isfinite(options_.gamma) && options_.gamma >= 0.0) ||
      !(options_.eta > 0.0 && options_.eta <= 0.5)) {
    return Status::InvalidArgument(
        "gamma must be finite and >= 0, and eta in (0, 0.5]");
  }

  OptimizerDecision decision;
  decision.predicted_advantage = PredictedAdvantage(matrix, options_.advantage);
  if (decision.predicted_advantage < options_.gamma) {
    decision.strategy = ModelingStrategy::kMajorityVote;
    return decision;
  }

  decision.strategy = ModelingStrategy::kGenerativeModel;
  if (!options_.search_structure || matrix.num_lfs() < 2) {
    return decision;
  }

  // ε grid {η, 2η, ..., 1/2}, per Algorithm 1's loop i = 1 .. 1/(2η).
  std::vector<double> epsilons;
  int steps = static_cast<int>(0.5 / options_.eta);
  for (int i = 1; i <= steps; ++i) {
    epsilons.push_back(static_cast<double>(i) * options_.eta);
  }
  if (epsilons.empty()) epsilons.push_back(options_.eta);

  StructureLearner learner(options_.structure);
  auto sweep = learner.Sweep(matrix, epsilons);
  if (!sweep.ok()) return sweep.status();
  decision.sweep = std::move(sweep).value();

  size_t elbow = StructureLearner::SelectElbowIndex(decision.sweep);
  decision.chosen_epsilon = decision.sweep[elbow].epsilon;
  auto correlations = learner.LearnStructure(matrix, decision.chosen_epsilon);
  if (!correlations.ok()) return correlations.status();
  decision.correlations = std::move(correlations).value();
  return decision;
}

}  // namespace snorkel
