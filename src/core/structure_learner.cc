#include "core/structure_learner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/hash.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace snorkel {

namespace {

/// The subsampled label matrix compressed to its distinct rows. A pattern is
/// a CSR span into the (caller-owned) matrix — no copying — kept in
/// first-occurrence order with weight count / m, m the subsample size, so each
/// gradient term is its per-row term times the pattern's multiplicity with the
/// 1/m normalization folded in. Sparse matrices repeat few patterns: the CDR
/// train split's 4000-row subsample holds about 500.
struct Workset {
  std::vector<LabelMatrix::RowSpan> patterns;
  std::vector<double> weights;
};

uint64_t HashRow(LabelMatrix::RowSpan row) {
  uint64_t h = row.size();
  for (const auto& e : row) {
    h = HashCombine(h, (uint64_t{e.lf} << 32) | static_cast<uint32_t>(e.label));
  }
  // HashCombine leaves the low bits, which pick the slot, poorly mixed.
  return SplitMix64(h).Next();
}

Workset BuildWorkset(const LabelMatrix& matrix, size_t max_rows,
                     uint64_t seed) {
  size_t m = matrix.num_rows();
  std::vector<size_t> indices;
  if (m > max_rows) {
    Rng rng(seed);
    indices = rng.SampleWithoutReplacement(m, max_rows);
  } else {
    indices.resize(m);
    for (size_t i = 0; i < m; ++i) indices[i] = i;
  }

  // Open-addressing dedup table of pattern ids, at most half full.
  constexpr uint32_t kEmpty = UINT32_MAX;
  size_t capacity = 2;
  while (capacity < 2 * indices.size()) capacity <<= 1;
  std::vector<uint32_t> slots(capacity, kEmpty);
  std::vector<uint64_t> hashes;  // per pattern
  std::vector<size_t> counts;    // per pattern
  Workset ws;
  hashes.reserve(indices.size());
  counts.reserve(indices.size());
  ws.patterns.reserve(indices.size());
  for (size_t i : indices) {
    LabelMatrix::RowSpan row = matrix.row(i);
    const uint64_t h = HashRow(row);
    size_t slot = h & (capacity - 1);
    for (; slots[slot] != kEmpty; slot = (slot + 1) & (capacity - 1)) {
      const LabelMatrix::RowSpan& seen = ws.patterns[slots[slot]];
      if (hashes[slots[slot]] == h &&
          std::equal(row.begin(), row.end(), seen.begin(), seen.end())) {
        break;
      }
    }
    if (slots[slot] == kEmpty) {
      slots[slot] = static_cast<uint32_t>(ws.patterns.size());
      ws.patterns.push_back(row);
      hashes.push_back(h);
      counts.push_back(0);
    }
    ++counts[slots[slot]];
  }

  const double total = static_cast<double>(indices.size());
  ws.weights.reserve(counts.size());
  for (size_t count : counts) {
    ws.weights.push_back(static_cast<double>(count) / total);
  }
  return ws;
}

/// What LF j's conditional needs of each pattern that does not depend on θ:
/// the slot of LF j's own vote (0 = abstain, 1 = +1, 2 = -1) and the pilot
/// posterior π(y = +1 | Λ_{\j}), which excludes that vote.
struct LfView {
  std::vector<int> obs_idx;
  std::vector<double> pi_pos;
};

LfView ViewForLf(const Workset& ws, size_t j, double mean_acc_weight) {
  LfView view;
  view.obs_idx.reserve(ws.patterns.size());
  view.pi_pos.reserve(ws.patterns.size());
  for (const auto& row : ws.patterns) {
    Label obs = kAbstain;
    int cp = 0;
    int cn = 0;
    for (const auto& e : row) {
      if (e.lf == j) {
        obs = e.label;
      } else if (e.label > 0) {
        ++cp;
      } else {
        ++cn;
      }
    }
    view.obs_idx.push_back(obs == kAbstain ? 0 : (obs > 0 ? 1 : 2));
    view.pi_pos.push_back(
        Sigmoid(mean_acc_weight * static_cast<double>(cp - cn)));
  }
  return view;
}

/// Optimization state of one LF's conditional; kept across ε values during a
/// warm-started sweep.
struct Conditional {
  // theta[k]: weight coupling Λ_j to Λ_k (theta[j] stays 0).
  std::vector<double> theta;
  double acc = 1.0;
  double lab = 0.0;

  explicit Conditional(size_t n) : theta(n, 0.0) {}
};

/// Runs `epochs` proximal-gradient epochs on LF j's conditional
/// p(Λ_j | Λ_{\j}) with ℓ1 penalty `epsilon` on the pair weights.
void FitConditional(const Workset& ws, const LfView& view, size_t j,
                    double epsilon, int epochs, double lr, Conditional* cond) {
  std::vector<double>& theta = cond->theta;
  const size_t n = theta.size();
  std::vector<double> grad(n, 0.0);

  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_base = 0.0;  // Contribution shared by every abstaining k.
    double grad_acc = 0.0;
    double grad_lab = 0.0;
    double theta_total = 0.0;
    for (size_t k = 0; k < n; ++k) {
      if (k != j) theta_total += theta[k];
    }

    for (size_t p = 0; p < ws.patterns.size(); ++p) {
      const auto& row = ws.patterns[p];
      double t_pos = 0.0;
      double t_neg = 0.0;
      double sum_entries = 0.0;
      for (const auto& e : row) {
        if (e.lf == j) continue;
        sum_entries += theta[e.lf];
        if (e.label > 0) {
          t_pos += theta[e.lf];
        } else {
          t_neg += theta[e.lf];
        }
      }
      double t_abstain = theta_total - sum_entries;
      const int obs_idx = view.obs_idx[p];
      const double pi_pos = view.pi_pos[p];

      // q(λ | y) for y in {+1, -1}, λ ordered [abstain, +1, -1].
      double q[2][3];
      double r[2];
      for (int yi = 0; yi < 2; ++yi) {
        double acc_pos = yi == 0 ? cond->acc : 0.0;
        double acc_neg = yi == 0 ? 0.0 : cond->acc;
        double s0 = t_abstain;
        double sp = cond->lab + acc_pos + t_pos;
        double sn = cond->lab + acc_neg + t_neg;
        double hi = std::max({s0, sp, sn});
        double e0 = std::exp(s0 - hi);
        double ep = std::exp(sp - hi);
        double en = std::exp(sn - hi);
        double z = e0 + ep + en;
        q[yi][0] = e0 / z;
        q[yi][1] = ep / z;
        q[yi][2] = en / z;
        r[yi] = (yi == 0 ? pi_pos : 1.0 - pi_pos) * q[yi][obs_idx];
      }
      double rz = r[0] + r[1];
      if (rz <= 0.0) continue;
      // Normalize the posterior and weight the pattern in one scale.
      double scale = ws.weights[p] / rz;
      r[0] *= scale;
      r[1] *= scale;

      // G_{λ'} = Σ_y r(y) [1{obs = λ'} - q(λ' | y)] for λ' in the 3 slots.
      double g[3];
      for (int s = 0; s < 3; ++s) {
        g[s] = r[0] * ((obs_idx == s ? 1.0 : 0.0) - q[0][s]) +
               r[1] * ((obs_idx == s ? 1.0 : 0.0) - q[1][s]);
      }
      grad_base += g[0];
      for (const auto& e : row) {
        if (e.lf == j) continue;
        int s = e.label > 0 ? 1 : 2;
        grad[e.lf] += g[s] - g[0];
      }
      // Accuracy factor fires when λ = y; the propensity factor when λ != ∅.
      grad_acc += r[0] * ((obs_idx == 1 ? 1.0 : 0.0) - q[0][1]) +
                  r[1] * ((obs_idx == 2 ? 1.0 : 0.0) - q[1][2]);
      grad_lab += r[0] * ((obs_idx != 0 ? 1.0 : 0.0) - (1.0 - q[0][0])) +
                  r[1] * ((obs_idx != 0 ? 1.0 : 0.0) - (1.0 - q[1][0]));
    }

    for (size_t k = 0; k < n; ++k) {
      if (k == j) continue;
      double step = lr * (grad[k] + grad_base);
      theta[k] = SoftThreshold(theta[k] + step, lr * epsilon);
      theta[k] = Clip(theta[k], -4.0, 4.0);
    }
    cond->acc = Clip(cond->acc + lr * grad_acc, -4.0, 4.0);
    cond->lab = Clip(cond->lab + lr * grad_lab, -6.0, 6.0);
  }
}

/// Fits all n per-LF conditionals along `epsilons` (descending), warm-starting
/// each ε from the one before: `first_epochs` at the first ε, sweep_epochs at
/// the rest. Returns one row-major n×n pair-weight matrix per ε. Each LF is
/// one pool task that walks the whole ε path; it reads the shared workset and
/// writes only its own Conditional and its own row of each record, so the
/// schedule cannot affect the result — the paper's "n independent
/// pseudolikelihood problems" structure made literal.
std::vector<std::vector<double>> FitPath(const Workset& ws, size_t n,
                                         const std::vector<double>& epsilons,
                                         int first_epochs,
                                         const StructureLearnerOptions& opts) {
  std::vector<std::vector<double>> records(epsilons.size(),
                                           std::vector<double>(n * n, 0.0));
  ScopedPool pool(opts.num_threads);
  pool->ParallelFor(0, n, [&](size_t j) {
    const LfView view = ViewForLf(ws, j, opts.mean_acc_weight);
    Conditional cond(n);
    for (size_t e = 0; e < epsilons.size(); ++e) {
      FitConditional(ws, view, j, epsilons[e],
                     e == 0 ? first_epochs : opts.sweep_epochs,
                     opts.learning_rate, &cond);
      std::copy(cond.theta.begin(), cond.theta.end(),
                records[e].begin() + static_cast<std::ptrdiff_t>(j * n));
    }
  });
  return records;
}

std::vector<CorrelationPair> SelectPairs(const std::vector<double>& weights,
                                         size_t n, double epsilon) {
  std::vector<CorrelationPair> selected;
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = j + 1; k < n; ++k) {
      if (std::fabs(weights[j * n + k]) >= epsilon ||
          std::fabs(weights[k * n + j]) >= epsilon) {
        selected.push_back(CorrelationPair{j, k});
      }
    }
  }
  return selected;
}

bool ValidEpsilon(double epsilon) {
  return std::isfinite(epsilon) && epsilon > 0.0;
}

}  // namespace

StructureLearner::StructureLearner(StructureLearnerOptions options)
    : options_(options) {}

Result<std::vector<CorrelationPair>> StructureLearner::LearnStructure(
    const LabelMatrix& matrix) const {
  return LearnStructure(matrix, options_.epsilon);
}

Result<std::vector<CorrelationPair>> StructureLearner::LearnStructure(
    const LabelMatrix& matrix, double epsilon) const {
  if (matrix.cardinality() != 2) {
    return Status::InvalidArgument(
        "structure learning supports binary matrices");
  }
  if (!ValidEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  size_t n = matrix.num_lfs();
  if (n < 2) return std::vector<CorrelationPair>{};

  Workset ws = BuildWorkset(matrix, options_.max_rows, options_.seed);
  auto records = FitPath(ws, n, {epsilon}, options_.epochs, options_);
  return SelectPairs(records[0], n, epsilon);
}

Result<std::vector<StructureSweepPoint>> StructureLearner::Sweep(
    const LabelMatrix& matrix, const std::vector<double>& epsilons) const {
  if (matrix.cardinality() != 2) {
    return Status::InvalidArgument(
        "structure learning supports binary matrices");
  }
  for (double eps : epsilons) {
    if (!ValidEpsilon(eps)) {
      return Status::InvalidArgument(
          "epsilon values must be positive and finite");
    }
  }
  size_t n = matrix.num_lfs();
  std::vector<double> sorted = epsilons;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::vector<StructureSweepPoint> sweep;
  if (n < 2) {
    for (double eps : sorted) sweep.push_back({eps, 0});
    return sweep;
  }

  Workset ws = BuildWorkset(matrix, options_.max_rows, options_.seed);
  auto records = FitPath(ws, n, sorted, options_.epochs, options_);
  for (size_t e = 0; e < sorted.size(); ++e) {
    sweep.push_back({sorted[e], SelectPairs(records[e], n, sorted[e]).size()});
  }
  return sweep;
}

size_t StructureLearner::SelectElbowIndex(
    const std::vector<StructureSweepPoint>& sweep) {
  if (sweep.size() < 3) return 0;
  // Curvature of log(1 + count): the count curve "explodes" past the elbow
  // (§3.2.2), and log scale puts the maximum-curvature point at the knee
  // just before the explosion rather than inside it.
  size_t best = 1;
  double best_curvature = -1.0;
  for (size_t i = 1; i + 1 < sweep.size(); ++i) {
    double prev = std::log1p(static_cast<double>(sweep[i - 1].num_correlations));
    double cur = std::log1p(static_cast<double>(sweep[i].num_correlations));
    double next = std::log1p(static_cast<double>(sweep[i + 1].num_correlations));
    double curvature = std::fabs(next - 2.0 * cur + prev);
    if (curvature > best_curvature) {
      best_curvature = curvature;
      best = i;
    }
  }
  return best;
}

}  // namespace snorkel
