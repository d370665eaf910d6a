#include "core/dawid_skene.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/csr_kernels.h"
#include "util/thread_pool.h"

namespace snorkel {

namespace {

/// Rows per M-step and serving shard; a constant (never the pool size), so
/// per-shard partials reduced in shard order make Fit deterministic for any
/// thread count. Changing it changes the M-step's summation order.
constexpr size_t kRowGrain = 2048;

/// Rows per E-step shard during Fit. The posterior kernel is row-pure and
/// the convergence max is exact, so this grain is free to change: it is
/// small enough that a few thousand rows still use every core.
constexpr size_t kEStepGrain = 512;

/// Cap on M-step shards: each one carries an O(n·k²) sufficient-statistics
/// buffer, so the shard count must not scale with num_rows. The grain is
/// still a pure function of m, preserving thread-count determinism.
constexpr size_t kMaxMStepShards = 64;

}  // namespace

DawidSkeneModel::DawidSkeneModel(DawidSkeneOptions options)
    : options_(options) {}

Label DawidSkeneModel::ClassToLabel(size_t c) const {
  if (cardinality_ == 2) return c == 0 ? 1 : -1;
  return static_cast<Label>(c) + 1;
}

size_t DawidSkeneModel::LabelToClass(Label y) const {
  if (cardinality_ == 2) return y > 0 ? 0 : 1;
  assert(y >= 1 && y <= cardinality_);
  return static_cast<size_t>(y) - 1;
}

Status DawidSkeneModel::Fit(const LabelMatrix& matrix) {
  if (matrix.num_rows() == 0 || matrix.num_lfs() == 0) {
    return Status::InvalidArgument("empty label matrix");
  }
  cardinality_ = matrix.cardinality();
  num_lfs_ = matrix.num_lfs();
  size_t k = static_cast<size_t>(cardinality_);
  size_t m = matrix.num_rows();
  size_t n = num_lfs_;
  double s = options_.smoothing;
  const KClassCsrView view = KClassCsrView::FromMatrix(matrix);

  // Flat m x k posteriors, initialized from the (smoothed) plurality vote.
  std::vector<double> posterior(m * k, s + 1e-3);
  std::vector<double> next(m * k);
  for (size_t i = 0; i < m; ++i) {
    double* row = posterior.data() + i * k;
    for (size_t t = view.offsets[i]; t < view.offsets[i + 1]; ++t) {
      row[view.emitted[t]] += 1.0;
    }
    double z = 0.0;
    for (size_t c = 0; c < k; ++c) z += row[c];
    for (size_t c = 0; c < k; ++c) row[c] /= z;
  }

  class_priors_.assign(k, 1.0 / static_cast<double>(k));
  confusions_.assign(n, std::vector<std::vector<double>>(
                            k, std::vector<double>(k, 1.0 / k)));

  // EM row loops shard over the worker pool with fixed-grain shards and
  // shard-ordered reduction (the generative model's warm start runs through
  // here, so the same determinism guarantee applies).
  ScopedPool pool(options_.num_threads);
  size_t m_grain =
      std::max(kRowGrain, (m + kMaxMStepShards - 1) / kMaxMStepShards);
  size_t num_m_shards = (m + m_grain - 1) / m_grain;
  size_t num_e_shards = (m + kEStepGrain - 1) / kEStepGrain;
  std::vector<double> shard_conf(num_m_shards * n * k * k);
  std::vector<double> shard_prior(num_m_shards * k);
  std::vector<double> shard_max(num_e_shards);

  iterations_ = 0;
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    ++iterations_;
    // ---- M-step: per-shard sufficient statistics, reduced in shard order.
    std::fill(shard_conf.begin(), shard_conf.end(), 0.0);
    std::fill(shard_prior.begin(), shard_prior.end(), 0.0);
    pool->ParallelForShards(
        0, m, m_grain, [&](size_t shard, size_t lo, size_t hi) {
          double* prior_acc = shard_prior.data() + shard * k;
          double* conf_acc = shard_conf.data() + shard * n * k * k;
          for (size_t i = lo; i < hi; ++i) {
            const double* row = posterior.data() + i * k;
            for (size_t c = 0; c < k; ++c) prior_acc[c] += row[c];
            for (size_t t = view.offsets[i]; t < view.offsets[i + 1]; ++t) {
              double* acc = conf_acc + view.lf[t] * k * k + view.emitted[t];
              for (size_t c = 0; c < k; ++c) acc[c * k] += row[c];
            }
          }
        });
    if (options_.estimate_class_balance) {
      std::vector<double> prior(k, s);
      for (size_t shard = 0; shard < num_m_shards; ++shard) {
        for (size_t c = 0; c < k; ++c) prior[c] += shard_prior[shard * k + c];
      }
      double z = 0.0;
      for (double p : prior) z += p;
      for (size_t c = 0; c < k; ++c) class_priors_[c] = prior[c] / z;
    }
    for (size_t j = 0; j < n; ++j) {
      for (auto& row : confusions_[j]) std::fill(row.begin(), row.end(), s);
    }
    for (size_t shard = 0; shard < num_m_shards; ++shard) {
      const double* conf_acc = shard_conf.data() + shard * n * k * k;
      for (size_t j = 0; j < n; ++j) {
        for (size_t c = 0; c < k; ++c) {
          for (size_t e = 0; e < k; ++e) {
            confusions_[j][c][e] += conf_acc[(j * k + c) * k + e];
          }
        }
      }
    }
    for (size_t j = 0; j < n; ++j) {
      for (size_t c = 0; c < k; ++c) {
        double z = 0.0;
        for (double v : confusions_[j][c]) z += v;
        for (double& v : confusions_[j][c]) v /= z;
      }
    }
    BuildLogTables();

    // ---- E-step: the serving kernel over this iteration's log-tables; the
    // convergence statistic is a max, reduced over shards. ----
    pool->ParallelForShards(
        0, m, kEStepGrain, [&](size_t shard, size_t lo, size_t hi) {
          KClassPosteriorRows(view, log_priors_.data(), log_conf_emit_.data(),
                              lo, hi, next.data());
          double shard_change = 0.0;
          for (size_t x = lo * k; x < hi * k; ++x) {
            shard_change =
                std::max(shard_change, std::fabs(next[x] - posterior[x]));
          }
          shard_max[shard] = shard_change;
        });
    posterior.swap(next);
    double max_change = 0.0;
    for (double v : shard_max) max_change = std::max(max_change, v);
    if (max_change < options_.tol) break;
  }

  if (iterations_ == 0) BuildLogTables();  // max_iters <= 0: uniform model.
  is_fit_ = true;
  return Status::OK();
}

void DawidSkeneModel::BuildLogTables() {
  size_t k = static_cast<size_t>(cardinality_);
  log_priors_.resize(k);
  for (size_t c = 0; c < k; ++c) log_priors_[c] = std::log(class_priors_[c]);
  // Transposed to [j][emitted][class]: the E-step kernel looks an entry's
  // (lf, emitted) pair up once and adds one contiguous k-vector.
  log_conf_emit_.resize(num_lfs_ * k * k);
  for (size_t j = 0; j < num_lfs_; ++j) {
    for (size_t c = 0; c < k; ++c) {
      for (size_t e = 0; e < k; ++e) {
        log_conf_emit_[(j * k + e) * k + c] = std::log(confusions_[j][c][e]);
      }
    }
  }
}

Status DawidSkeneModel::Restore(int cardinality, size_t num_lfs,
                                std::vector<double> class_priors,
                                const std::vector<double>& flat_confusions) {
  if (cardinality < 2) {
    return Status::InvalidArgument("cardinality must be >= 2");
  }
  if (num_lfs == 0) {
    return Status::InvalidArgument("restore needs at least one LF column");
  }
  size_t k = static_cast<size_t>(cardinality);
  if (class_priors.size() != k) {
    return Status::InvalidArgument(
        "class_priors has " + std::to_string(class_priors.size()) +
        " entries; cardinality is " + std::to_string(cardinality));
  }
  if (flat_confusions.size() != num_lfs * k * k) {
    return Status::InvalidArgument(
        "flat_confusions has " + std::to_string(flat_confusions.size()) +
        " entries; expected num_lfs * k^2 = " +
        std::to_string(num_lfs * k * k));
  }
  // Every parameter is log'd by the E-step, so zeros/negatives/NaNs would
  // poison posteriors silently — reject them here instead.
  for (double p : class_priors) {
    if (!(p > 0.0) || !std::isfinite(p)) {
      return Status::InvalidArgument("class priors must be finite and > 0");
    }
  }
  for (double p : flat_confusions) {
    if (!(p > 0.0) || !std::isfinite(p)) {
      return Status::InvalidArgument(
          "confusion entries must be finite and > 0");
    }
  }
  cardinality_ = cardinality;
  num_lfs_ = num_lfs;
  class_priors_ = std::move(class_priors);
  confusions_.assign(num_lfs, std::vector<std::vector<double>>(
                                  k, std::vector<double>(k, 0.0)));
  for (size_t j = 0; j < num_lfs; ++j) {
    for (size_t c = 0; c < k; ++c) {
      for (size_t e = 0; e < k; ++e) {
        confusions_[j][c][e] = flat_confusions[(j * k + c) * k + e];
      }
    }
  }
  iterations_ = 0;
  is_fit_ = true;
  BuildLogTables();
  return Status::OK();
}

std::vector<double> DawidSkeneModel::FlatConfusions() const {
  size_t k = static_cast<size_t>(cardinality_);
  std::vector<double> flat(num_lfs_ * k * k);
  for (size_t j = 0; j < num_lfs_; ++j) {
    for (size_t c = 0; c < k; ++c) {
      for (size_t e = 0; e < k; ++e) {
        flat[(j * k + c) * k + e] = confusions_[j][c][e];
      }
    }
  }
  return flat;
}

std::vector<double> DawidSkeneModel::PredictProbaFlat(
    const LabelMatrix& matrix) const {
  assert(is_fit_);
  assert(matrix.num_lfs() == num_lfs_);
  assert(matrix.cardinality() == cardinality_);
  size_t k = static_cast<size_t>(cardinality_);
  size_t m = matrix.num_rows();
  std::vector<double> out(m * k);
  if (m == 0) return out;
  KClassCsrView view = KClassCsrView::FromMatrix(matrix);
  // Row-pure kernel + fixed-grain shards: the flat posteriors are
  // bitwise-identical for any thread count and any row-range split.
  ScopedPool pool(options_.num_threads);
  pool->ParallelForShards(0, m, kRowGrain,
                          [&](size_t /*shard*/, size_t lo, size_t hi) {
                            KClassPosteriorRows(view, log_priors_.data(),
                                                log_conf_emit_.data(), lo, hi,
                                                out.data());
                          });
  return out;
}

std::vector<std::vector<double>> DawidSkeneModel::PredictProba(
    const LabelMatrix& matrix) const {
  size_t k = static_cast<size_t>(cardinality_);
  std::vector<double> flat = PredictProbaFlat(matrix);
  std::vector<std::vector<double>> posterior(matrix.num_rows());
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    posterior[i].assign(flat.begin() + i * k, flat.begin() + (i + 1) * k);
  }
  return posterior;
}

std::vector<Label> DawidSkeneModel::PredictLabels(
    const LabelMatrix& matrix) const {
  size_t k = static_cast<size_t>(cardinality_);
  std::vector<double> proba = PredictProbaFlat(matrix);
  std::vector<Label> out(matrix.num_rows());
  for (size_t i = 0; i < out.size(); ++i) {
    const double* row = proba.data() + i * k;
    // Ties go to the lowest class index.
    out[i] = ClassToLabel(
        static_cast<size_t>(std::max_element(row, row + k) - row));
  }
  return out;
}

double DawidSkeneModel::WorkerAccuracy(size_t j) const {
  assert(is_fit_ && j < num_lfs_);
  double acc = 0.0;
  for (size_t c = 0; c < static_cast<size_t>(cardinality_); ++c) {
    acc += class_priors_[c] * confusions_[j][c][c];
  }
  return acc;
}

}  // namespace snorkel
