#include "serve/label_service.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/timer.h"

namespace snorkel {

namespace {

// CAS-min / CAS-max for the monotonic throughput anchors.
void AtomicMinU64(std::atomic<uint64_t>* target, uint64_t v) {
  uint64_t old = target->load(std::memory_order_relaxed);
  while (v < old && !target->compare_exchange_weak(
                        old, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxU64(std::atomic<uint64_t>* target, uint64_t v) {
  uint64_t old = target->load(std::memory_order_relaxed);
  while (v > old && !target->compare_exchange_weak(
                        old, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

LabelService::LabelService(
    GenerativeModel model, DawidSkeneModel ds_model, int cardinality,
    LabelingFunctionSet lfs, Options options,
    std::shared_ptr<const CompiledLfProgram> compiled_program)
    : cardinality_(cardinality),
      model_(std::move(model)),
      ds_model_(std::move(ds_model)),
      lfs_(std::move(lfs)),
      // The one applier serves every request; cache off is a byte budget
      // of 0 (never admit, never fingerprint). It shares the snapshot's
      // pre-built LFCP program (null = compile live on first use).
      applier_(IncrementalApplier::Options{
          .num_threads = options.num_threads,
          .cardinality = cardinality,
          .max_cached_bytes =
              options.use_incremental_cache
                  ? IncrementalApplier::kDefaultMaxCachedBytes
                  : 0,
          .use_compiled = options.use_compiled_lfs,
          .compiled_program = std::move(compiled_program)}),
      anchors_(std::make_shared<TimeAnchors>()) {
  auto& registry = obs::MetricsRegistry::Default();
  requests_total_ = registry.CreateCounter("snorkel_serve_requests_total");
  candidates_total_ =
      registry.CreateCounter("snorkel_serve_candidates_total");
  latency_hist_ = registry.CreateHistogram("snorkel_serve_latency_ms",
                                           obs::LatencyBucketsMs());
}

Result<LabelService> LabelService::Create(const ModelSnapshot& snapshot,
                                          LabelingFunctionSet lfs,
                                          Options options) {
  if (snapshot.cardinality < 2) {
    return Status::InvalidArgument(
        "snapshot cardinality must be >= 2; got " +
        std::to_string(snapshot.cardinality));
  }
  if (lfs.size() != snapshot.num_lfs()) {
    return Status::InvalidArgument(
        "LF set has " + std::to_string(lfs.size()) + " functions; snapshot " +
        "was trained over " + std::to_string(snapshot.num_lfs()));
  }
  for (size_t j = 0; j < lfs.size(); ++j) {
    if (lfs.at(j).name() != snapshot.lf_names[j]) {
      return Status::InvalidArgument(
          "LF column " + std::to_string(j) + " is '" + lfs.at(j).name() +
          "' but the snapshot was trained with '" + snapshot.lf_names[j] +
          "' there; columns must align with the learned weights");
    }
    if (lfs.at(j).fingerprint() != snapshot.lf_fingerprints[j]) {
      return Status::InvalidArgument(
          "LF '" + lfs.at(j).name() + "' has a different fingerprint than " +
          "at training time; its behaviour changed, so the snapshot's " +
          "weights no longer apply (re-train and re-export)");
    }
  }
  // Dispatch on what the snapshot carries: a binary snapshot serves a
  // scalar posterior — from the generative model (GENM) when present, else
  // from a binary Dawid-Skene model's P(class +1) — and a K-class snapshot
  // serves the Dawid-Skene class distribution (DAWD required).
  // Artifact identity surfaced in stats (rollout observability): the
  // store version the snapshot was loaded at plus its canonical content
  // checksum.
  const uint64_t artifact_version = snapshot.artifact_version;
  const uint64_t artifact_checksum = snapshot.CanonicalChecksum();
  if (snapshot.cardinality == 2 && snapshot.has_gen_model) {
    auto model = snapshot.RestoreGenerativeModel(options.gen);
    if (!model.ok()) return model.status();
    LabelService service(std::move(*model), DawidSkeneModel(), 2,
                         std::move(lfs), options, snapshot.compiled_lfs);
    service.snapshot_version_ = artifact_version;
    service.snapshot_checksum_ = artifact_checksum;
    return service;
  }
  if (!snapshot.has_ds_model) {
    return Status::InvalidArgument(
        "cardinality-" + std::to_string(snapshot.cardinality) +
        " snapshot carries no label model to serve (needs " +
        (snapshot.cardinality == 2 ? "a GENM or DAWD" : "a DAWD") +
        " section)");
  }
  auto ds_model = snapshot.RestoreDawidSkeneModel(options.ds);
  if (!ds_model.ok()) return ds_model.status();
  LabelService service(GenerativeModel(), std::move(*ds_model),
                       snapshot.cardinality, std::move(lfs), options,
                       snapshot.compiled_lfs);
  service.snapshot_version_ = artifact_version;
  service.snapshot_checksum_ = artifact_checksum;
  return service;
}

Result<LabelService> LabelService::FromFile(const std::string& path,
                                            LabelingFunctionSet lfs,
                                            Options options) {
  // Mapped load: replicas opening the same artifact share one page-cache
  // copy of its bytes (identical validation to the read-copy path).
  auto snapshot = LoadSnapshotMapped(path);
  if (!snapshot.ok()) return snapshot.status();
  return Create(*snapshot, std::move(lfs), options);
}

Result<LabelResponse> LabelService::Label(const LabelRequest& request) {
  if (request.corpus == nullptr) {
    return Status::InvalidArgument("request missing corpus");
  }
  const bool by_refs = request.candidate_refs != nullptr;
  if (by_refs == (request.candidates != nullptr)) {
    return Status::InvalidArgument(
        "request must set exactly one of candidates / candidate_refs");
  }
  const size_t num_candidates =
      by_refs ? request.candidate_refs->size() : request.candidates->size();
  // Stage boundary check: a request that arrives already expired (e.g. it
  // sat in an admission queue past its budget) does no work at all.
  if (request.cancel != nullptr && request.cancel->Expired()) {
    return Status::DeadlineExceeded(
        "request budget spent before LF application started");
  }
  const uint64_t request_start_ns = obs::NowNanos();
  WallTimer timer;

  // LF application runs without any service-level lock. The concurrent
  // column cache lets callers overlap — hits read under shared locks,
  // misses for different LFs compute in parallel, duplicate misses collapse
  // onto one computation, and sets seen once are not cached at all. Ref
  // requests (the sharded tier's zero-copy fan-out) cache by content +
  // reported index, so repeat sub-batches hit like owned batches do.
  Result<LabelMatrix> matrix(Status::Internal("unset"));
  {
    obs::TraceSpan span("service.lf_apply");
    // Cache-delta annotation only when traced: the applier counters are
    // relaxed atomics, so under concurrent callers the delta attributes
    // overlapping work approximately, which is fine for a trace.
    IncrementalApplier::Stats before;
    if (span.active()) before = applier_.stats();
    matrix = by_refs ? applier_.ApplyRefs(lfs_, *request.corpus,
                                          *request.candidate_refs,
                                          request.cancel)
                     : applier_.Apply(lfs_, *request.corpus,
                                      *request.candidates, request.cancel);
    if (span.active()) {
      IncrementalApplier::Stats after = applier_.stats();
      span.Annotate(
          "rows=" + std::to_string(num_candidates) + " cols_reused=" +
          std::to_string(after.columns_reused - before.columns_reused) +
          " cols_computed=" +
          std::to_string(after.columns_computed - before.columns_computed) +
          (after.unadmitted_sets != before.unadmitted_sets ? " unadmitted"
                                                           : ""));
    }
  }
  if (!matrix.ok()) return matrix.status();
  // Stage boundary check between LF application and inference: don't start
  // the posterior pass for a caller that already gave up.
  if (request.cancel != nullptr && request.cancel->Expired()) {
    return Status::DeadlineExceeded(
        "request budget spent before inference started");
  }

  // Posterior computation reads the immutable restored model: lock-free.
  LabelResponse response;
  response.cardinality = cardinality_;
  {
  obs::TraceSpan inference_span("service.inference");
  if (inference_span.active()) {
    inference_span.Annotate("cardinality=" + std::to_string(cardinality_));
  }
  if (cardinality_ == 2) {
    if (ds_model_.is_fit()) {
      // Binary Dawid-Skene snapshot: the scalar posterior is P(class 0),
      // i.e. P(y = +1) under the model's label mapping. The DS posterior
      // has no class-symmetric form, so its own priors always apply
      // (request.apply_class_balance is a generative-model knob).
      std::vector<double> flat = ds_model_.PredictProbaFlat(*matrix);
      response.posteriors.resize(num_candidates);
      for (size_t i = 0; i < num_candidates; ++i) {
        response.posteriors[i] = flat[i * 2];
      }
    } else {
      response.posteriors =
          model_.PredictProba(*matrix, request.apply_class_balance);
    }
    response.hard_labels.resize(response.posteriors.size());
    for (size_t i = 0; i < response.posteriors.size(); ++i) {
      if (response.posteriors[i] > 0.5) {
        response.hard_labels[i] = 1;
      } else if (response.posteriors[i] < 0.5) {
        response.hard_labels[i] = -1;
      } else {
        response.hard_labels[i] = kAbstain;
      }
    }
  } else {
    // K-class: the batched Dawid-Skene E-step kernel over precomputed
    // log-tables; hard labels are the MAP class (first-max tie break,
    // exactly DawidSkeneModel::PredictLabels).
    const size_t k = static_cast<size_t>(cardinality_);
    response.class_posteriors = ds_model_.PredictProbaFlat(*matrix);
    response.hard_labels.resize(num_candidates);
    for (size_t i = 0; i < num_candidates; ++i) {
      const double* row = response.class_posteriors.data() + i * k;
      size_t best = 0;
      for (size_t c = 1; c < k; ++c) {
        if (row[c] > row[best]) best = c;
      }
      response.hard_labels[i] = ds_model_.ClassToLabel(best);
    }
  }
  }  // inference span
  if (request.include_votes) response.votes = std::move(*matrix);
  response.latency_ms = timer.ElapsedMillis();

  // Lock-free stats: two counter bumps, one histogram Observe, and two CAS
  // anchor updates. Anchoring on the earliest request START keeps the
  // throughput span covering all overlapping concurrent work exactly once
  // even when requests retire out of order.
  requests_total_->Increment();
  candidates_total_->Increment(num_candidates);
  latency_hist_->Observe(response.latency_ms);
  AtomicMinU64(&anchors_->first_start_ns, request_start_ns);
  AtomicMaxU64(&anchors_->last_done_ns, obs::NowNanos());
  return response;
}

void LabelService::InvalidateCache() { applier_.InvalidateAll(); }

ServiceStats LabelService::stats() const {
  ServiceStats stats;
  stats.num_requests = requests_total_->value();
  stats.num_candidates = candidates_total_->value();
  stats.latency = latency_hist_->Snapshot();
  stats.p50_latency_ms = stats.latency.Quantile(0.5);
  stats.p99_latency_ms = stats.latency.Quantile(0.99);
  stats.max_latency_ms = stats.latency.max;
  // Wall-clock throughput: earliest request start to latest completion.
  // Summing per-request latencies here would count every overlapping
  // concurrent request's time separately and understate throughput.
  const uint64_t first_ns = anchors_->first_start_ns.load();
  const uint64_t last_ns = anchors_->last_done_ns.load();
  if (first_ns != ~0ull && last_ns > first_ns) {
    stats.busy_span_s = static_cast<double>(last_ns - first_ns) / 1e9;
    stats.throughput_cps =
        static_cast<double>(stats.num_candidates) / stats.busy_span_s;
  }
  // The applier's counters are atomics: no lock, and never blocked behind
  // an in-flight miss computation.
  IncrementalApplier::Stats cache = applier_.stats();
  stats.lf_columns_reused = cache.columns_reused;
  stats.lf_columns_computed = cache.columns_computed;
  stats.cache_set_hits = cache.set_hits;
  stats.cache_set_misses = cache.set_misses;
  stats.cache_bytes = cache.bytes_cached;
  stats.cache_appended_rows = cache.appended_rows;
  stats.snapshot_version = snapshot_version_;
  stats.snapshot_checksum = snapshot_checksum_;
  return stats;
}

}  // namespace snorkel
