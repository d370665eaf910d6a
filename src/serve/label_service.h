#ifndef SNORKEL_SERVE_LABEL_SERVICE_H_
#define SNORKEL_SERVE_LABEL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/generative_model.h"
#include "obs/metrics.h"
#include "core/label_matrix.h"
#include "data/candidate.h"
#include "lf/applier.h"
#include "lf/labeling_function.h"
#include "serve/incremental_applier.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace snorkel {

/// One batched labeling request: a set of candidates (rows) drawn from a
/// corpus, to be labeled under the snapshot's model. Rows are given either
/// as an owned vector (`candidates`) or as borrowed, index-preserving refs
/// (`candidate_refs`) — exactly one must be set. The ref form is the
/// zero-copy fan-out path used by the sharded tier: sub-batches reference
/// the original request's candidates and keep their original indices, so
/// even index-dependent LFs behave identically under sharding. Both forms
/// go through the incremental column cache when it is enabled (ref batches
/// fingerprint by content + reported index, and an identity ref view of a
/// vector shares cached columns with the owned form).
struct LabelRequest {
  const Corpus* corpus = nullptr;
  const std::vector<Candidate>* candidates = nullptr;
  const std::vector<CandidateRef>* candidate_refs = nullptr;
  /// Include the per-LF vote matrix Λ in the response (costs a copy).
  bool include_votes = false;
  /// Apply the snapshot's class-balance prior (off = the class-symmetric
  /// posterior used as discriminative training targets).
  bool apply_class_balance = true;
  /// Router-tier degradation policy (ignored by an unsharded service, which
  /// has no shards to lose). Default false: any failed shard fails the
  /// whole request with a typed status — never partial data. True opts this
  /// request into typed PARTIAL results: rows on healthy shards come back
  /// bit-identical to the unsharded answer, rows on failed shards are
  /// marked uncovered (LabelResponse::covered/shard_outcomes), and the
  /// response reports is_partial instead of failing.
  bool allow_partial = false;
  /// Optional cooperative cancellation token (not owned; must outlive the
  /// call). Checked between pipeline stages and at row chunk boundaries
  /// inside LF application, so a request whose caller has given up stops
  /// consuming CPU and fails typed kDeadlineExceeded instead of computing a
  /// reply nobody reads. Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// One attempt at one replica while serving a shard's sub-batch: which
/// endpoint was tried and the typed status it returned. A sub-batch that
/// failed over records one entry per replica tried, in order.
struct ShardAttempt {
  size_t endpoint = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
};

/// Outcome of one shard's sub-batch: which shard, how many of the request's
/// rows it owned, and the typed status of its final attempt (kOk for
/// covered rows). Populated for allow_partial requests, and for any request
/// where some sub-batch needed more than one attempt — so callers can see
/// the failover chain (`attempts`) even when the response is complete.
struct ShardOutcome {
  size_t shard = 0;
  size_t rows = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// Per-replica attempt chain (empty when the primary answered first try).
  std::vector<ShardAttempt> attempts;
};

/// The serving result for one batch. Binary snapshots fill the scalar
/// fields exactly as they always have (`posteriors` = P(y=+1), hard labels
/// in {+1, -1, ∅}); K-class snapshots fill `class_posteriors` — a flat
/// row-major num_candidates × K distribution — plus MAP `hard_labels` in
/// {1..K}, and leave `posteriors` empty. `cardinality` says which shape
/// this response carries.
struct LabelResponse {
  /// Task cardinality of the serving snapshot (2 = binary).
  int cardinality = 2;
  /// Binary only: P(y = +1 | Λ_i) per candidate, in request order.
  std::vector<double> posteriors;
  /// Hard labels: binary thresholded at 0.5 (∅ at exactly 0.5); K-class
  /// MAP over the class posterior (first-max tie break, matching
  /// DawidSkeneModel::PredictLabels).
  std::vector<Label> hard_labels;
  /// K-class only: flat row-major num_candidates × K class posteriors,
  /// row i at [i*K, (i+1)*K), class index c ↦ label c+1.
  std::vector<double> class_posteriors;
  /// Per-LF votes (populated when LabelRequest::include_votes).
  LabelMatrix votes;
  /// Wall-clock for this request, milliseconds.
  double latency_ms = 0.0;

  /// ---- Partial-degradation fields (allow_partial requests only). ----
  /// True when at least one shard failed and its rows are uncovered. A
  /// response with is_partial == false is complete: every row is exactly
  /// what the unsharded service would have produced.
  bool is_partial = false;
  /// Covered-index bitmap, one bit per request row (row i at word i/64, bit
  /// i%64). Empty means "all rows covered". Uncovered rows hold kAbstain
  /// hard labels and zeroed posteriors — placeholders, not model output.
  std::vector<uint64_t> covered;
  /// Per-sub-batch status for allow_partial requests (covered shards
  /// report kOk) and for complete responses that needed failover; empty
  /// when every sub-batch succeeded on its primary first try.
  std::vector<ShardOutcome> shard_outcomes;

  /// True when row `i` carries real model output (always true for
  /// non-partial responses).
  bool RowCovered(size_t i) const {
    if (covered.empty()) return true;
    return (covered[i / 64] >> (i % 64)) & 1u;
  }
};

/// Cumulative serving counters. Latency quantiles come from a fixed-bucket
/// all-time histogram (obs::LatencyBucketsMs edges): bounded memory for
/// long-lived serving processes, lock-free on the request hot path, and
/// mergeable across shards and processes. p50/p99 are bucket-interpolated
/// estimates; max is exact.
struct ServiceStats {
  uint64_t num_requests = 0;
  uint64_t num_candidates = 0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  /// The full latency histogram the quantiles above are derived from.
  /// Shards share bucket bounds, so RouterStats can sum these across the
  /// fleet and re-derive fleet-level quantiles.
  obs::HistogramSnapshot latency;
  /// Candidates per second over WALL CLOCK: all-time candidates divided by
  /// the span from the first request's start to the latest request's
  /// completion. (Dividing by *summed* request latencies would double-count
  /// elapsed time under concurrent callers and understate true throughput.)
  double throughput_cps = 0.0;
  /// The wall-clock span the throughput is measured over, seconds.
  double busy_span_s = 0.0;
  /// Column-cache effectiveness, forwarded from the incremental applier
  /// (see IncrementalApplier::Stats for the exact semantics). Computed
  /// columns include those of sets served without admission; the count of
  /// such sets is the registry counter snorkel_cache_unadmitted_sets_total.
  uint64_t lf_columns_reused = 0;
  uint64_t lf_columns_computed = 0;
  /// Candidate-set-level cache behaviour: requests whose set was already
  /// cached vs admitted on that request, resident cached label bytes, and
  /// rows computed as appended tails of a cached prefix (the append-only
  /// stream path).
  uint64_t cache_set_hits = 0;
  uint64_t cache_set_misses = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_appended_rows = 0;
  /// Identity of the snapshot this service is serving: the artifact's store
  /// version (0 = not store-managed) and the canonical content checksum
  /// (ModelSnapshot::CanonicalChecksum). During a rollout, a fleet's stats
  /// show per shard which replicas have swapped onto the new artifact.
  uint64_t snapshot_version = 0;
  uint64_t snapshot_checksum = 0;
};

/// The label-serving front end: loads one model snapshot, binds it to the
/// live LabelingFunctionSet, and answers batched LabelRequests — apply LFs
/// (cached + sharded over the thread pool), run the label-model posterior,
/// record latency. This is the Snorkel-DryBell-shaped deployment surface:
/// the Figure 2 training loop happens offline, a snapshot is shipped, and
/// fresh candidates are labeled online without refitting anything.
///
/// Create() dispatches on what the snapshot carries: binary snapshots
/// serve a scalar posterior — the generative model's (GENM section) when
/// present, else P(y=+1) from a binary Dawid-Skene model — while K-class
/// snapshots (e.g. the §4.1.2 five-class Crowd task) serve the Dawid-Skene
/// class distribution (DAWD section) through the batched K-class E-step
/// kernel. LF votes are validated against the snapshot's cardinality on
/// every path.
///
/// Every request goes through one IncrementalApplier. Its column cache
/// admits a candidate set on the set's second sighting (see
/// IncrementalApplier): a batch seen once — most fresh serving traffic — is
/// labeled by a plain LFApplier apply and never cached, repeat and
/// alternating batches hit from their third sighting, and an append-only
/// stream computes only its tail from its third request. In a §4.1 edit
/// session the first edit recomputes every column once; each later edit
/// recomputes one.
///
/// Thread-safe, with narrow critical sections: the posterior computation is
/// read-only on the restored model and runs lock-free, and the applier's
/// column cache is itself concurrent (shared-lock hits, per-column miss
/// collapse, no cache lock at all for sets it does not admit) — so
/// concurrent Label() callers overlap their compute. The serving counters
/// are lock-free too (atomic counters + an atomic-bucket latency
/// histogram), so no request ever serializes on stats.
class LabelService {
 public:
  struct Options {
    size_t num_threads = 0;
    /// Reuse memoized LF columns across requests (the §4.1 iterate loop,
    /// repeat/alternating serving batches, and append-only candidate
    /// streams); identical posteriors either way. The cache is concurrent:
    /// hits take no exclusive lock and misses for the same column collapse
    /// onto one computation across callers. false = the applier's byte
    /// budget is 0: it never admits a set and skips fingerprinting.
    bool use_incremental_cache = true;
    /// Forwarded to GenerativeModel at restore time (binary snapshots).
    GenerativeModelOptions gen;
    /// Forwarded to DawidSkeneModel at restore time (K-class snapshots).
    DawidSkeneOptions ds;
    /// Dispatch compilable LFs through the batch engine (lf/compiled/),
    /// seeded with the snapshot's LFCP program when it carries one (else
    /// compiled live on first use). Votes and posteriors are bitwise
    /// identical either way; off = interpret every LF per row.
    bool use_compiled_lfs = true;
  };

  /// Binds `snapshot` to the live LF set. Every LF must match the snapshot's
  /// per-column name AND fingerprint — a renamed, reordered, or re-versioned
  /// LF set would silently misalign Λ's columns with the learned weights, so
  /// mismatches are an InvalidArgument at load time, not a serving-time bug.
  static Result<LabelService> Create(const ModelSnapshot& snapshot,
                                     LabelingFunctionSet lfs, Options options);
  static Result<LabelService> Create(const ModelSnapshot& snapshot,
                                     LabelingFunctionSet lfs) {
    return Create(snapshot, std::move(lfs), Options());
  }

  /// LoadSnapshot + Create.
  static Result<LabelService> FromFile(const std::string& path,
                                       LabelingFunctionSet lfs,
                                       Options options);
  static Result<LabelService> FromFile(const std::string& path,
                                       LabelingFunctionSet lfs) {
    return FromFile(path, std::move(lfs), Options());
  }

  LabelService(LabelService&&) = default;

  /// Labels one batch.
  Result<LabelResponse> Label(const LabelRequest& request);

  /// Snapshot of the cumulative serving counters.
  ServiceStats stats() const;

  /// Drops every cached LF column. The cache scopes entries by
  /// Corpus::identity(), which every mutable access bumps, so this is only
  /// needed after writing through a Document* kept from an earlier
  /// mutable_document() call. Safe concurrently with Label(); in-flight
  /// requests finish against their pinned entries.
  void InvalidateCache();

  /// The restored generative model (meaningful for binary services only).
  const GenerativeModel& model() const { return model_; }
  /// The restored Dawid-Skene model (meaningful for K-class services only).
  const DawidSkeneModel& ds_model() const { return ds_model_; }
  /// Task cardinality this service serves (2 = binary).
  int cardinality() const { return cardinality_; }
  size_t num_lfs() const { return lfs_.size(); }
  /// Artifact identity of the serving snapshot (see
  /// ServiceStats::snapshot_version/snapshot_checksum).
  uint64_t snapshot_version() const { return snapshot_version_; }
  uint64_t snapshot_checksum() const { return snapshot_checksum_; }

 private:
  LabelService(GenerativeModel model, DawidSkeneModel ds_model,
               int cardinality, LabelingFunctionSet lfs, Options options,
               std::shared_ptr<const CompiledLfProgram> compiled_program);

  /// 2 serves model_ (scalar posterior); >2 serves ds_model_ (K columns).
  int cardinality_ = 2;
  /// Immutable after Create: the serving artifact's identity.
  uint64_t snapshot_version_ = 0;
  uint64_t snapshot_checksum_ = 0;
  GenerativeModel model_;
  DawidSkeneModel ds_model_;
  LabelingFunctionSet lfs_;
  /// The one applier: a concurrent multi-set column cache (budget 0 when
  /// the cache is off); no service-level lock guards it — concurrent
  /// callers hit, miss, and wait inside it.
  IncrementalApplier applier_;

  /// Monotonic anchors for wall-clock throughput: start of the first
  /// request ever (CAS-min; ~0 = never served) and completion of the most
  /// recent one (CAS-max). Heap-held atomics so the service stays movable
  /// (Result<LabelService> needs it) while concurrent Label() callers
  /// update them lock-free.
  struct TimeAnchors {
    std::atomic<uint64_t> first_start_ns{~0ull};
    std::atomic<uint64_t> last_done_ns{0};
  };
  std::shared_ptr<TimeAnchors> anchors_;

  /// Lock-free serving instruments, registered into the process metrics
  /// registry (PR 8: replaces the mutexed latency window — the whole
  /// request hot path is now atomic increments + one histogram Observe).
  /// shared_ptr-owned: the registry holds weak refs, so a destroyed
  /// service's instruments drop out of the next export.
  std::shared_ptr<obs::Counter> requests_total_;
  std::shared_ptr<obs::Counter> candidates_total_;
  std::shared_ptr<obs::Histogram> latency_hist_;
};

}  // namespace snorkel

#endif  // SNORKEL_SERVE_LABEL_SERVICE_H_
