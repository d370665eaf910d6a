#ifndef SNORKEL_SHARD_SHARD_ROUTER_H_
#define SNORKEL_SHARD_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lf/labeling_function.h"
#include "serve/label_service.h"
#include "serve/snapshot.h"
#include "shard/partitioner.h"
#include "util/status.h"

namespace snorkel {

/// Router-level serving counters, aggregated over every shard replica.
struct RouterStats {
  /// Client requests answered successfully (merged responses).
  uint64_t num_requests = 0;
  /// Candidates labeled across successful requests.
  uint64_t num_candidates = 0;
  /// Requests refused with kResourceExhausted because a shard queue was at
  /// capacity (reject backpressure policy only).
  uint64_t rejected_requests = 0;
  /// Requests failed by a shard error (typed status propagated to caller).
  uint64_t failed_requests = 0;
  /// allow_partial requests answered with is_partial == true: at least one
  /// sub-batch failed and its rows were returned uncovered instead of
  /// failing the whole request.
  uint64_t degraded_requests = 0;
  /// Sub-batches that were coalesced into an immediately preceding model
  /// pass by a shard worker (queue pipelining at work).
  uint64_t fused_jobs = 0;
  /// Sub-batches currently sitting in shard queues (instantaneous gauge).
  size_t queue_depth = 0;
  /// High-water mark of any single shard queue's depth.
  size_t max_queue_depth = 0;
  /// Wall-clock candidates/sec across the whole tier (same definition as
  /// ServiceStats::throughput_cps).
  double throughput_cps = 0.0;
  double busy_span_s = 0.0;
  /// Fleet-level model-pass latency: the per-replica histograms summed
  /// bucket-by-bucket (all replicas share obs::LatencyBucketsMs bounds).
  /// Quantiles over this merged snapshot are the tier's true quantiles.
  obs::HistogramSnapshot latency;
  /// Column-cache effectiveness summed over every replica (each replica's
  /// ServiceStats cache fields; see IncrementalApplier::Stats). A replica
  /// admits a sub-batch's set to its cache on the set's second sighting, so
  /// fresh traffic leaves cache_set_misses and cache_bytes at 0 while
  /// lf_columns_computed still counts every column it labeled.
  uint64_t lf_columns_reused = 0;
  uint64_t lf_columns_computed = 0;
  uint64_t cache_set_hits = 0;
  uint64_t cache_set_misses = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_appended_rows = 0;
  /// Artifact identity every replica serves (replicas of one router always
  /// agree — they were built from the same snapshot): the store version and
  /// canonical content checksum, for rollout observability.
  uint64_t snapshot_version = 0;
  uint64_t snapshot_checksum = 0;
  /// Per-replica serving stats, indexed by shard. A shard's num_requests
  /// counts model passes (fused sub-batches count once), not client
  /// requests.
  std::vector<ServiceStats> per_shard;
};

/// The scale-out tier over N LabelService replicas — the DryBell-shaped
/// layer that turns one-process serving into a horizontally partitioned
/// fleet (ROADMAP "multi-node sharding" + "async request queue"):
///
///   Label(request)
///     └─ CandidatePartitioner: hash-split candidates into per-shard
///        sub-batches by stable content key
///     └─ a worker core per shard (shard/worker_core.h): bounded
///        admission with explicit backpressure — block until space, or
///        typed kResourceExhausted rejection — and dedicated worker threads
///        that coalesce bursts into fused model passes on the replica
///     └─ merge: responses reassembled into request order
///
/// Validation, partitioning, the failure policy, the merge and the request
/// counters are the routing core RemoteShardRouter shares
/// (shard/routing_core.h); the admission queue and workers are the worker
/// core ShardServer shares. This class supplies only the replicas, the
/// block/reject policy and its rejection message.
///
/// Guarantees:
///  - Posteriors (the binary scalar AND the K-class per-row class
///    distribution), hard labels, and (with include_votes) the reassembled
///    vote matrix are BITWISE-IDENTICAL to one unsharded LabelService
///    answering the same request: every per-row kernel is content-pure, so
///    neither the partition, the sub-batch sizes, nor worker-side fusion
///    can perturb a single bit.
///  - Failed shards fail the request typed, or degrade it to uncovered rows
///    under LabelRequest::allow_partial — the core's failure policy.
///  - LabelRequest::cancel is honoured like LabelService does: an expired
///    token fails typed kDeadlineExceeded before anything is queued, and the
///    token rides into each replica call (jobs fuse only under one token).
///  - Requests admitted before Shutdown() drain to completion; Label()
///    after shutdown is a typed FailedPrecondition.
///
/// Thread-safe: any number of concurrent callers; bursty callers pipeline
/// through the queues instead of contending inside Label().
class ShardRouter {
 public:
  struct Options {
    /// Number of LabelService replicas (>= 1).
    size_t num_shards = 2;
    /// Per-shard queue bound (sub-batches); clamped to >= 1.
    size_t queue_capacity = 128;
    /// Dedicated worker threads per shard; clamped to >= 1.
    size_t workers_per_shard = 1;
    /// Backpressure policy when a shard queue is full: true = the caller
    /// blocks in Label() until space frees up; false = the request is
    /// rejected with kResourceExhausted (and counted in rejected_requests).
    /// Rejection is all-or-nothing for the RESPONSE (never partial
    /// results), but admission is per-shard, not transactional: a full
    /// queue is probed for up-front (cheap shed with no wasted work), yet
    /// under a probe/push race a request can commit sub-batches to some
    /// shards before being rejected at another — those execute and are
    /// discarded, and the caller waits for them before the rejection
    /// returns.
    bool block_on_full = true;
    /// Max sub-batches a worker coalesces into one fused model pass. Fusing
    /// amortizes per-pass fixed costs under bursty load and cannot change
    /// results (see the bitwise guarantee above). 1 disables fusion.
    size_t max_fuse = 8;
    /// Options for each shard's LabelService replica. The column cache
    /// defaults ON (matching LabelService): it is concurrent and
    /// multi-set, and sub-batches fingerprint by content + preserved index,
    /// so repeat/alternating traffic hits per shard instead of serializing
    /// behind an apply mutex (the pre-PR-5 reason it defaulted off here).
    LabelService::Options service;
  };

  /// Builds `num_shards` replicas from one snapshot; every replica
  /// validates the live LF set exactly as LabelService::Create does.
  static Result<ShardRouter> Create(const ModelSnapshot& snapshot,
                                    const LabelingFunctionSet& lfs,
                                    Options options);

  /// LoadSnapshotMapped + Create: the artifact is decoded from an mmap'd
  /// view, so a process tree of routers shares one page-cache copy of the
  /// snapshot bytes. `load_info` (optional) reports whether mmap was used.
  static Result<ShardRouter> FromFile(const std::string& path,
                                      const LabelingFunctionSet& lfs,
                                      Options options,
                                      SnapshotLoadInfo* load_info = nullptr);

  ShardRouter(ShardRouter&&) = default;
  /// Shuts down the current tier (drain + join) before adopting the other's.
  ShardRouter& operator=(ShardRouter&& other);

  /// Shutdown() + join.
  ~ShardRouter();

  /// Labels one batch through the sharded tier. Blocks until every
  /// sub-batch has been served (or rejected/failed as a whole).
  Result<LabelResponse> Label(const LabelRequest& request);

  /// Aggregated router + per-shard counters.
  RouterStats stats() const;

  /// Drops every replica's cached LF columns (see
  /// LabelService::InvalidateCache for when this is required).
  void InvalidateCache();

  /// Closes every shard queue (subsequent Label() calls fail typed), lets
  /// the workers drain everything already admitted, and joins them.
  /// Idempotent; called by the destructor.
  void Shutdown();

  size_t num_shards() const;

 private:
  struct Impl;
  explicit ShardRouter(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace snorkel

#endif  // SNORKEL_SHARD_SHARD_ROUTER_H_
