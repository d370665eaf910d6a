#ifndef SNORKEL_NET_REMOTE_ROUTER_H_
#define SNORKEL_NET_REMOTE_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/health.h"
#include "net/remote_client.h"
#include "obs/metrics.h"
#include "serve/label_service.h"
#include "util/status.h"

namespace snorkel {

/// Router-side counters for the networked tier.
struct RemoteRouterStats {
  uint64_t num_requests = 0;
  uint64_t num_candidates = 0;
  /// Whole-request typed failures (default mode: any failed shard).
  uint64_t failed_requests = 0;
  /// allow_partial requests answered with is_partial == true.
  uint64_t degraded_requests = 0;
  // ---- Resilience counters. ----
  /// Sub-batches ultimately served by a FALLBACK replica after the
  /// preferred one(s) failed — each is a request that replication saved.
  uint64_t failovers = 0;
  /// Retries refused because the token-bucket retry budget was dry (the
  /// anti-retry-storm valve engaging).
  uint64_t retry_budget_exhausted = 0;
  /// Attempts rejected by an open per-endpoint circuit breaker WITHOUT
  /// dispatching work (failover moved on for free).
  uint64_t breaker_open_rejections = 0;
  /// Faults + delays injected in THIS process (util/fault.h registry —
  /// client-side transport/admission sites).
  uint64_t faults_injected = 0;
  /// End-to-end request latency (fan-out + failover + merge) as seen by
  /// Label() callers, on the shared obs::LatencyBucketsMs bounds.
  obs::HistogramSnapshot latency;
  /// Per-shard client stats (pool/health/limiter), indexed by shard.
  std::vector<RemoteShardClient::Stats> per_shard;
};

/// The cross-process ShardRouter: partitions a request over N remote
/// ShardServer processes with the SAME stable content-hash placement as the
/// in-process tier (shard/partitioner.h), fans sub-batches out concurrently
/// through RemoteShardClient stubs, and merges responses back into request
/// order. Validation, partitioning, the failure policy, the merge and the
/// request counters are the routing core ShardRouter shares
/// (shard/routing_core.h); this class supplies only the remote backend —
/// the per-shard failover chain, retry budget and backoff — plus the
/// router.request trace root and the slow-request log.
///
/// Guarantees (the fabric-level extension of ShardRouter's):
///  - All shards healthy → the merged response is BITWISE-IDENTICAL to one
///    unsharded in-process LabelService answering the same request (doubles
///    cross the wire as raw IEEE-754 bytes; corpus slices preserve original
///    document indices; merge order is deterministic).
///  - REPLICATED FAILOVER (replication R > 1): every endpoint serves the
///    same snapshot and computes bit-identical posteriors, so a sub-batch
///    whose preferred replica fails retry-safely (kUnavailable, transport
///    failure, kResourceExhausted, kDeadlineExceeded with budget left) is
///    transparently retried on the next replica in its shard's
///    ShardPlacement preference list — the caller sees the SAME bits it
///    would have seen from the primary. Labeling is read-only and
///    idempotent, so a retry after a mid-exchange failure can at worst
///    duplicate server work, never corrupt a result. Retries (after an
///    attempt that actually dispatched work) spend a token-bucket
///    RetryBudget and back off with seeded jitter; a fail-fast from an open
///    breaker costs nothing and fails over immediately — which is why a
///    fleet with <= R-1 dead replicas per key keeps answering every request
///    completely, even under a steady outage. Attempt chains are recorded
///    in ShardOutcome::attempts.
///  - A sub-batch whose every admissible replica failed fails the request
///    typed, or degrades it to uncovered rows under
///    LabelRequest::allow_partial — the core's failure policy.
///  - LabelRequest::cancel: an expired token fails typed kDeadlineExceeded
///    before anything is sent, and the token's deadline caps every
///    sub-batch's overall budget (it crosses the wire with each attempt). A
///    manual Cancel() does not cross the wire: it fails the request only if
///    issued before Label() dispatches.
///
/// Thread-safe: concurrent Label() calls fan out independently.
class RemoteShardRouter {
 public:
  struct Options {
    /// Per-shard client options (host/port filled per endpoint).
    RemoteShardClient::Options client;
    /// Per-call deadline forwarded to every sub-batch RPC; 0 = none. With
    /// failover this is the OVERALL budget across a sub-batch's attempts.
    uint64_t request_timeout_ms = 0;
    /// Replicas to try per shard key (clamped to [1, endpoints]). 1
    /// reproduces single-owner routing exactly; the default 2 survives any
    /// single endpoint failure with zero failed requests.
    size_t replication = 2;
    /// Token-bucket bound on retry amplification (net/health.h).
    RetryBudget::Options retry_budget;
    /// Backoff between attempts that dispatched work (seeded jitter; one
    /// stream per shard).
    BackoffOptions backoff;
    /// Slow-request log threshold: a traced request whose end-to-end
    /// latency is >= this many ms logs its span tree at Warning through
    /// util/logging. 0 disables. Only fires when tracing is enabled (the
    /// request must have a trace id to collect spans for).
    uint64_t slow_request_log_ms = 0;
  };

  /// One stub per endpoint; primary placement = CandidateShardKey %
  /// endpoints.size(), fallback order per shard from rendezvous hashing
  /// (net/placement.h). Endpoint order IS shard order — every router over
  /// the same ordered endpoint list agrees on the whole placement.
  static Result<RemoteShardRouter> Create(
      const std::vector<std::pair<std::string, uint16_t>>& endpoints,
      Options options);

  RemoteShardRouter(RemoteShardRouter&&) noexcept = default;
  RemoteShardRouter& operator=(RemoteShardRouter&&) noexcept = default;
  ~RemoteShardRouter();

  /// Labels one batch across the remote fleet (LabelRequest semantics as in
  /// serve/label_service.h; include_votes is supported and reassembles the
  /// vote matrix bitwise).
  Result<LabelResponse> Label(const LabelRequest& request);

  RemoteRouterStats stats() const;

  size_t num_shards() const;

  /// Direct access to a shard's client stub (health probes, stats RPCs).
  RemoteShardClient& shard(size_t i);

 private:
  struct Impl;
  explicit RemoteShardRouter(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace snorkel

#endif  // SNORKEL_NET_REMOTE_ROUTER_H_
