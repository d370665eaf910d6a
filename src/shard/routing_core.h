#ifndef SNORKEL_SHARD_ROUTING_CORE_H_
#define SNORKEL_SHARD_ROUTING_CORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "serve/label_service.h"
#include "shard/partitioner.h"
#include "util/status.h"

namespace snorkel {

/// One shard's slice of a routed request, and the slot its backend fills.
struct SubBatch {
  size_t shard = 0;
  /// Borrowed, index-preserving refs into the request's candidates.
  const std::vector<CandidateRef>* rows = nullptr;
  /// to_request[t] = request position of rows[t] (what the merge scatters
  /// by).
  const std::vector<size_t>* to_request = nullptr;
  /// The backend's verdict for this sub-batch.
  Result<LabelResponse> result{Status::Internal("sub-batch not served")};
  /// Replica attempt chain; more than one entry marks a failover.
  std::vector<ShardAttempt> attempts;
};

/// The request path both shard routers share (ShardRouter over in-process
/// replicas, RemoteShardRouter over ShardServer processes):
///
///   validate → expired-token check → partition by stable content key
///     → serve every non-empty sub-batch (the router's backend)
///     → failure policy → merge into request order → count
///
/// Failure policy:
///  - default: any failed sub-batch fails the whole request, typed, naming
///    the shard ("shard 2/4 failed: ...") — never partial data;
///  - LabelRequest::allow_partial: failed sub-batches come back as
///    uncovered rows (covered bitmap + per-shard ShardOutcome), covered rows
///    stay bitwise-identical to the unsharded answer;
///  - a request with NO surviving sub-batch fails typed ("no shard
///    survived") under either policy.
///
/// The merge copies every per-row value verbatim from its shard's response
/// (one scalar per row for binary tasks, one K-vector for K-class; votes
/// reassembled by request row), so a merged response is bitwise what one
/// unsharded LabelService would return. ShardOutcomes are reported in shard
/// order for degraded responses and for complete ones that needed failover.
///
/// Thread-safe: Route() keeps all per-request state on its own frame and
/// the counters are lock-free registry instruments.
class RoutingCore {
 public:
  struct Config {
    size_t num_shards = 1;
    /// Shape of a response no sub-batch answered (an empty request): the
    /// served snapshot's cardinality and LF count when the router knows
    /// them. Served sub-batches' responses take precedence.
    int cardinality = 2;
    size_t num_lfs = 0;
    /// Registry names of the shared request counters.
    const char* requests_metric = nullptr;
    const char* candidates_metric = nullptr;
    const char* failed_metric = nullptr;
    const char* degraded_metric = nullptr;
    /// Non-null: a request with no surviving sub-batch whose first failure
    /// is kResourceExhausted counts here instead of in failed (the local
    /// router's admission-rejection counter, see CountRejected).
    const char* rejected_metric = nullptr;
    /// Non-null: a trace span of this name wraps partitioning.
    const char* placement_span = nullptr;
  };

  /// Serves every sub-batch of one request: fills each `result` (and
  /// `attempts`, when the backend fails over). Sub-batches arrive in shard
  /// order, non-empty ones only. A non-OK return fails the whole request
  /// with that status as-is and uncounted here (an admission rejection, a
  /// shut-down tier); the backend counts it if it should.
  using ServeFn =
      std::function<Status(const LabelRequest&, std::vector<SubBatch>&)>;

  explicit RoutingCore(const Config& config);

  /// Routes one request (LabelRequest semantics as in
  /// serve/label_service.h). A cancel token that has already expired fails
  /// typed kDeadlineExceeded before anything is dispatched; carrying the
  /// token into the sub-batch calls is the backend's job.
  Result<LabelResponse> Route(const LabelRequest& request,
                              const ServeFn& serve);

  /// Counts one request refused at admission (needs rejected_metric).
  void CountRejected() { rejected_->Increment(); }

  uint64_t num_requests() const { return requests_->value(); }
  uint64_t num_candidates() const { return candidates_->value(); }
  uint64_t failed_requests() const { return failed_->value(); }
  uint64_t degraded_requests() const { return degraded_->value(); }
  uint64_t rejected_requests() const {
    return rejected_ ? rejected_->value() : 0;
  }

 private:
  Result<LabelResponse> Merge(const LabelRequest& request, size_t total,
                              const std::vector<SubBatch>& batches);

  Config config_;
  CandidatePartitioner partitioner_;
  std::shared_ptr<obs::Counter> requests_;
  std::shared_ptr<obs::Counter> candidates_;
  std::shared_ptr<obs::Counter> failed_;
  std::shared_ptr<obs::Counter> degraded_;
  std::shared_ptr<obs::Counter> rejected_;
};

}  // namespace snorkel

#endif  // SNORKEL_SHARD_ROUTING_CORE_H_
