#include "shard/routing_core.h"

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/timer.h"

namespace snorkel {

RoutingCore::RoutingCore(const Config& config)
    : config_(config), partitioner_(config.num_shards) {
  auto& registry = obs::MetricsRegistry::Default();
  requests_ = registry.CreateCounter(config.requests_metric);
  candidates_ = registry.CreateCounter(config.candidates_metric);
  failed_ = registry.CreateCounter(config.failed_metric);
  degraded_ = registry.CreateCounter(config.degraded_metric);
  if (config.rejected_metric != nullptr) {
    rejected_ = registry.CreateCounter(config.rejected_metric);
  }
}

Result<LabelResponse> RoutingCore::Route(const LabelRequest& request,
                                         const ServeFn& serve) {
  if (request.corpus == nullptr) {
    return Status::InvalidArgument("request missing corpus");
  }
  const bool by_refs = request.candidate_refs != nullptr;
  if (by_refs == (request.candidates != nullptr)) {
    return Status::InvalidArgument(
        "request must set exactly one of candidates / candidate_refs");
  }
  if (request.cancel != nullptr && request.cancel->Expired()) {
    failed_->Increment();
    return Status::DeadlineExceeded(
        "request cancelled before any shard was dispatched");
  }
  WallTimer timer;

  // Zero-copy fan-out: sub-batches borrow the request's candidates (and
  // keep the caller-visible indices), so sharding neither copies a
  // candidate nor renumbers what index-dependent LFs observe. Placement is
  // the stable content hash, so every router over the same shard count
  // agrees on which shard owns every candidate.
  std::vector<CandidateRef> identity;
  if (!by_refs) identity = MakeCandidateRefs(*request.candidates);
  const std::vector<CandidateRef>& base =
      by_refs ? *request.candidate_refs : identity;
  ShardedRefBatch parts;
  {
    std::optional<obs::TraceSpan> span;
    if (config_.placement_span != nullptr) span.emplace(config_.placement_span);
    parts = partitioner_.PartitionRefs(base);
    if (span) span->Annotate("rows=" + std::to_string(parts.total));
  }

  std::vector<SubBatch> batches;
  batches.reserve(parts.num_shards());
  for (size_t s = 0; s < parts.num_shards(); ++s) {
    if (parts.shard_rows[s].empty()) continue;
    SubBatch batch;
    batch.shard = s;
    batch.rows = &parts.shard_rows[s];
    batch.to_request = &parts.shard_to_request[s];
    batches.push_back(std::move(batch));
  }
  Status dispatched = serve(request, batches);
  if (!dispatched.ok()) return dispatched;

  auto response = Merge(request, parts.total, batches);
  if (!response.ok()) return response;
  response->latency_ms = timer.ElapsedMillis();
  if (response->is_partial) degraded_->Increment();
  requests_->Increment();
  candidates_->Increment(parts.total);
  return response;
}

Result<LabelResponse> RoutingCore::Merge(const LabelRequest& request,
                                         size_t total,
                                         const std::vector<SubBatch>& batches) {
  auto shard_name = [&](size_t shard) {
    return "shard " + std::to_string(shard) + "/" +
           std::to_string(config_.num_shards);
  };
  // Failure policy. Default: any failed sub-batch fails the whole request,
  // typed, with shard context. allow_partial: failures become uncovered
  // rows; only a request with NO surviving sub-batch fails outright.
  const SubBatch* first_served = nullptr;
  const SubBatch* first_failed = nullptr;
  bool any_failover = false;
  for (const SubBatch& batch : batches) {
    any_failover = any_failover || batch.attempts.size() > 1;
    if (batch.result.ok()) {
      if (first_served == nullptr) first_served = &batch;
      continue;
    }
    const Status& cause = batch.result.status();
    if (!request.allow_partial) {
      failed_->Increment();
      return Status(cause.code(),
                    shard_name(batch.shard) + " failed: " + cause.message());
    }
    if (first_failed == nullptr) first_failed = &batch;
  }
  const bool degraded = first_failed != nullptr;
  if (degraded && first_served == nullptr) {
    // Zero coverage is a failure wearing a success type — fail typed.
    const Status& cause = first_failed->result.status();
    if (rejected_ && cause.code() == StatusCode::kResourceExhausted) {
      rejected_->Increment();
    } else {
      failed_->Increment();
    }
    return Status(cause.code(), shard_name(first_failed->shard) +
                                    " failed (no shard survived): " +
                                    cause.message());
  }

  // Merge back into request order: every per-row value is copied verbatim
  // from its shard's response.
  const int cardinality = first_served != nullptr
                              ? first_served->result->cardinality
                              : config_.cardinality;
  const size_t k = static_cast<size_t>(cardinality);
  LabelResponse response;
  response.cardinality = cardinality;
  if (cardinality == 2) {
    response.posteriors.resize(total);
  } else {
    response.class_posteriors.resize(total * k);
  }
  response.hard_labels.resize(total);
  if (degraded) {
    response.is_partial = true;
    response.covered.assign((total + 63) / 64, 0);
  }
  size_t num_lfs = config_.num_lfs;
  std::vector<std::tuple<size_t, size_t, Label>> vote_triplets;
  for (const SubBatch& batch : batches) {
    const std::vector<size_t>& to_request = *batch.to_request;
    // Attempt chains surface even on COMPLETE responses: a caller can see
    // that replication saved a sub-batch without opting into partial data.
    // Batches arrive in shard order, so the report order is deterministic.
    if (degraded || any_failover) {
      ShardOutcome outcome{batch.shard, to_request.size(), StatusCode::kOk,
                           "", batch.attempts};
      if (!batch.result.ok()) {
        outcome.code = batch.result.status().code();
        outcome.message = batch.result.status().message();
      }
      response.shard_outcomes.push_back(std::move(outcome));
    }
    if (!batch.result.ok()) continue;
    const LabelResponse& shard_response = *batch.result;
    for (size_t t = 0; t < to_request.size(); ++t) {
      const size_t row = to_request[t];
      if (degraded) response.covered[row / 64] |= uint64_t{1} << (row % 64);
      response.hard_labels[row] = shard_response.hard_labels[t];
      if (cardinality == 2) {
        response.posteriors[row] = shard_response.posteriors[t];
      } else {
        std::copy(shard_response.class_posteriors.begin() + t * k,
                  shard_response.class_posteriors.begin() + (t + 1) * k,
                  response.class_posteriors.begin() + row * k);
      }
    }
    if (request.include_votes) {
      num_lfs = std::max(num_lfs, shard_response.votes.num_lfs());
      for (size_t t = 0; t < to_request.size(); ++t) {
        for (const auto& entry : shard_response.votes.row(t)) {
          vote_triplets.emplace_back(to_request[t], entry.lf, entry.label);
        }
      }
    }
  }
  if (request.include_votes) {
    auto votes =
        LabelMatrix::FromTriplets(total, num_lfs, vote_triplets, cardinality);
    if (!votes.ok()) {
      // Unreachable from well-formed shard matrices; surface, don't hide.
      return Status::Internal("vote reassembly failed: " +
                              votes.status().message());
    }
    response.votes = std::move(*votes);
  }
  return response;
}

}  // namespace snorkel
