#include "net/remote_router.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/placement.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/routing_core.h"
#include "util/cancellation.h"
#include "util/fault.h"

namespace snorkel {

namespace {

/// May the NEXT replica be tried after this typed failure?
///  - kUnavailable: unreachable / broke mid-exchange / breaker fail-fast.
///    Labeling is read-only and idempotent, so even a mid-exchange break
///    (work possibly dispatched) is safe to retry elsewhere.
///  - kResourceExhausted: backpressure on that replica; another replica
///    has its own queue.
///  - kDeadlineExceeded: only when the overall budget still has time —
///    retrying a spent deadline is dead work.
/// Anything else (kInvalidArgument, a server-side model error, ...) is
/// deterministic: every replica serves the same snapshot and would fail
/// identically, so failover would only mask the real error.
bool RetrySafe(StatusCode code, SocketDeadline overall_deadline) {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
      return true;
    case StatusCode::kDeadlineExceeded:
      return overall_deadline == kNoDeadline ||
             std::chrono::steady_clock::now() < overall_deadline;
    default:
      return false;
  }
}

}  // namespace

struct RemoteShardRouter::Impl {
  Options options;
  /// Validation, partitioning, failure policy, merge and request counters.
  RoutingCore core;
  ShardPlacement placement;
  RetryBudget budget;
  std::vector<RemoteShardClient> clients;

  std::shared_ptr<obs::Counter> failovers;
  std::shared_ptr<obs::Counter> breaker_open_rejections;
  /// End-to-end Label() latency; lock-free Observe on the request path.
  std::shared_ptr<obs::Histogram> latency_hist;
  uint64_t budget_token = 0;

  Impl(Options opts, size_t num_shards)
      : options(std::move(opts)),
        core(RoutingCore::Config{
            num_shards, /*cardinality=*/2, /*num_lfs=*/0,
            "snorkel_remote_router_requests_total",
            "snorkel_remote_router_candidates_total",
            "snorkel_remote_router_failed_requests_total",
            "snorkel_remote_router_degraded_requests_total",
            /*rejected_metric=*/nullptr, "router.placement"}),
        placement(num_shards, options.replication),
        budget(options.retry_budget) {
    obs::RegisterCommonProcessMetrics();
    auto& registry = obs::MetricsRegistry::Default();
    latency_hist = registry.CreateHistogram("snorkel_remote_router_latency_ms",
                                            obs::LatencyBucketsMs());
    failovers =
        registry.CreateCounter("snorkel_remote_router_failovers_total");
    breaker_open_rejections = registry.CreateCounter(
        "snorkel_remote_router_breaker_open_rejections_total");
    budget_token = registry.RegisterCallback(
        "snorkel_remote_router_retry_budget_exhausted_total",
        obs::MetricType::kCounter,
        [this] { return static_cast<double>(budget.exhausted()); });
  }

  ~Impl() {
    // UnregisterCallback is a barrier: after it returns the callback cannot
    // be mid-run, so the `this` it captures is safe to destroy.
    obs::MetricsRegistry::Default().UnregisterCallback(budget_token);
  }

  /// The remote backend: one failover chain per sub-batch, concurrently.
  /// Each sub-batch is written by exactly one thread, then joined before
  /// the core reads it.
  Status FanOut(const LabelRequest& request, std::vector<SubBatch>& batches) {
    // Budget refill: one deposit per router request, however many shards
    // it fans out to (amplification is bounded relative to offered load).
    budget.OnRequest();
    // Fan-out threads inherit the request's identity with the root span as
    // parent, so each attempt chain nests under router.request.
    const obs::TraceContext fan_ctx = obs::CurrentTraceContext();
    std::vector<std::thread> rpcs;
    rpcs.reserve(batches.size());
    for (SubBatch& batch : batches) {
      rpcs.emplace_back([this, &request, &batch, fan_ctx] {
        obs::ScopedTraceContext rpc_scope(fan_ctx);
        ServeWithFailover(request, batch);
        obs::FlushThreadSpans();
      });
    }
    for (std::thread& rpc : rpcs) rpc.join();
    return Status::OK();
  }

  /// Walks `batch`'s replica preference list until an attempt succeeds or
  /// a failure is not retry-safe, recording the attempt chain.
  void ServeWithFailover(const LabelRequest& request, SubBatch& batch) {
    const std::vector<uint32_t>& prefs = placement.Preferences(batch.shard);
    SocketDeadline overall = options.request_timeout_ms > 0
                                 ? DeadlineAfterMs(options.request_timeout_ms)
                                 : kNoDeadline;
    // The request's token caps the overall budget; its deadline crosses
    // the wire with every attempt. A manual Cancel() does not.
    if (request.cancel != nullptr) {
      overall = std::min(overall, request.cancel->deadline());
    }
    // Did the previous attempt actually dispatch work? A breaker fail-fast
    // did not — failing over from it is free (no budget, no backoff), so a
    // steady outage of <= R-1 replicas costs nothing once the breakers
    // open.
    bool prev_dispatched = false;
    uint64_t prev_retry_after_ms = 0;
    for (size_t attempt = 0; attempt < prefs.size(); ++attempt) {
      if (attempt > 0 && prev_dispatched) {
        if (!budget.TryConsume()) {
          const Status& last = batch.result.status();
          batch.result =
              Status(last.code(), last.message() + " [retry budget exhausted]");
          break;
        }
        uint64_t delay = BackoffDelayMs(options.backoff, batch.shard,
                                        static_cast<uint32_t>(attempt));
        // An overloaded replica's retry_after hint floors the backoff:
        // under fleet-wide overload the next replica is unlikely to be
        // better off, and honoring the hint is what keeps a retrying router
        // from amplifying the surge it was just shed from.
        delay = std::max(delay, prev_retry_after_ms);
        if (overall != kNoDeadline) {
          delay = std::min(delay, RemainingMs(overall));
        }
        if (delay > 0) {
          obs::TraceSpan backoff_span("router.backoff");
          backoff_span.Annotate("shard=" + std::to_string(batch.shard) +
                                " delay_ms=" + std::to_string(delay));
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
      }
      uint64_t attempt_budget_ms = options.request_timeout_ms;
      if (overall != kNoDeadline) {
        attempt_budget_ms = RemainingMs(overall);
        if (attempt_budget_ms == 0) {
          batch.result = Status::DeadlineExceeded(
              "request budget spent before replica " +
              std::to_string(prefs[attempt]) + " could be tried");
          break;
        }
      }
      const size_t endpoint = prefs[attempt];
      bool failed_fast = false;
      uint64_t retry_after_ms = 0;
      {
        obs::TraceSpan attempt_span("router.attempt");
        batch.result = clients[endpoint].Label(
            *request.corpus, *batch.rows, request.include_votes,
            request.apply_class_balance, attempt_budget_ms, &failed_fast,
            &retry_after_ms);
        attempt_span.Annotate(
            "shard=" + std::to_string(batch.shard) +
            " endpoint=" + std::to_string(endpoint) + " status=" +
            (batch.result.ok()
                 ? std::string("ok")
                 : std::to_string(
                       static_cast<int>(batch.result.status().code()))));
      }
      batch.attempts.push_back(ShardAttempt{
          endpoint,
          batch.result.ok() ? StatusCode::kOk : batch.result.status().code(),
          batch.result.ok() ? std::string() : batch.result.status().message()});
      if (batch.result.ok()) {
        if (attempt > 0) failovers->Increment();
        return;
      }
      if (failed_fast) breaker_open_rejections->Increment();
      prev_dispatched = !failed_fast;
      prev_retry_after_ms = retry_after_ms;
      if (!RetrySafe(batch.result.status().code(), overall)) return;
    }
  }
};

RemoteShardRouter::RemoteShardRouter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

RemoteShardRouter::~RemoteShardRouter() = default;

size_t RemoteShardRouter::num_shards() const { return impl_->clients.size(); }

RemoteShardClient& RemoteShardRouter::shard(size_t i) {
  return impl_->clients[i];
}

Result<RemoteShardRouter> RemoteShardRouter::Create(
    const std::vector<std::pair<std::string, uint16_t>>& endpoints,
    Options options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument(
        "RemoteShardRouter needs at least one endpoint");
  }
  auto impl = std::make_unique<Impl>(options, endpoints.size());
  impl->clients.reserve(endpoints.size());
  for (const auto& [host, port] : endpoints) {
    RemoteShardClient::Options client_options = options.client;
    client_options.host = host;
    client_options.port = port;
    impl->clients.push_back(
        RemoteShardClient::Create(std::move(client_options)));
  }
  return RemoteShardRouter(std::move(impl));
}

Result<LabelResponse> RemoteShardRouter::Label(const LabelRequest& request) {
  Impl& impl = *impl_;
  // Mint this request's trace identity (tracing on only): the root span
  // every downstream stage — placement, attempts, client I/O, and the
  // server-side spans shipped back over TRAC — hangs under.
  obs::TraceContext minted;
  if (obs::TracingEnabled()) minted.trace_id = obs::MintId();
  obs::ScopedTraceContext trace_scope(minted);
  obs::TraceSpan root_span("router.request");

  auto response = impl.core.Route(
      request, [&impl](const LabelRequest& r, std::vector<SubBatch>& batches) {
        return impl.FanOut(r, batches);
      });
  if (!response.ok()) return response;
  impl.latency_hist->Observe(response->latency_ms);
  root_span.Annotate("rows=" + std::to_string(response->hard_labels.size()) +
                     (response->is_partial ? " degraded=1" : ""));
  return response;
}

RemoteRouterStats RemoteShardRouter::stats() const {
  const Impl& impl = *impl_;
  RemoteRouterStats out;
  out.num_requests = impl.core.num_requests();
  out.num_candidates = impl.core.num_candidates();
  out.failed_requests = impl.core.failed_requests();
  out.degraded_requests = impl.core.degraded_requests();
  out.failovers = impl.failovers->value();
  out.retry_budget_exhausted = impl.budget.exhausted();
  out.breaker_open_rejections = impl.breaker_open_rejections->value();
  out.faults_injected = fault::InjectedCount();
  out.latency = impl.latency_hist->Snapshot();
  for (const RemoteShardClient& client : impl.clients) {
    out.per_shard.push_back(client.stats());
  }
  return out;
}

}  // namespace snorkel
