#include "net/remote_client.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "net/health.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "util/hash.h"

namespace snorkel {

struct RemoteShardClient::Impl {
  Options options;

  std::mutex pool_mu;
  std::vector<Socket> pool;

  /// Per-endpoint breaker (net/health.h): consecutive transport failures
  /// open it, a jittered cooldown + single half-open probe close it.
  CircuitBreaker breaker;

  /// Per-endpoint AIMD in-flight limit: label calls hold a slot for their
  /// duration; the limit tracks the shard's observed capacity. The breaker
  /// is consulted FIRST (a dead endpoint fails fast without burning a
  /// slot-wait), then the limiter.
  AdaptiveLimiter limiter;

  std::atomic<uint64_t> next_request_id{1};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> fail_fast{0};
  std::atomic<uint64_t> pooled_reuses{0};
  std::atomic<uint64_t> limited_rejections{0};

  static CircuitBreaker::Options BreakerOptions(const Options& options) {
    CircuitBreaker::Options breaker;
    breaker.failure_threshold =
        options.unhealthy_threshold == 0 ? 1 : options.unhealthy_threshold;
    breaker.cooldown_ms = options.unhealthy_cooldown_ms;
    breaker.cooldown_jitter = options.unhealthy_cooldown_jitter;
    // Default seed is per-endpoint: clients of different shards (and
    // different fleets) draw decorrelated cooldowns.
    breaker.seed = options.health_seed != 0
                       ? options.health_seed
                       : HashCombine(Fnv1a64(options.host), options.port);
    return breaker;
  }

  static AdaptiveLimiter::Options LimiterOptions(const Options& options) {
    AdaptiveLimiter::Options limiter;
    limiter.initial_limit = options.adaptive_initial_limit;
    limiter.min_limit = options.adaptive_min_limit;
    limiter.max_limit = options.adaptive_max_limit;
    limiter.decrease_factor = options.adaptive_decrease;
    return limiter;
  }

  explicit Impl(Options opts)
      : options(std::move(opts)),
        breaker(BreakerOptions(options)),
        limiter(LimiterOptions(options)) {
    if (options.max_pooled_connections == 0) {
      options.max_pooled_connections = 1;
    }
    if (options.unhealthy_threshold == 0) options.unhealthy_threshold = 1;
  }

  // ---- Pool. ----

  Result<Socket> AcquireConnection(SocketDeadline deadline) {
    {
      std::lock_guard<std::mutex> lock(pool_mu);
      if (!pool.empty()) {
        Socket socket = std::move(pool.back());
        pool.pop_back();
        pooled_reuses.fetch_add(1, std::memory_order_relaxed);
        return socket;
      }
    }
    SocketDeadline connect_deadline = deadline;
    if (options.connect_timeout_ms > 0) {
      SocketDeadline bound = DeadlineAfterMs(options.connect_timeout_ms);
      if (bound < connect_deadline) connect_deadline = bound;
    }
    return Socket::Connect(options.host, options.port, connect_deadline);
  }

  void ReleaseConnection(Socket socket) {
    std::lock_guard<std::mutex> lock(pool_mu);
    if (pool.size() < options.max_pooled_connections) {
      pool.push_back(std::move(socket));
    }
    // Else: dropped — Socket's destructor closes it.
  }

  // ---- Health. ----

  void RecordOutcome(bool transport_ok) {
    if (transport_ok) {
      breaker.RecordSuccess();
    } else {
      breaker.RecordFailure();
    }
  }

  /// Every label exit that never reaches the wire passes through here. A
  /// call admitted as the breaker's single half-open probe must report the
  /// probe failed, or the breaker waits forever on a probe that will never
  /// answer and the endpoint fails fast for good.
  Status NotSent(CircuitBreaker::Admission admission, Status status) {
    if (admission == CircuitBreaker::Admission::kProbe) {
      breaker.RecordFailure();
    }
    return status;
  }

  // ---- One exchange on one socket. ----

  /// Sends `frame_bytes`, receives the reply, verifies correlation, decodes.
  /// `transport_ok` reports whether the CONNECTION behaved (a typed error
  /// frame is transport_ok = true); used for pooling and health.
  Result<Frame> Exchange(const std::string& frame_bytes, uint64_t request_id,
                         SocketDeadline deadline, bool* transport_ok) {
    *transport_ok = false;
    auto socket = AcquireConnection(deadline);
    if (!socket.ok()) return socket.status();
    {
      obs::TraceSpan send_span("client.send");
      send_span.Annotate("bytes=" + std::to_string(frame_bytes.size()));
      Status sent = socket->SendAll(frame_bytes, deadline);
      if (!sent.ok()) {
        // A pooled connection can go stale (server dropped it between
        // requests); retry ONCE on a fresh connection. Only the send — once
        // bytes of a reply are in flight a retry could double-serve.
        auto fresh = Socket::Connect(options.host, options.port, deadline);
        if (!fresh.ok()) return fresh.status();
        socket = std::move(fresh);
        sent = socket->SendAll(frame_bytes, deadline);
        if (!sent.ok()) return sent;
      }
    }
    Result<Frame> reply(Status::Internal("unset"));
    {
      obs::TraceSpan recv_span("client.recv");
      reply = RecvFrame(*socket, deadline);
    }
    if (!reply.ok()) return reply.status();
    if (reply->request_id != request_id) {
      // Stream desync (a previous caller abandoned a reply?) — this
      // connection can't be trusted; drop it.
      return Status::Unavailable("response correlation mismatch");
    }
    *transport_ok = true;
    ReleaseConnection(std::move(*socket));
    return reply;
  }

  uint64_t NextRequestId() {
    return next_request_id.fetch_add(1, std::memory_order_relaxed);
  }

  /// One control-plane exchange (ping, stats, faults, metrics, traces):
  /// sends `request`, records the transport outcome with the breaker, and
  /// turns an error frame into its typed status. `deadline_ms` 0 =
  /// Options::request_timeout_ms.
  Result<Frame> Call(const Frame& request, uint64_t deadline_ms) {
    if (deadline_ms == 0) deadline_ms = options.request_timeout_ms;
    bool transport_ok = false;
    auto reply = Exchange(EncodeFrame(request), request.request_id,
                          DeadlineAfterMs(deadline_ms), &transport_ok);
    RecordOutcome(transport_ok);
    if (!reply.ok()) return reply.status();
    if (reply->type == FrameType::kError) return DecodeErrorFrame(*reply);
    return reply;
  }

  /// One full label attempt over framed request bytes. `retry_after_ms`
  /// receives the server's backoff hint when the reply is a rejection
  /// error frame (0 otherwise).
  Result<LabelResponse> LabelAttempt(const std::string& frame_bytes,
                                     uint64_t request_id,
                                     SocketDeadline deadline,
                                     uint64_t* retry_after_ms) {
    *retry_after_ms = 0;
    bool transport_ok = false;
    auto reply = Exchange(frame_bytes, request_id, deadline, &transport_ok);
    RecordOutcome(transport_ok);
    if (!reply.ok()) return reply.status();
    if (reply->type == FrameType::kError) {
      return DecodeErrorFrame(*reply, retry_after_ms);
    }
    obs::TraceSpan decode_span("client.decode");
    return DecodeLabelResponse(*reply);
  }
};

RemoteShardClient::RemoteShardClient(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

RemoteShardClient::RemoteShardClient(RemoteShardClient&&) noexcept = default;
RemoteShardClient& RemoteShardClient::operator=(RemoteShardClient&&) noexcept =
    default;
RemoteShardClient::~RemoteShardClient() = default;

RemoteShardClient RemoteShardClient::Create(Options options) {
  return RemoteShardClient(std::make_unique<Impl>(std::move(options)));
}

const RemoteShardClient::Options& RemoteShardClient::options() const {
  return impl_->options;
}

Result<LabelResponse> RemoteShardClient::Label(
    const Corpus& corpus, const std::vector<CandidateRef>& rows,
    bool include_votes, bool apply_class_balance, uint64_t deadline_ms,
    bool* failed_fast, uint64_t* retry_after_ms) {
  Impl& impl = *impl_;
  if (failed_fast != nullptr) *failed_fast = false;
  if (retry_after_ms != nullptr) *retry_after_ms = 0;
  impl.requests.fetch_add(1, std::memory_order_relaxed);
  const CircuitBreaker::Admission admission = impl.breaker.Admit();
  if (admission == CircuitBreaker::Admission::kReject) {
    // Open breaker: fail fast with NO work dispatched — the router's
    // failover treats this as a free redirect.
    impl.fail_fast.fetch_add(1, std::memory_order_relaxed);
    impl.failures.fetch_add(1, std::memory_order_relaxed);
    if (failed_fast != nullptr) *failed_fast = true;
    return Status::Unavailable(
        impl.options.host + ":" + std::to_string(impl.options.port) +
        " is marked unhealthy (failing fast during cooldown)");
  }
  if (deadline_ms == 0) deadline_ms = impl.options.request_timeout_ms;
  SocketDeadline deadline = DeadlineAfterMs(deadline_ms);

  // AIMD admission AFTER the breaker (a dead endpoint fails fast without a
  // slot-wait) and BEFORE any encoding or I/O. Failing to get a slot before
  // the deadline is a LOCAL rejection — no work was dispatched, so the
  // router fails over for free (failed_fast), same as an open breaker.
  const bool limited = impl.options.enable_adaptive_limit;
  if (limited && !impl.limiter.Acquire(deadline)) {
    impl.limited_rejections.fetch_add(1, std::memory_order_relaxed);
    impl.failures.fetch_add(1, std::memory_order_relaxed);
    if (failed_fast != nullptr) *failed_fast = true;
    return impl.NotSent(
        admission,
        Status::ResourceExhausted(
            impl.options.host + ":" + std::to_string(impl.options.port) +
            " adaptive concurrency limit reached before the request deadline"));
  }

  // Encode the corpus slice and candidate rows (the expensive,
  // deadline-independent bytes), THEN frame them with the budget left now:
  // limiter waits and encoding are subtracted from the deadline_ms the
  // server sees.
  EncodedLabelBatch batch = EncodeLabelBatch(corpus, rows);
  uint64_t hint = 0;
  Result<LabelResponse> result(Status::Internal("unset"));
  if (deadline != kNoDeadline &&
      std::chrono::steady_clock::now() >= deadline) {
    // RemainingMs would encode 0 — which means "no deadline" on the wire —
    // so fail here instead of asking the server for unbounded patience.
    result = impl.NotSent(admission,
                          Status::DeadlineExceeded(
                              "request budget spent before the attempt was "
                              "sent"));
  } else {
    // The frame's TRAC section carries the caller's trace identity, so the
    // server's spans hang under it.
    const uint64_t request_id = impl.NextRequestId();
    result = impl.LabelAttempt(
        EncodeFrame(EncodeLabelRequestFromBatch(
            request_id, batch, include_votes, apply_class_balance,
            RemainingMs(deadline), obs::CurrentTraceContext())),
        request_id, deadline, &hint);
  }
  if (retry_after_ms != nullptr) *retry_after_ms = hint;
  if (limited) {
    // Teach the limiter the outcome: overload signals shrink it (and a
    // retry-after hint gates new acquisitions); success grows it; anything
    // else says nothing about the shard's load.
    if (result.ok()) {
      impl.limiter.ReleaseSuccess();
    } else if (result.status().code() == StatusCode::kResourceExhausted ||
               result.status().code() == StatusCode::kDeadlineExceeded) {
      impl.limiter.ReleaseOverload(hint);
    } else {
      impl.limiter.ReleaseNeutral();
    }
  }
  if (!result.ok() && (result.status().code() == StatusCode::kUnavailable ||
                       result.status().code() ==
                           StatusCode::kDeadlineExceeded)) {
    impl.failures.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

Status RemoteShardClient::Ping(uint64_t deadline_ms) {
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = impl_->NextRequestId();
  auto reply = impl_->Call(ping, deadline_ms);
  if (!reply.ok()) return reply.status();
  if (reply->type != FrameType::kPong) {
    return Status::IOError("ping answered by a non-pong frame");
  }
  return Status::OK();
}

Status RemoteShardClient::ConfigureFaults(const WireFaultCommand& command,
                                          uint64_t deadline_ms) {
  auto reply = impl_->Call(
      EncodeFaultRequest(impl_->NextRequestId(), command), deadline_ms);
  if (!reply.ok()) return reply.status();
  if (reply->type != FrameType::kFaultResponse) {
    return Status::IOError("fault request answered by an unexpected frame");
  }
  return Status::OK();
}

Result<WireServerStats> RemoteShardClient::GetStats(uint64_t deadline_ms) {
  Frame request;
  request.type = FrameType::kStatsRequest;
  request.request_id = impl_->NextRequestId();
  auto reply = impl_->Call(request, deadline_ms);
  if (!reply.ok()) return reply.status();
  return DecodeStatsResponse(*reply);
}

Result<std::string> RemoteShardClient::GetMetrics(uint64_t deadline_ms) {
  auto reply = impl_->Call(EncodeMetricsRequest(impl_->NextRequestId()),
                           deadline_ms);
  if (!reply.ok()) return reply.status();
  return DecodeMetricsResponse(*reply);
}

Result<obs::SpanBatch> RemoteShardClient::GetTraceSpans(
    const WireTraceRequest& request, uint64_t deadline_ms) {
  auto reply = impl_->Call(
      EncodeTraceRequest(impl_->NextRequestId(), request), deadline_ms);
  if (!reply.ok()) return reply.status();
  return DecodeTraceResponse(*reply);
}

RemoteShardClient::Stats RemoteShardClient::stats() const {
  const Impl& impl = *impl_;
  Stats stats;
  stats.requests = impl.requests.load(std::memory_order_relaxed);
  stats.failures = impl.failures.load(std::memory_order_relaxed);
  stats.fail_fast = impl.fail_fast.load(std::memory_order_relaxed);
  stats.pooled_reuses = impl.pooled_reuses.load(std::memory_order_relaxed);
  stats.healthy = impl.breaker.state() == CircuitBreaker::State::kClosed;
  stats.adaptive_limit = impl.limiter.limit();
  stats.limited_rejections =
      impl.limited_rejections.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace snorkel
