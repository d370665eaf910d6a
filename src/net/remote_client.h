#ifndef SNORKEL_NET_REMOTE_CLIENT_H_
#define SNORKEL_NET_REMOTE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/candidate.h"
#include "data/context.h"
#include "lf/applier.h"
#include "net/wire.h"
#include "serve/label_service.h"
#include "util/status.h"

namespace snorkel {

/// Client stub for one remote ShardServer: connection pooling, per-call
/// deadlines, and health tracking with fail-fast. A label call is ONE
/// attempt, run on the caller's thread; retrying elsewhere is the failover
/// router's job (net/remote_router.h), not the stub's.
///
///  - POOLING: completed exchanges return their connection for reuse
///    (bounded pool); transport failures close it. A typed error FRAME
///    (e.g. kResourceExhausted backpressure) is a healthy exchange — the
///    server answered — so the connection is still pooled. A pooled
///    connection that went stale is resent on a fresh one, once, before any
///    reply byte is read.
///  - HEALTH: a per-endpoint circuit breaker (net/health.h).
///    `unhealthy_threshold` consecutive TRANSPORT failures open the breaker;
///    for a JITTERED cooldown (`unhealthy_cooldown_ms` scaled by up to
///    1 + unhealthy_cooldown_jitter, drawn from a per-endpoint seeded
///    stream so a fleet of clients never probes a recovering shard in
///    lockstep) every call fails fast with kUnavailable (no connect storm
///    against a dead shard), after which a single half-open probe either
///    revives the endpoint or re-arms the cooldown. A probe that never
///    reaches the wire (limiter timeout, budget spent) counts as failed.
///
/// Thread-safe; calls from any thread.
class RemoteShardClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    uint64_t connect_timeout_ms = 1000;
    /// Default per-call budget when the call passes deadline_ms = 0;
    /// 0 here too = wait forever.
    uint64_t request_timeout_ms = 0;
    /// Max idle pooled connections (clamped to >= 1).
    size_t max_pooled_connections = 4;
    /// Consecutive transport failures before fail-fast kicks in (clamped
    /// to >= 1).
    size_t unhealthy_threshold = 3;
    uint64_t unhealthy_cooldown_ms = 1000;
    /// Each cooldown is scaled by a factor drawn from
    /// [1, 1 + unhealthy_cooldown_jitter] (0 = fixed cooldown).
    double unhealthy_cooldown_jitter = 0.5;
    /// Seed for the cooldown jitter stream; 0 derives a per-endpoint seed
    /// from host:port so distinct endpoints never probe in lockstep.
    uint64_t health_seed = 0;
    /// AIMD in-flight limit (net/health.h AdaptiveLimiter): label calls
    /// acquire a slot before dispatching; the limit grows additively on
    /// success and shrinks multiplicatively on server overload signals
    /// (kResourceExhausted / kDeadlineExceeded), and a server-supplied
    /// retry_after_ms hint gates new acquisitions. A call that cannot get
    /// a slot before its deadline fails kResourceExhausted locally WITHOUT
    /// touching the wire (reported via `failed_fast` — a free failover).
    bool enable_adaptive_limit = true;
    double adaptive_initial_limit = 8.0;
    double adaptive_min_limit = 1.0;
    double adaptive_max_limit = 128.0;
    /// Multiplicative shrink factor per overload signal (0 < f < 1).
    double adaptive_decrease = 0.7;
  };

  struct Stats {
    uint64_t requests = 0;
    /// Calls whose final outcome was a transport failure or deadline.
    uint64_t failures = 0;
    /// Always 0: the stub makes one attempt per call. Kept only because
    /// the benchmark still reads it; to be deleted with that read.
    uint64_t hedged_attempts = 0;
    /// Calls failed immediately because the endpoint was in cooldown.
    uint64_t fail_fast = 0;
    /// Exchanges that reused a pooled connection.
    uint64_t pooled_reuses = 0;
    /// True while the breaker is closed.
    bool healthy = true;
    /// Current AIMD in-flight limit (adaptive_initial_limit when disabled).
    double adaptive_limit = 0.0;
    /// Label calls rejected locally because no in-flight slot freed up
    /// before their deadline.
    uint64_t limited_rejections = 0;
  };

  /// Builds a client stub (no I/O yet — connections are made per call and
  /// pooled; an unreachable server surfaces on the first call, or use
  /// Ping()).
  static RemoteShardClient Create(Options options);

  RemoteShardClient(RemoteShardClient&&) noexcept;
  RemoteShardClient& operator=(RemoteShardClient&&) noexcept;
  ~RemoteShardClient();

  /// Labels `rows` (borrowed refs into the caller's candidates, original
  /// LF-visible indices preserved) against the remote shard. `deadline_ms`
  /// 0 = Options::request_timeout_ms. Typed failures: kUnavailable
  /// (unreachable / broke mid-exchange / cooldown), kDeadlineExceeded,
  /// kResourceExhausted (server backpressure), or any status the server
  /// itself returned. When `failed_fast` is non-null it reports whether
  /// the call was rejected LOCALLY without dispatching any work — by the
  /// open breaker, or by the adaptive in-flight limit — the failover
  /// router uses this to fail over for free (a fail-fast does not spend
  /// retry budget; nothing was attempted). When `retry_after_ms` is
  /// non-null it receives the server's backoff hint from a rejection's
  /// error frame (0 = none); the hint also feeds the adaptive limiter,
  /// which stalls new acquisitions until it passes.
  ///
  /// The remaining deadline budget is computed immediately before the
  /// request is framed, so time burned client-side — limiter waits and
  /// encoding — is subtracted from the deadline_ms the server sees.
  Result<LabelResponse> Label(const Corpus& corpus,
                              const std::vector<CandidateRef>& rows,
                              bool include_votes, bool apply_class_balance,
                              uint64_t deadline_ms = 0,
                              bool* failed_fast = nullptr,
                              uint64_t* retry_after_ms = nullptr);

  /// Round-trips a ping frame.
  Status Ping(uint64_t deadline_ms = 0);

  /// Fetches the server's wire stats (snapshot version/checksum — the
  /// rollout observability hook).
  Result<WireServerStats> GetStats(uint64_t deadline_ms = 0);

  /// Sends a fault-injection command (util/fault.h schedules) to the
  /// server process — the chaos harness's remote control surface.
  Status ConfigureFaults(const WireFaultCommand& command,
                         uint64_t deadline_ms = 0);

  /// Scrapes the server's MetricsRegistry as Prometheus text
  /// (kMetricsRequest; tools/metrics_scrape). An old server answers
  /// kError/kInvalidArgument — callers must tolerate that.
  Result<std::string> GetMetrics(uint64_t deadline_ms = 0);

  /// Drains (or, with request.drain = false, peeks at) the server's trace
  /// span ring, optionally filtered to one trace id (kTraceRequest;
  /// tools/trace_dump stitches the returned batches across processes).
  Result<obs::SpanBatch> GetTraceSpans(const WireTraceRequest& request,
                                       uint64_t deadline_ms = 0);

  Stats stats() const;

  const Options& options() const;

 private:
  struct Impl;
  explicit RemoteShardClient(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace snorkel

#endif  // SNORKEL_NET_REMOTE_CLIENT_H_
