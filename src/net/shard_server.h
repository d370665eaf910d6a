#ifndef SNORKEL_NET_SHARD_SERVER_H_
#define SNORKEL_NET_SHARD_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "lf/labeling_function.h"
#include "net/wire.h"
#include "serve/label_service.h"
#include "util/status.h"

namespace snorkel {

/// One serving process of the networked shard fabric: a LabelService replica
/// behind a listening TCP socket speaking the net/wire.h frame protocol.
///
///   accept loop ── per-connection handler threads
///        │            decode frame → worker core admission
///        │            (shard/worker_core.h, shared with ShardRouter)
///        │                 │ (full → kResourceExhausted error frame,
///        │                 │  closed → kUnavailable — typed backpressure,
///        │                 │  never an unbounded in-memory queue)
///        │            worker threads: pop job, run the CURRENT replica,
///        │            release the waiting handler
///        └─ snapshot watcher (store mode): polls the SnapshotStore and
///           hot-swaps the replica to a newer artifact version with zero
///           downtime — in-flight requests keep the OLD service (and its
///           mmap) alive through a shared_ptr until they drain, new requests
///           land on the new version, and not one request fails or blocks
///           on the transition. A candidate artifact that fails validation
///           (LabelService::Create) is rejected and the old version keeps
///           serving (rejected_swaps counts it).
///
/// Results over the wire are BITWISE-IDENTICAL to calling the wrapped
/// LabelService in-process: requests ship raw IEEE-754 bytes and the corpus
/// slice preserves original document indices, so not one bit of a posterior
/// can differ across the hop (the fabric-level extension of the repo's
/// sharding guarantee).
///
/// A request whose deadline_ms budget is already spent when a worker picks
/// it up fails kDeadlineExceeded without running the model (no dead work).
class ShardServer {
 public:
  struct Options {
    /// TCP port to bind on loopback; 0 = kernel-assigned (read port()).
    uint16_t port = 0;
    /// Bounded admission queue capacity (jobs); clamped to >= 1.
    size_t queue_capacity = 64;
    /// Cost-aware admission budget: jobs are priced rows × LFs and admitted
    /// only while the queued cost fits this budget (calibrated against wall
    /// clock by an EWMA of observed service time, which also prices the
    /// retry_after_ms hint rejections carry). 0 = count-only admission.
    uint64_t queue_cost_budget = 0;
    /// Lane split: requests with <= this many rows ride the interactive
    /// lane (served first, shed last); larger batches are bulk (shed first
    /// when an interactive arrival finds the queue full).
    size_t interactive_rows = 64;
    /// CoDel-style shed target: a BULK job popped after sojourning more
    /// than 2× this many ms is failed kResourceExhausted (with a hint)
    /// instead of served — its useful life already drained in the queue.
    /// 0 disables pop-time shedding.
    uint64_t sojourn_target_ms = 0;
    /// Label worker threads; clamped to >= 1.
    size_t num_workers = 1;
    /// Options for the wrapped LabelService replica.
    LabelService::Options service;
    /// Store mode: how often the watcher polls for a newer version.
    uint64_t watch_interval_ms = 100;
    /// Budget for writing one reply frame back to a client. A client that
    /// stops reading (dead peer, full socket buffer) gets its connection
    /// dropped after this long instead of pinning the handler thread — and
    /// with it Shutdown()'s drain — forever. 0 = no deadline.
    uint64_t send_deadline_ms = 30'000;
    /// Latency injection for tests and benches: every Nth label request
    /// (1-based, process-wide) sleeps `inject_delay_ms` before serving.
    /// 0 disables. Injected latency only — results stay bit-identical.
    /// Implemented as a thin wrapper over the util/fault.h fabric (arms
    /// site "server.label" with a delay-nth schedule); the same site — and
    /// the transport/admission sites — are also wire-configurable via
    /// kFaultRequest.
    uint64_t inject_delay_every_n = 0;
    uint64_t inject_delay_ms = 0;
  };

  /// Serves a single artifact file (no watcher; snapshot_version is the
  /// artifact's store version if its name encodes one, else 0).
  static Result<ShardServer> Serve(const std::string& snapshot_path,
                                   const LabelingFunctionSet& lfs,
                                   Options options);

  /// Serves the CURRENT version of a SnapshotStore directory and watches it
  /// for newer versions (NotFound when the store is empty).
  static Result<ShardServer> ServeFromStore(const std::string& store_dir,
                                            const LabelingFunctionSet& lfs,
                                            Options options);

  ShardServer(ShardServer&&) noexcept;
  ShardServer& operator=(ShardServer&&) noexcept;
  ~ShardServer();

  /// The bound port (resolved when Options::port was 0).
  uint16_t port() const;

  /// Server-side counters (also served over the wire via kStatsRequest).
  WireServerStats stats() const;

  /// Stops accepting, drains admitted jobs, joins every thread. Idempotent.
  void Shutdown();

 private:
  struct Impl;
  explicit ShardServer(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace snorkel

#endif  // SNORKEL_NET_SHARD_SERVER_H_
