#ifndef SNORKEL_SHARD_WORKER_CORE_H_
#define SNORKEL_SHARD_WORKER_CORE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/label_service.h"
#include "util/bounded_queue.h"
#include "util/status.h"

namespace snorkel {

/// Completion latch shared by all of one caller's jobs: each worker writes
/// its job's result slot and counts down; the caller sleeps until every
/// admitted job has reported — one wakeup per request and no per-job
/// promise/future allocations.
class RequestLatch {
 public:
  /// One more job in flight; armed BEFORE the push, since a worker can
  /// complete the job before the push even returns.
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    ++remaining_;
  }

  /// A job finished, or its push was not admitted.
  void Complete() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_one();
  }

  /// Returns once every armed job has completed (at once if none is armed).
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_ = 0;
};

/// One unit of queued work. The caller owns the job and everything it
/// points at (corpus, rows, cancel token, result slot, latch) and keeps
/// them alive until its latch releases: the queue holds only the job's
/// address.
struct WorkerJob {
  /// What to serve: corpus, candidate_refs, include_votes,
  /// apply_class_balance and cancel are read; allow_partial is ignored.
  /// An expired cancel token fails the job kDeadlineExceeded when it is
  /// popped, without serving it; a live one rides into the serve call.
  LabelRequest request;
  /// Admission price (the callers use rows × LFs) and priority lane.
  uint64_t cost = 0;
  bool interactive = true;
  /// Trace identity carried across the queue hop (zero when untraced).
  obs::TraceContext trace;
  /// Where the worker writes the result, and the latch it then releases.
  Result<LabelResponse>* slot = nullptr;
  RequestLatch* latch = nullptr;
  /// Admission instant (obs::NowNanos), set by Submit.
  uint64_t admit_ns = 0;
};

/// The admission queue and worker threads behind both serving tiers: each
/// ShardRouter shard and each ShardServer runs one.
///
///   Submit ── BoundedQueue (count capacity, cost budget, two lanes,
///   │         interactive displaces bulk; displaced jobs fail typed)
///   workers: pop (CoDel-shed jobs fail typed, expired tokens fail
///            kDeadlineExceeded) → coalesce the queued burst up to
///            max_fuse → fuse compatible jobs into one model pass → serve
///            → calibrate the queue's cost model → release the latches
///
/// Jobs fuse only when they share corpus, apply_class_balance and cancel
/// token, so one request's expiry cannot cancel another's rows. Fusion
/// cannot change a row's bits (every per-row kernel is content-pure). If a
/// fused pass fails, each of its jobs is served again on its own, so one
/// poisoned job cannot fail the jobs it was fused with.
///
/// Shed jobs fail kResourceExhausted; nothing admitted is ever dropped.
/// Shutdown() refuses new jobs, drains every admitted one, and joins.
class WorkerCore {
 public:
  using PushResult = BoundedQueue<WorkerJob*>::PushResult;
  /// Serves one (possibly fused) model pass.
  using ServeFn = std::function<Result<LabelResponse>(const LabelRequest&)>;

  struct Config {
    BoundedQueueOptions queue;
    /// Worker threads; clamped to >= 1.
    size_t workers = 1;
    /// Max queued jobs a worker pops into one run; 1 disables fusion.
    size_t max_fuse = 1;
    /// Trace span names: the retroactive wait from admission to pop, and
    /// the model pass (annotated rows=N, plus fused=K for a fused pass).
    const char* queue_wait_span = "";
    const char* serve_span = "";
    ServeFn serve;
    /// Caller-owned instruments the core updates (null = not recorded):
    /// jobs served inside another job's pass, shed jobs, jobs failed at pop
    /// on an expired token, and queue wait per lane (0 = interactive).
    std::shared_ptr<obs::Counter> fused_jobs = nullptr;
    std::shared_ptr<obs::Counter> shed_jobs = nullptr;
    std::shared_ptr<obs::Counter> expired_jobs = nullptr;
    std::shared_ptr<obs::Histogram> queue_wait_ms[2] = {};
  };

  /// Starts the workers; the destructor runs Shutdown().
  explicit WorkerCore(Config config);
  ~WorkerCore();

  /// Arms the job's latch and queues it. `block` waits for space;
  /// otherwise a job that does not fit is rejected kQueueFull, unless it is
  /// interactive and displacing queued bulk jobs makes room (those fail
  /// typed). On anything but kOk the job was not admitted and its latch is
  /// as it was.
  PushResult Submit(WorkerJob* job, bool block);

  /// Refuses new jobs, drains every admitted one, joins the workers.
  /// Idempotent.
  void Shutdown();

  /// Jobs queued now (a gauge, stale by the time it is read).
  size_t depth() const { return queue_.size(); }
  size_t capacity() const { return queue_.capacity(); }
  uint64_t cost_used() const { return queue_.cost_used(); }
  /// Backoff hint for a rejected caller: the queued cost priced at the
  /// calibrated service time, divided by the worker count.
  uint64_t RetryAfterMs() const {
    return queue_.EstimateRetryAfterMs(workers_.size());
  }

 private:
  void WorkerLoop();
  /// The pop step: records the wait, fails an expired job, keeps the rest.
  void Take(WorkerJob* job, std::vector<WorkerJob*>& run);
  void ServeGroup(WorkerJob* const* jobs, size_t n);
  Result<LabelResponse> Pass(const LabelRequest& request,
                             const obs::TraceContext& trace, uint64_t cost,
                             size_t fused);
  void FailShed(std::vector<WorkerJob*>& shed);

  Config config_;
  BoundedQueue<WorkerJob*> queue_;
  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;
};

}  // namespace snorkel

#endif  // SNORKEL_SHARD_WORKER_CORE_H_
