#include "shard/shard_router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/routing_core.h"
#include "util/bounded_queue.h"

namespace snorkel {

namespace {

/// Completion latch shared by all of one request's shard jobs: each worker
/// writes its result slot and decrements; the caller sleeps until every
/// admitted job has reported. One latch per request instead of one
/// promise/future pair per shard job — a single caller wakeup and zero
/// shared-state heap allocations on the per-request hot path.
struct RequestLatch {
  std::mutex mu;
  std::condition_variable cv;
  /// Jobs armed but not yet completed. Armed BEFORE each push (a worker can
  /// complete a job before the push even returns) and un-armed if the push
  /// is rejected; workers decrement on completion, so the count stays
  /// consistent no matter how fan-out and completions interleave.
  size_t remaining = 0;

  void Arm() {
    std::lock_guard<std::mutex> lock(mu);
    ++remaining;
  }

  /// Reverts an Arm() whose push was not admitted.
  void Disarm() {
    std::lock_guard<std::mutex> lock(mu);
    --remaining;
  }

  void Complete() {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_one();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
};

/// One shard-bound unit of work: a borrowed, zero-copy ref sub-batch plus
/// the request flags it must be served under. EVERYTHING the job points at
/// (corpus, rows, cancel token, slot, latch) is owned by the caller's
/// Label() frame — which is why the router always waits for every admitted
/// job, even on a rejected or failed request, before returning.
struct ShardJob {
  const Corpus* corpus = nullptr;
  const std::vector<CandidateRef>* rows = nullptr;
  bool include_votes = false;
  bool apply_class_balance = true;
  /// The request's cancellation token, carried into the replica call.
  const CancelToken* cancel = nullptr;
  /// Where the worker writes this job's result (caller-owned, stable).
  Result<LabelResponse>* slot = nullptr;
  RequestLatch* latch = nullptr;
  /// Trace identity carried across the queue hop (zero when untraced) and
  /// the admission timestamp the worker turns into a queue-wait span.
  obs::TraceContext trace_ctx;
  uint64_t admit_ns = 0;

  void Finish(Result<LabelResponse> result) {
    *slot = std::move(result);
    latch->Complete();
  }
};

/// Jobs fuse only under the same token, so one request's expiry cannot
/// cancel another request's rows.
bool Fusable(const ShardJob& a, const ShardJob& b) {
  return a.corpus == b.corpus &&
         a.apply_class_balance == b.apply_class_balance &&
         a.cancel == b.cancel;
}


}  // namespace

struct ShardRouter::Impl {
  struct Shard {
    std::unique_ptr<LabelService> replica;
    std::unique_ptr<BoundedQueue<ShardJob>> queue;
    std::vector<std::thread> workers;
  };

  Options options;
  /// Validation, partitioning, failure policy, merge and request counters.
  RoutingCore core;
  std::vector<Shard> shards;
  std::atomic<bool> shutdown{false};
  std::once_flag shutdown_once;

  std::shared_ptr<obs::Counter> fused_jobs;
  /// High-water gauge, atomic so the admission hot path takes no lock.
  std::atomic<size_t> max_queue_depth{0};
  uint64_t queue_depth_token = 0;

  void RecordQueueDepth(size_t depth) {
    size_t seen = max_queue_depth.load(std::memory_order_relaxed);
    while (depth > seen && !max_queue_depth.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }

  /// Busy span of successful requests, for RouterStats::throughput_cps.
  mutable std::mutex span_mu;
  bool has_served = false;
  std::chrono::steady_clock::time_point first_request_start{};
  std::chrono::steady_clock::time_point last_request_done{};

  Impl(Options opts, int cardinality, size_t lf_count)
      : options(opts),
        core(RoutingCore::Config{opts.num_shards, cardinality, lf_count,
                                 "snorkel_router_requests_total",
                                 "snorkel_router_candidates_total",
                                 "snorkel_router_failed_total",
                                 "snorkel_router_degraded_total",
                                 "snorkel_router_rejected_total",
                                 /*placement_span=*/nullptr}) {
    auto& registry = obs::MetricsRegistry::Default();
    fused_jobs = registry.CreateCounter("snorkel_router_fused_jobs_total");
    queue_depth_token = registry.RegisterCallback(
        "snorkel_router_max_queue_depth", obs::MetricType::kGauge, [this]() {
          return static_cast<double>(
              max_queue_depth.load(std::memory_order_relaxed));
        });
  }

  ~Impl() {
    // UnregisterCallback is a barrier: the callback's `this` stays valid
    // until it returns.
    obs::MetricsRegistry::Default().UnregisterCallback(queue_depth_token);
  }

  Status QueueFull(size_t shard) const {
    return Status::ResourceExhausted(
        "shard " + std::to_string(shard) + "/" +
        std::to_string(shards.size()) + " queue full (capacity " +
        std::to_string(shards[shard].queue->capacity()) +
        "); request rejected");
  }

  /// The local backend: admits one job per sub-batch into its shard's
  /// bounded queue and waits for the workers to fill every admitted slot.
  ///
  /// Reject policy: admission is per-shard, not transactional — a request
  /// rejected at shard s has already committed its sub-batches to shards
  /// < s, whose (discarded) results the caller still waits for. To keep
  /// rejection cheap under overload, every needed queue is probed first and
  /// the request shed before committing anything; the probe is advisory
  /// (another caller can fill a queue between probe and push), so the
  /// per-shard rejection below still backstops it. allow_partial requests
  /// skip the probe: a full queue degrades that shard's rows instead.
  Status Admit(const LabelRequest& request, std::vector<SubBatch>& batches) {
    if (shutdown.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("router is shut down");
    }
    if (!options.block_on_full && !request.allow_partial) {
      for (const SubBatch& batch : batches) {
        const auto& queue = *shards[batch.shard].queue;
        if (queue.size() >= queue.capacity()) {
          core.CountRejected();
          return QueueFull(batch.shard);
        }
      }
    }
    // All jobs share one completion latch; the slots live in `batches`,
    // whose addresses stay stable while workers hold them.
    RequestLatch latch;
    size_t admitted = 0;
    Status admit = Status::OK();
    for (SubBatch& batch : batches) {
      ShardJob job;
      job.corpus = request.corpus;
      job.rows = batch.rows;
      job.include_votes = request.include_votes;
      job.apply_class_balance = request.apply_class_balance;
      job.cancel = request.cancel;
      job.slot = &batch.result;
      job.latch = &latch;
      job.trace_ctx = obs::CurrentTraceContext();
      job.admit_ns = job.trace_ctx.valid() ? obs::NowNanos() : 0;
      latch.Arm();  // A worker may Complete() before the push even returns.
      auto& queue = *shards[batch.shard].queue;
      using PushResult = BoundedQueue<ShardJob>::PushResult;
      PushResult pushed = options.block_on_full
                              ? queue.Push(std::move(job))
                              : queue.TryPush(std::move(job));
      if (pushed == PushResult::kOk) {
        ++admitted;
        RecordQueueDepth(queue.size());
        continue;
      }
      latch.Disarm();  // Not consumed.
      if (pushed == PushResult::kClosed) {
        admit = Status::FailedPrecondition("router is shut down");
        break;
      }
      if (!request.allow_partial) {
        admit = QueueFull(batch.shard);
        break;
      }
      // Degrade just this shard's rows; keep admitting the rest.
      batch.result = Status::ResourceExhausted(
          "queue full (capacity " + std::to_string(queue.capacity()) + ")");
    }
    // Always wait for EVERY admitted job: enqueued sub-batches reference
    // the caller's corpus, latch, and slots, so even a rejected request
    // must not race its own workers.
    if (admitted > 0) latch.Wait();
    if (admit.code() == StatusCode::kResourceExhausted) core.CountRejected();
    return admit;
  }

  /// Turns a job's admission timestamp into a queue-wait span and installs
  /// its trace identity on the worker thread for the replica call.
  static void EmitQueueWait(const ShardJob& job) {
    if (!job.trace_ctx.valid()) return;
    obs::EmitSpan(job.trace_ctx, "shard.queue_wait", job.admit_ns,
                  obs::NowNanos());
  }

  void ServeOne(Shard& shard, ShardJob& job) {
    EmitQueueWait(job);
    obs::ScopedTraceContext ctx(job.trace_ctx);
    LabelRequest request;
    request.corpus = job.corpus;
    request.candidate_refs = job.rows;
    request.include_votes = job.include_votes;
    request.apply_class_balance = job.apply_class_balance;
    request.cancel = job.cancel;
    // The span must close before Finish unblocks the caller and before the
    // flush, or a drain right after Label() returns misses shard.serve.
    Result<LabelResponse> response(Status::Internal("unset"));
    {
      obs::TraceSpan span("shard.serve");
      response = shard.replica->Label(request);
    }
    obs::FlushThreadSpans();
    job.Finish(std::move(response));
  }

  /// Serves a run of queued jobs, fusing consecutive compatible sub-batches
  /// into one model pass. Correctness relies on every per-row stage being
  /// content-pure (LF votes per candidate, WeightedRowSums per row,
  /// SigmoidBatch per element): concatenating sub-batches changes only how
  /// much work one pass does, never any row's bits.
  void ServeRun(Shard& shard, std::vector<ShardJob>& run) {
    size_t begin = 0;
    while (begin < run.size()) {
      size_t end = begin + 1;
      while (end < run.size() && Fusable(run[begin], run[end])) ++end;
      if (end - begin == 1) {
        ServeOne(shard, run[begin]);
      } else {
        ServeFused(shard, run, begin, end);
      }
      begin = end;
    }
  }

  void ServeFused(Shard& shard, std::vector<ShardJob>& run, size_t begin,
                  size_t end) {
    size_t total = 0;
    bool any_votes = false;
    for (size_t g = begin; g < end; ++g) {
      total += run[g].rows->size();
      any_votes = any_votes || run[g].include_votes;
    }
    // Concatenating refs is 16 bytes per row — the fused pass never copies
    // a candidate.
    std::vector<CandidateRef> fused;
    fused.reserve(total);
    for (size_t g = begin; g < end; ++g) {
      fused.insert(fused.end(), run[g].rows->begin(), run[g].rows->end());
    }
    LabelRequest request;
    request.corpus = run[begin].corpus;
    request.candidate_refs = &fused;
    request.include_votes = any_votes;
    request.apply_class_balance = run[begin].apply_class_balance;
    request.cancel = run[begin].cancel;
    // Each fused job gets its own queue-wait span; the single model pass
    // is attributed to the first job's trace (annotated with the fuse
    // width so the others' traces aren't silently missing time).
    for (size_t g = begin; g < end; ++g) EmitQueueWait(run[g]);
    Result<LabelResponse> response(Status::Internal("unset"));
    {
      obs::ScopedTraceContext ctx(run[begin].trace_ctx);
      {
        obs::TraceSpan span("shard.serve");
        if (span.active()) {
          span.Annotate("fused=" + std::to_string(end - begin));
        }
        response = shard.replica->Label(request);
      }
      obs::FlushThreadSpans();
    }
    if (!response.ok()) {
      // Isolate the failure: one poisoned sub-batch must not fail the
      // unrelated requests that happened to be fused with it.
      for (size_t g = begin; g < end; ++g) ServeOne(shard, run[g]);
      return;
    }
    size_t offset = 0;
    const size_t k = static_cast<size_t>(response->cardinality);
    for (size_t g = begin; g < end; ++g) {
      ShardJob& job = run[g];
      size_t n = job.rows->size();
      LabelResponse out;
      out.cardinality = response->cardinality;
      if (!response->posteriors.empty()) {
        out.posteriors.assign(response->posteriors.begin() + offset,
                              response->posteriors.begin() + offset + n);
      }
      out.hard_labels.assign(response->hard_labels.begin() + offset,
                             response->hard_labels.begin() + offset + n);
      if (!response->class_posteriors.empty()) {
        // K-class rows are k doubles wide; slicing a fused pass cannot
        // change a row's bits (the E-step kernel is row-pure).
        out.class_posteriors.assign(
            response->class_posteriors.begin() + offset * k,
            response->class_posteriors.begin() + (offset + n) * k);
      }
      if (job.include_votes) {
        std::vector<size_t> rows(n);
        std::iota(rows.begin(), rows.end(), offset);
        out.votes = response->votes.SelectRows(rows);
      }
      out.latency_ms = response->latency_ms;
      job.Finish(std::move(out));
      offset += n;
    }
    fused_jobs->Increment((end - begin) - 1);
  }

  void WorkerLoop(size_t shard_index) {
    Shard& shard = shards[shard_index];
    while (auto first = shard.queue->Pop()) {
      std::vector<ShardJob> run;
      run.push_back(std::move(*first));
      // Coalesce whatever burst is already queued (bounded by max_fuse);
      // never wait for more traffic.
      while (run.size() < std::max<size_t>(1, options.max_fuse)) {
        auto next = shard.queue->TryPop();
        if (!next) break;
        run.push_back(std::move(*next));
      }
      ServeRun(shard, run);
    }
  }
};

ShardRouter::ShardRouter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ShardRouter& ShardRouter::operator=(ShardRouter&& other) {
  if (this != &other) {
    // A defaulted move would destroy a live Impl with joinable workers
    // (std::terminate) — drain and join this tier before adopting other's.
    Shutdown();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

ShardRouter::~ShardRouter() { Shutdown(); }

size_t ShardRouter::num_shards() const { return impl_->shards.size(); }

Result<ShardRouter> ShardRouter::Create(const ModelSnapshot& snapshot,
                                        const LabelingFunctionSet& lfs,
                                        Options options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ShardRouter needs at least one shard");
  }
  auto impl =
      std::make_unique<Impl>(options, snapshot.cardinality, lfs.size());
  impl->shards.resize(options.num_shards);
  for (size_t s = 0; s < options.num_shards; ++s) {
    auto replica = LabelService::Create(snapshot, lfs, options.service);
    if (!replica.ok()) return replica.status();
    impl->shards[s].replica =
        std::make_unique<LabelService>(std::move(*replica));
    impl->shards[s].queue =
        std::make_unique<BoundedQueue<ShardJob>>(options.queue_capacity);
  }
  // Workers start only after every shard is fully constructed (WorkerLoop
  // indexes impl->shards).
  size_t workers = std::max<size_t>(1, options.workers_per_shard);
  for (size_t s = 0; s < options.num_shards; ++s) {
    for (size_t w = 0; w < workers; ++w) {
      impl->shards[s].workers.emplace_back(
          [raw = impl.get(), s] { raw->WorkerLoop(s); });
    }
  }
  return ShardRouter(std::move(impl));
}

Result<ShardRouter> ShardRouter::FromFile(const std::string& path,
                                          const LabelingFunctionSet& lfs,
                                          Options options,
                                          SnapshotLoadInfo* load_info) {
  auto snapshot = LoadSnapshotMapped(path, load_info);
  if (!snapshot.ok()) return snapshot.status();
  return Create(*snapshot, lfs, options);
}

void ShardRouter::Shutdown() {
  if (impl_ == nullptr) return;  // Moved-from.
  std::call_once(impl_->shutdown_once, [this] {
    impl_->shutdown.store(true, std::memory_order_release);
    for (auto& shard : impl_->shards) shard.queue->Close();
    for (auto& shard : impl_->shards) {
      for (auto& worker : shard.workers) {
        if (worker.joinable()) worker.join();
      }
    }
  });
}

Result<LabelResponse> ShardRouter::Label(const LabelRequest& request) {
  Impl& impl = *impl_;
  const auto request_start = std::chrono::steady_clock::now();
  auto response = impl.core.Route(
      request, [&impl](const LabelRequest& r, std::vector<SubBatch>& batches) {
        return impl.Admit(r, batches);
      });
  if (response.ok()) {
    std::lock_guard<std::mutex> lock(impl.span_mu);
    if (!impl.has_served || request_start < impl.first_request_start) {
      impl.first_request_start = request_start;
      impl.has_served = true;
    }
    const auto done = std::chrono::steady_clock::now();
    if (done > impl.last_request_done) impl.last_request_done = done;
  }
  return response;
}

void ShardRouter::InvalidateCache() {
  for (auto& shard : impl_->shards) shard.replica->InvalidateCache();
}

RouterStats ShardRouter::stats() const {
  const Impl& impl = *impl_;
  RouterStats out;
  out.num_requests = impl.core.num_requests();
  out.num_candidates = impl.core.num_candidates();
  out.rejected_requests = impl.core.rejected_requests();
  out.failed_requests = impl.core.failed_requests();
  out.degraded_requests = impl.core.degraded_requests();
  out.fused_jobs = impl.fused_jobs->value();
  out.max_queue_depth = impl.max_queue_depth.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl.span_mu);
    if (impl.has_served) {
      out.busy_span_s = std::chrono::duration<double>(
                            impl.last_request_done - impl.first_request_start)
                            .count();
    }
  }
  if (out.busy_span_s > 0.0) {
    out.throughput_cps =
        static_cast<double>(out.num_candidates) / out.busy_span_s;
  }
  if (!impl.shards.empty()) {
    // Replicas were built from one snapshot; any replica's identity is the
    // tier's.
    out.snapshot_version = impl.shards[0].replica->snapshot_version();
    out.snapshot_checksum = impl.shards[0].replica->snapshot_checksum();
  }
  for (const auto& shard : impl.shards) {
    out.queue_depth += shard.queue->size();
    out.per_shard.push_back(shard.replica->stats());
    const ServiceStats& replica = out.per_shard.back();
    out.lf_columns_reused += replica.lf_columns_reused;
    out.lf_columns_computed += replica.lf_columns_computed;
    out.cache_set_hits += replica.cache_set_hits;
    out.cache_set_misses += replica.cache_set_misses;
    out.cache_bytes += replica.cache_bytes;
    out.cache_appended_rows += replica.cache_appended_rows;
    // Shards share bucket bounds (obs::LatencyBucketsMs), so summing the
    // per-replica histograms gives an exact fleet-level bucket population —
    // the tier's quantiles come from the merged snapshot, not from
    // averaging per-shard quantiles (which would be meaningless).
    out.latency.Merge(replica.latency);
  }
  return out;
}

}  // namespace snorkel
