#include "shard/shard_router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/routing_core.h"
#include "shard/worker_core.h"

namespace snorkel {

struct ShardRouter::Impl {
  struct Shard {
    std::unique_ptr<LabelService> replica;
    /// Declared after the replica its serve function calls, so it drains
    /// and joins first.
    std::unique_ptr<WorkerCore> workers;
  };

  Options options;
  /// Validation, partitioning, failure policy, merge and request counters.
  RoutingCore core;
  /// Admission price per candidate row: the LF count.
  uint64_t cost_per_row = 1;
  std::vector<Shard> shards;

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
                                 /*placement_span=*/nullptr}),
        cost_per_row(std::max<size_t>(1, lf_count)) {
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

  /// One shard's worker core: count-bounded admission (every job in the
  /// interactive lane, no cost budget, no sojourn target) and burst fusion
  /// up to max_fuse.
  std::unique_ptr<WorkerCore> MakeWorkers(LabelService* replica) const {
    return std::make_unique<WorkerCore>(WorkerCore::Config{
        .queue = {options.queue_capacity, 0, 0},
        .workers = options.workers_per_shard,
        .max_fuse = options.max_fuse,
        .queue_wait_span = "shard.queue_wait",
        .serve_span = "shard.serve",
        .serve = [replica](const LabelRequest& r) { return replica->Label(r); },
        .fused_jobs = fused_jobs});
  }

  Status QueueFull(size_t shard) const {
    return Status::ResourceExhausted(
        "shard " + std::to_string(shard) + "/" +
        std::to_string(shards.size()) + " queue full (capacity " +
        std::to_string(shards[shard].workers->capacity()) +
        "); request rejected");
  }

  /// The local backend: submits one job per sub-batch to its shard's
  /// worker core and waits for the workers to fill every admitted slot.
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
    if (!options.block_on_full && !request.allow_partial) {
      for (const SubBatch& batch : batches) {
        const WorkerCore& workers = *shards[batch.shard].workers;
        if (workers.depth() >= workers.capacity()) {
          core.CountRejected();
          return QueueFull(batch.shard);
        }
      }
    }
    // All jobs share one completion latch; the jobs and their slots (in
    // `batches`) stay put while workers hold them.
    RequestLatch latch;
    std::vector<WorkerJob> jobs(batches.size());
    const obs::TraceContext trace = obs::CurrentTraceContext();
    Status admit = Status::OK();
    for (size_t b = 0; b < batches.size(); ++b) {
      SubBatch& batch = batches[b];
      WorkerJob& job = jobs[b];
      job.request = request;  // Flags and token; the rows are this shard's.
      job.request.candidates = nullptr;
      job.request.candidate_refs = batch.rows;
      job.cost = batch.rows->size() * cost_per_row;
      job.trace = trace;
      job.slot = &batch.result;
      job.latch = &latch;
      WorkerCore& workers = *shards[batch.shard].workers;
      const WorkerCore::PushResult pushed =
          workers.Submit(&job, options.block_on_full);
      if (pushed == WorkerCore::PushResult::kOk) {
        RecordQueueDepth(workers.depth());
        continue;
      }
      if (pushed == WorkerCore::PushResult::kClosed) {
        admit = Status::FailedPrecondition("router is shut down");
        break;
      }
      if (!request.allow_partial) {
        admit = QueueFull(batch.shard);
        break;
      }
      // Degrade just this shard's rows; keep admitting the rest.
      batch.result = Status::ResourceExhausted(
          "queue full (capacity " + std::to_string(workers.capacity()) + ")");
    }
    // Always wait for EVERY admitted job: queued jobs reference the
    // caller's corpus, latch, and slots, so even a rejected request must
    // not race its own workers.
    latch.Wait();
    if (admit.code() == StatusCode::kResourceExhausted) core.CountRejected();
    return admit;
  }
};

ShardRouter::ShardRouter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ShardRouter& ShardRouter::operator=(ShardRouter&& other) {
  if (this != &other) {
    // Drain and join this tier before adopting other's.
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
    impl->shards[s].workers =
        impl->MakeWorkers(impl->shards[s].replica.get());
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
  for (auto& shard : impl_->shards) shard.workers->Shutdown();
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
    out.queue_depth += shard.workers->depth();
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
