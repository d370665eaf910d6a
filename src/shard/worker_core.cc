#include "shard/worker_core.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

namespace snorkel {

namespace {

/// Jobs fuse only under the same token, so one request's expiry cannot
/// cancel another request's rows.
bool Fusable(const WorkerJob& a, const WorkerJob& b) {
  return a.request.corpus == b.request.corpus &&
         a.request.apply_class_balance == b.request.apply_class_balance &&
         a.request.cancel == b.request.cancel;
}

/// Writes the job's result and releases its latch. The caller may free the
/// job the moment the latch opens, so nothing touches it afterwards.
void Finish(WorkerJob* job, Result<LabelResponse> result) {
  RequestLatch* latch = job->latch;
  *job->slot = std::move(result);
  latch->Complete();
}

}  // namespace

WorkerCore::WorkerCore(Config config)
    : config_(std::move(config)), queue_(config_.queue) {
  config_.max_fuse = std::max<size_t>(1, config_.max_fuse);
  const size_t workers = std::max<size_t>(1, config_.workers);
  for (size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerCore::~WorkerCore() { Shutdown(); }

void WorkerCore::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.Close();
    for (std::thread& worker : workers_) worker.join();
  });
}

WorkerCore::PushResult WorkerCore::Submit(WorkerJob* job, bool block) {
  using Lane = BoundedQueue<WorkerJob*>::Lane;
  job->admit_ns = obs::NowNanos();
  const uint64_t cost = job->cost;
  const Lane lane = job->interactive ? Lane::kInteractive : Lane::kBulk;
  RequestLatch* latch = job->latch;
  latch->Arm();  // A worker may Complete() before the push even returns.
  std::vector<WorkerJob*> displaced;
  const PushResult pushed =
      block ? queue_.Push(std::move(job), cost, lane)
            : queue_.TryPush(std::move(job), cost, lane, &displaced);
  if (pushed != PushResult::kOk) latch->Complete();  // Not admitted.
  FailShed(displaced);
  return pushed;
}

void WorkerCore::FailShed(std::vector<WorkerJob*>& shed) {
  for (WorkerJob* job : shed) {
    if (config_.shed_jobs) config_.shed_jobs->Increment();
    Finish(job, Status::ResourceExhausted(
                    "shard shed queued work under overload"));
  }
  shed.clear();
}

void WorkerCore::WorkerLoop() {
  std::vector<WorkerJob*> shed;
  std::vector<WorkerJob*> run;
  while (auto first = queue_.Pop(&shed)) {
    // CoDel-shed bulk jobs (sojourn past 2× target) fail typed before the
    // popped job is served — stale queued work must not starve fresh work.
    FailShed(shed);
    run.clear();
    Take(*first, run);
    // Coalesce whatever burst is already queued (bounded by max_fuse);
    // never wait for more traffic.
    for (size_t popped = 1; popped < config_.max_fuse; ++popped) {
      auto next = queue_.TryPop();
      if (!next) break;
      Take(*next, run);
    }
    size_t begin = 0;
    while (begin < run.size()) {
      size_t end = begin + 1;
      while (end < run.size() && Fusable(*run[begin], *run[end])) ++end;
      ServeGroup(run.data() + begin, end - begin);
      begin = end;
    }
  }
  // The final Pop may have shed on the way out.
  FailShed(shed);
}

void WorkerCore::Take(WorkerJob* job, std::vector<WorkerJob*>& run) {
  // Queue wait is only measurable after the pop — record it retroactively
  // from the admission timestamp.
  const uint64_t popped_ns = obs::NowNanos();
  if (const auto& wait_ms = config_.queue_wait_ms[job->interactive ? 0 : 1]) {
    wait_ms->Observe(static_cast<double>(popped_ns - job->admit_ns) / 1e6);
  }
  if (job->request.cancel != nullptr && job->request.cancel->Expired()) {
    if (config_.expired_jobs) config_.expired_jobs->Increment();
    Finish(job, Status::DeadlineExceeded(
                    "request budget spent before a worker picked it up"));
    return;
  }
  if (job->trace.valid()) {
    obs::EmitSpan(job->trace, config_.queue_wait_span, job->admit_ns,
                  popped_ns);
  }
  run.push_back(job);
}

Result<LabelResponse> WorkerCore::Pass(const LabelRequest& request,
                                       const obs::TraceContext& trace,
                                       uint64_t cost, size_t fused) {
  Result<LabelResponse> response(Status::Internal("unset"));
  const uint64_t start_ns = obs::NowNanos();
  {
    // The request's identity rides onto this worker thread so the
    // replica's own spans (LF apply, inference) nest under the serve span.
    obs::ScopedTraceContext ctx(trace);
    obs::TraceSpan span(config_.serve_span);
    if (span.active()) {
      std::string note =
          "rows=" + std::to_string(request.candidate_refs->size());
      if (fused > 1) note += " fused=" + std::to_string(fused);
      span.Annotate(note);
    }
    response = config_.serve(request);
  }
  // The span must reach the ring before the latch releases the caller, or
  // a drain right after the caller returns misses it.
  obs::FlushThreadSpans();
  if (response.ok()) {
    // Calibrate the cost model on COMPLETED work only — cancelled work
    // finished early and would bias the EWMA low.
    queue_.OnServiced(cost, (obs::NowNanos() - start_ns) / 1000);
  }
  return response;
}

void WorkerCore::ServeGroup(WorkerJob* const* jobs, size_t n) {
  if (n == 1) {
    Finish(jobs[0], Pass(jobs[0]->request, jobs[0]->trace, jobs[0]->cost, 1));
    return;
  }
  size_t total = 0;
  uint64_t cost = 0;
  LabelRequest request = jobs[0]->request;
  for (size_t g = 0; g < n; ++g) {
    total += jobs[g]->request.candidate_refs->size();
    cost += jobs[g]->cost;
    request.include_votes |= jobs[g]->request.include_votes;
  }
  // Concatenating refs is 16 bytes per row — the fused pass never copies a
  // candidate.
  std::vector<CandidateRef> fused;
  fused.reserve(total);
  for (size_t g = 0; g < n; ++g) {
    const std::vector<CandidateRef>& rows = *jobs[g]->request.candidate_refs;
    fused.insert(fused.end(), rows.begin(), rows.end());
  }
  request.candidate_refs = &fused;
  // The single pass is attributed to the first job's trace, annotated with
  // the fuse width so the others' traces are not silently missing time.
  Result<LabelResponse> response = Pass(request, jobs[0]->trace, cost, n);
  if (!response.ok()) {
    // Isolate the failure: one poisoned job must not fail the unrelated
    // jobs that happened to be fused with it.
    for (size_t g = 0; g < n; ++g) ServeGroup(jobs + g, 1);
    return;
  }
  if (config_.fused_jobs) config_.fused_jobs->Increment(n - 1);
  size_t offset = 0;
  const size_t k = static_cast<size_t>(response->cardinality);
  for (size_t g = 0; g < n; ++g) {
    WorkerJob* job = jobs[g];
    const size_t rows = job->request.candidate_refs->size();
    LabelResponse out;
    out.cardinality = response->cardinality;
    if (!response->posteriors.empty()) {
      out.posteriors.assign(response->posteriors.begin() + offset,
                            response->posteriors.begin() + offset + rows);
    }
    out.hard_labels.assign(response->hard_labels.begin() + offset,
                           response->hard_labels.begin() + offset + rows);
    if (!response->class_posteriors.empty()) {
      // K-class rows are k doubles wide; slicing a fused pass cannot change
      // a row's bits (the E-step kernel is row-pure).
      out.class_posteriors.assign(
          response->class_posteriors.begin() + offset * k,
          response->class_posteriors.begin() + (offset + rows) * k);
    }
    if (job->request.include_votes) {
      std::vector<size_t> picked(rows);
      std::iota(picked.begin(), picked.end(), offset);
      out.votes = response->votes.SelectRows(picked);
    }
    out.latency_ms = response->latency_ms;
    Finish(job, std::move(out));
    offset += rows;
  }
}

}  // namespace snorkel
