#include "net/shard_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/snapshot_store.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "shard/worker_core.h"
#include "util/cancellation.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/mmap_file.h"

namespace snorkel {

namespace {

/// One immutable serving generation: the replica plus the mapped artifact it
/// was decoded from, swapped wholesale on rollout. In-flight requests pin a
/// generation through shared_ptr, so a hot-swap never invalidates the mmap
/// under a request that is still reading model state — the old mapping is
/// unmapped only when the last in-flight holder drains.
struct ServingState {
  LabelService service;
  std::shared_ptr<MappedFile> mapping;  // Null on non-file paths.
  uint64_t version = 0;
  uint64_t checksum = 0;

  ServingState(LabelService s, std::shared_ptr<MappedFile> m, uint64_t v,
               uint64_t c)
      : service(std::move(s)), mapping(std::move(m)), version(v), checksum(c) {}
};

/// Builds a serving generation from an artifact file: mmap, decode over the
/// mapped view, validate against the live LF set.
Result<std::shared_ptr<ServingState>> LoadServingState(
    const std::string& path, uint64_t store_version,
    const LabelingFunctionSet& lfs, const LabelService::Options& options) {
  // Injection site "store.load": an injected fault is a failed artifact
  // load — startup fails typed, a watcher swap is rejected and the old
  // generation keeps serving (the crash-consistency paths under test).
  if (fault::Point("store.load")) {
    return Status::Unavailable("injected fault at store.load");
  }
  auto file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  auto mapping = std::make_shared<MappedFile>(std::move(*file));
  auto snapshot = DeserializeSnapshot(mapping->view());
  if (!snapshot.ok()) return snapshot.status();
  snapshot->artifact_version = store_version;
  auto service = LabelService::Create(*snapshot, lfs, options);
  if (!service.ok()) return service.status();
  return std::make_shared<ServingState>(std::move(*service),
                                        std::move(mapping), store_version,
                                        snapshot->CanonicalChecksum());
}

}  // namespace

struct ShardServer::Impl {
  Options options;
  LabelingFunctionSet lfs;
  std::optional<SnapshotStore> store;

  ListenSocket listener;

  /// Current serving generation; swapped atomically under state_mu.
  mutable std::mutex state_mu;
  std::shared_ptr<ServingState> state;

  std::thread accept_thread;
  std::thread watcher_thread;

  /// Connection handler threads (one per accepted connection; clients pool
  /// connections so the LIVE count stays bounded by pool size). A handler
  /// marks itself `done` when its connection closes and the accept loop
  /// joins marked entries, so a long-lived server churning through many
  /// short-lived connections does not accumulate dead thread handles.
  struct ConnHandle {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conn_mu;
  std::list<std::unique_ptr<ConnHandle>> conn_threads;

  std::atomic<bool> stopping{false};
  std::atomic<bool> shut_down{false};

  // ---- Counters: registry instruments, which stats() reads. ----
  static std::shared_ptr<obs::Counter> NewCounter(const char* name) {
    return obs::MetricsRegistry::Default().CreateCounter(name);
  }
  std::shared_ptr<obs::Counter> requests_served =
      NewCounter("snorkel_server_requests_total");
  std::shared_ptr<obs::Counter> candidates_served =
      NewCounter("snorkel_server_candidates_total");
  std::shared_ptr<obs::Counter> queue_rejections =
      NewCounter("snorkel_server_queue_rejections_total");
  std::shared_ptr<obs::Counter> deadline_rejections =
      NewCounter("snorkel_server_deadline_rejections_total");
  std::shared_ptr<obs::Counter> snapshot_swaps =
      NewCounter("snorkel_server_snapshot_swaps_total");
  std::shared_ptr<obs::Counter> rejected_swaps =
      NewCounter("snorkel_server_rejected_swaps_total");
  std::shared_ptr<obs::Counter> expired_work_cancelled =
      NewCounter("snorkel_server_expired_work_cancelled_total");
  std::shared_ptr<obs::Counter> shed_total =
      NewCounter("snorkel_server_shed_total");

  /// Fault sites this server armed (inject flags + kFaultRequest commands);
  /// disarmed on Shutdown so one server's schedules never leak into the
  /// next server sharing the process (sequential tests).
  std::mutex fault_mu;
  std::vector<std::string> armed_sites;

  /// Process-wide corpus intern table: CORP payload bytes -> decoded Corpus.
  /// Keyed by content hash and verified by full payload comparison (a hash
  /// collision must never alias two different corpora — the column cache
  /// trusts corpus identity). Bounded; eviction drops the oldest entry, and
  /// in-flight requests keep evicted corpora alive via shared_ptr.
  struct CorpusEntry {
    std::string payload;
    std::shared_ptr<const Corpus> corpus;
  };
  static constexpr size_t kMaxCachedCorpora = 16;
  std::mutex corpus_mu;
  std::list<std::pair<uint64_t, CorpusEntry>> corpus_cache;

  /// Registered callback metrics (unregistered in the destructor — the
  /// registry runs callbacks under its lock, so unregistration is a
  /// lifetime barrier for the `this` they capture).
  std::vector<uint64_t> metric_tokens;

  /// Admission queue and label workers. Declared after everything its
  /// serve function touches, so it drains and joins first.
  std::unique_ptr<WorkerCore> workers;

  explicit Impl(Options opts, LabelingFunctionSet lf_set)
      : options(opts), lfs(std::move(lf_set)) {
    obs::RegisterCommonProcessMetrics();
    auto& registry = obs::MetricsRegistry::Default();
    // Cost lanes, CoDel shedding and a deadline check at pop; no fusion
    // (every job carries its own cancel token, so none would fuse anyway).
    // Per-lane queue-wait histograms share the fabric latency buckets, so
    // cross-process merges stay well defined; the registry has no label
    // dimension, so the lane is encoded in the metric name.
    workers = std::make_unique<WorkerCore>(WorkerCore::Config{
        .queue = {opts.queue_capacity, opts.queue_cost_budget,
                  opts.sojourn_target_ms},
        .workers = opts.num_workers,
        .queue_wait_span = "server.queue_wait",
        .serve_span = "server.label",
        .serve = [this](const LabelRequest& r) { return ServeLabel(r); },
        .shed_jobs = shed_total,
        .expired_jobs = deadline_rejections,
        .queue_wait_ms = {registry.CreateHistogram(
                              "snorkel_server_queue_wait_ms_interactive",
                              obs::LatencyBucketsMs()),
                          registry.CreateHistogram(
                              "snorkel_server_queue_wait_ms_bulk",
                              obs::LatencyBucketsMs())}});
    metric_tokens.push_back(registry.RegisterCallback(
        "snorkel_server_queue_cost_used", obs::MetricType::kGauge,
        [this] { return static_cast<double>(workers->cost_used()); }));
    metric_tokens.push_back(registry.RegisterCallback(
        "snorkel_server_snapshot_version", obs::MetricType::kGauge, [this] {
          // `state` is installed after construction; a scrape racing
          // startup reads 0 rather than dereferencing null.
          auto generation = CurrentState();
          return generation == nullptr
                     ? 0.0
                     : static_cast<double>(generation->version);
        }));
  }

  ~Impl() {
    auto& registry = obs::MetricsRegistry::Default();
    for (uint64_t token : metric_tokens) registry.UnregisterCallback(token);
  }

  std::shared_ptr<ServingState> CurrentState() const {
    std::lock_guard<std::mutex> lock(state_mu);
    return state;
  }

  Result<std::shared_ptr<const Corpus>> InternCorpus(
      const std::string& payload, Corpus&& decoded_fallback,
      bool* decoded_used) {
    uint64_t key = Fnv1a64(payload);
    std::lock_guard<std::mutex> lock(corpus_mu);
    for (auto it = corpus_cache.begin(); it != corpus_cache.end(); ++it) {
      if (it->first == key && it->second.payload == payload) {
        // Refresh LRU position.
        corpus_cache.splice(corpus_cache.end(), corpus_cache, it);
        *decoded_used = false;
        return corpus_cache.back().second.corpus;
      }
    }
    auto corpus = std::make_shared<const Corpus>(std::move(decoded_fallback));
    corpus_cache.push_back({key, CorpusEntry{payload, corpus}});
    if (corpus_cache.size() > kMaxCachedCorpora) corpus_cache.pop_front();
    *decoded_used = true;
    return corpus;
  }

  // ---- Label path. ----

  /// The worker core's serve function: one job's model pass on the
  /// current generation.
  Result<LabelResponse> ServeLabel(const LabelRequest& request) {
    // Injection site "server.label": delay schedules sleep here and the
    // request proceeds bit-identically (a slow replica, armed with
    // fault::Arm, --fault or kFaultRequest);
    // fail schedules reject the job with the typed error a dying replica
    // would produce.
    if (fault::Point("server.label")) {
      return Status::Unavailable("injected fault at server.label");
    }
    // Pin the current generation for the whole request: a concurrent
    // hot-swap retires the old state only after this shared_ptr drops.
    std::shared_ptr<ServingState> generation = CurrentState();
    Result<LabelResponse> response = generation->service.Label(request);
    if (response.ok()) {
      requests_served->Increment();
      candidates_served->Increment(request.candidate_refs->size());
    } else if (response.status().code() == StatusCode::kDeadlineExceeded) {
      expired_work_cancelled->Increment();
    }
    return response;
  }

  // ---- Connection handling. ----

  /// One read of the counters for stats() and the stats RPC.
  WireServerStats ReadStats() const {
    std::shared_ptr<ServingState> generation = CurrentState();
    WireServerStats stats;
    stats.snapshot_version = generation->version;
    stats.snapshot_checksum = generation->checksum;
    stats.cardinality = generation->service.cardinality();
    stats.requests_served = requests_served->value();
    stats.candidates_served = candidates_served->value();
    stats.queue_rejections = queue_rejections->value();
    stats.deadline_rejections = deadline_rejections->value();
    stats.snapshot_swaps = snapshot_swaps->value();
    stats.rejected_swaps = rejected_swaps->value();
    stats.faults_injected = fault::InjectedCount();
    stats.expired_work_cancelled = expired_work_cancelled->value();
    stats.shed_total = shed_total->value();
    return stats;
  }

  Frame HandleFaultRequest(const Frame& frame) {
    auto command = DecodeFaultRequest(frame);
    if (!command.ok()) {
      return EncodeErrorFrame(frame.request_id, command.status());
    }
    if (command->disarm_all) fault::DisarmAll();
    for (const auto& [site, schedule] : command->arm) {
      Status armed = fault::Arm(site, schedule);
      if (!armed.ok()) return EncodeErrorFrame(frame.request_id, armed);
      RememberArmedSite(site);
    }
    return EncodeFaultResponse(frame.request_id);
  }

  Frame HandleTraceRequest(const Frame& frame) {
    auto request = DecodeTraceRequest(frame);
    if (!request.ok()) {
      return EncodeErrorFrame(frame.request_id, request.status());
    }
    obs::SpanBatch batch;
    batch.process = obs::ProcessLabel();
    batch.spans = obs::CollectSpans(request->trace_id, request->drain);
    return EncodeTraceResponse(frame.request_id, batch);
  }

  void RememberArmedSite(const std::string& site) {
    std::lock_guard<std::mutex> lock(fault_mu);
    for (const std::string& existing : armed_sites) {
      if (existing == site) return;
    }
    armed_sites.push_back(site);
  }

  Frame HandleLabelRequest(const Frame& frame) {
    // The trace id travels INSIDE the frame being decoded, so the decode
    // span is recorded retroactively once the TRAC section is out.
    const uint64_t decode_start_ns = obs::NowNanos();
    auto wire = DecodeLabelRequest(frame);
    if (!wire.ok()) return EncodeErrorFrame(frame.request_id, wire.status());
    obs::EmitSpan(wire->trace, "server.decode", decode_start_ns,
                  obs::NowNanos(),
                  "rows=" + std::to_string(wire->candidates.size()));
    // The budget runs from decode time. Cooperative cancellation: the
    // replica checks this token at chunk boundaries (between LF columns,
    // every 64 rows) and stops computing when the deadline passes
    // mid-flight — expired work must not keep burning CPU that admitted
    // work needs. kNoDeadline is already the token's never-expires sentinel
    // (both are time_point::max()).
    const CancelToken cancel(wire->deadline_ms > 0
                                 ? DeadlineAfterMs(wire->deadline_ms)
                                 : kNoDeadline);

    const FrameSection* corpus_section = frame.Find(kSectionCorpus);
    bool decoded_used = false;
    const uint64_t intern_start_ns = obs::NowNanos();
    auto corpus = InternCorpus(corpus_section->payload,
                               std::move(wire->corpus), &decoded_used);
    if (!corpus.ok()) {
      return EncodeErrorFrame(frame.request_id, corpus.status());
    }
    obs::EmitSpan(wire->trace, "server.intern", intern_start_ns,
                  obs::NowNanos(), decoded_used ? "cache=miss" : "cache=hit");
    // The job and everything it points at live on this handler's stack:
    // the handler blocks below until a worker has finished with them.
    std::vector<CandidateRef> refs;
    refs.reserve(wire->candidates.size());
    for (size_t i = 0; i < wire->candidates.size(); ++i) {
      refs.push_back(CandidateRef{&wire->candidates[i],
                                  static_cast<size_t>(wire->indices[i])});
    }
    // A request whose budget is already spent must not consume a queue slot
    // another request could use — reject before admission, typed.
    if (cancel.Expired()) {
      deadline_rejections->Increment();
      return EncodeErrorFrame(
          frame.request_id,
          Status::DeadlineExceeded("request budget spent before admission"));
    }

    Result<LabelResponse> response(Status::Internal("unset"));
    RequestLatch latch;
    WorkerJob job;
    job.request.corpus = corpus->get();
    job.request.candidate_refs = &refs;
    job.request.include_votes = wire->include_votes;
    job.request.apply_class_balance = wire->apply_class_balance;
    job.request.cancel = &cancel;
    // Cost-aware admission: price the job (rows × LFs — proportional to the
    // LF-application work it will consume) and lane it by size. Small
    // batches ride the interactive lane: served first, shed last.
    job.cost = static_cast<uint64_t>(refs.size()) *
               static_cast<uint64_t>(std::max<size_t>(1, lfs.size()));
    job.interactive = refs.size() <= options.interactive_rows;
    job.trace = wire->trace;
    job.slot = &response;
    job.latch = &latch;
    // An interactive arrival may displace queued bulk work; the core fails
    // displaced jobs typed (their handlers are waiting on their latches).
    switch (workers->Submit(&job, /*block=*/false)) {
      case WorkerCore::PushResult::kOk:
        latch.Wait();
        break;
      case WorkerCore::PushResult::kQueueFull:
        queue_rejections->Increment();
        response = Status::ResourceExhausted("shard admission queue is full");
        break;
      case WorkerCore::PushResult::kClosed:
        response = Status::Unavailable("shard is shutting down");
        break;
    }
    if (!response.ok()) {
      // Every kResourceExhausted outcome (queue full, displacement, CoDel
      // shed) carries a backoff hint: the queued backlog priced at the
      // EWMA-calibrated service time, divided by worker parallelism —
      // clients feed it to their adaptive limiter.
      const bool exhausted =
          response.status().code() == StatusCode::kResourceExhausted;
      return EncodeErrorFrame(frame.request_id, response.status(),
                              exhausted ? workers->RetryAfterMs() : 0);
    }
    const uint64_t encode_start_ns = obs::NowNanos();
    Frame reply = EncodeLabelResponse(frame.request_id, *response);
    obs::EmitSpan(wire->trace, "server.encode", encode_start_ns,
                  obs::NowNanos());
    return reply;
  }

  void HandleConnection(Socket socket) {
    FrameReader reader;
    while (!stopping.load(std::memory_order_acquire)) {
      // Bounded receive wait so this thread notices shutdown. The reader is
      // resumable: a timeout — between frames OR with a frame partially
      // received (large frame, slow link) — keeps its progress, so the next
      // wait continues the same frame instead of reading mid-stream.
      auto frame = reader.Recv(socket, DeadlineAfterMs(100), /*eof_ok=*/true);
      if (!frame.ok()) {
        if (frame.status().code() == StatusCode::kDeadlineExceeded) continue;
        if (frame.status().code() == StatusCode::kNotFound) return;  // EOF.
        // Framing/protocol error: answer typed if the stream still works,
        // then drop the connection (framing state is unrecoverable).
        (void)SendFrame(socket, EncodeErrorFrame(0, frame.status()),
                        DeadlineAfterMs(1000));
        return;
      }
      Frame reply;
      switch (frame->type) {
        case FrameType::kPing:
          reply.type = FrameType::kPong;
          reply.request_id = frame->request_id;
          break;
        case FrameType::kStatsRequest:
          reply = EncodeStatsResponse(frame->request_id, ReadStats());
          break;
        case FrameType::kLabelRequest:
          reply = HandleLabelRequest(*frame);
          break;
        case FrameType::kFaultRequest:
          reply = HandleFaultRequest(*frame);
          break;
        case FrameType::kMetricsRequest:
          reply = EncodeMetricsResponse(
              frame->request_id,
              obs::MetricsRegistry::Default().PrometheusText());
          break;
        case FrameType::kTraceRequest:
          reply = HandleTraceRequest(*frame);
          break;
        default:
          reply = EncodeErrorFrame(
              frame->request_id,
              Status::InvalidArgument("unsupported frame type " +
                                      std::to_string(static_cast<uint32_t>(
                                          frame->type))));
          break;
      }
      // Bounded reply send: a peer that stops reading must not pin this
      // thread (and Shutdown's join) forever.
      if (!SendFrame(socket, reply,
                     DeadlineAfterMs(options.send_deadline_ms))
               .ok()) {
        return;
      }
    }
  }

  /// Joins and erases every handler whose connection has closed. Joining a
  /// `done` handler blocks at most for its final few instructions.
  void ReapFinishedConnections() {
    std::lock_guard<std::mutex> lock(conn_mu);
    for (auto it = conn_threads.begin(); it != conn_threads.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = conn_threads.erase(it);
      } else {
        ++it;
      }
    }
  }

  void AcceptLoop() {
    while (!stopping.load(std::memory_order_acquire)) {
      auto socket = listener.Accept(/*timeout_ms=*/100);
      ReapFinishedConnections();
      if (!socket.ok()) continue;  // Timeout (stop check) or transient.
      auto handle = std::make_unique<ConnHandle>();
      ConnHandle* raw = handle.get();
      std::lock_guard<std::mutex> lock(conn_mu);
      if (stopping.load(std::memory_order_acquire)) return;
      handle->thread = std::thread(
          [this, raw,
           s = std::make_shared<Socket>(std::move(*socket))]() mutable {
            HandleConnection(std::move(*s));
            raw->done.store(true, std::memory_order_release);
          });
      conn_threads.push_back(std::move(handle));
    }
  }

  // ---- Snapshot watcher (store mode). ----

  void WatchLoop() {
    uint64_t last_rejected = 0;
    while (!stopping.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.watch_interval_ms));
      if (stopping.load(std::memory_order_acquire)) return;
      auto current = store->CurrentVersion();
      if (!current.ok()) continue;
      uint64_t serving = CurrentState()->version;
      if (*current <= serving || *current == last_rejected) continue;
      auto next = LoadServingState(store->PathFor(*current), *current, lfs,
                                   options.service);
      if (!next.ok()) {
        // A bad artifact must not take the shard down: reject the swap,
        // keep serving the old generation, and don't retry this version.
        rejected_swaps->Increment();
        last_rejected = *current;
        continue;
      }
      {
        // Drop the old generation outside state_mu: its teardown chain
        // unregisters metric callbacks under the registry lock, which a
        // concurrent scrape holds while the version gauge below calls
        // CurrentState() — releasing under state_mu would ABBA-deadlock.
        std::shared_ptr<ServingState> old;
        {
          std::lock_guard<std::mutex> lock(state_mu);
          old = std::exchange(state, std::move(*next));
        }
      }
      snapshot_swaps->Increment();
    }
  }

  /// Serves `state` on a new listener; store mode also watches `store`.
  /// Listens first: building the Impl starts its label workers.
  static Result<ShardServer> Launch(
      const Options& options, const LabelingFunctionSet& lfs,
      Result<std::shared_ptr<ServingState>> state,
      std::optional<SnapshotStore> store) {
    if (!state.ok()) return state.status();
    auto listener = ListenSocket::Listen(options.port);
    if (!listener.ok()) return listener.status();
    auto impl = std::make_unique<Impl>(options, lfs);
    impl->store = std::move(store);
    impl->state = std::move(*state);
    impl->listener = std::move(*listener);
    impl->Start();
    return ShardServer(std::move(impl));
  }

  void Start() {
    // Default process label for stitched traces; a CLI that hosts several
    // servers (or wants its own name) calls SetProcessLabel itself after.
    obs::SetProcessLabel("shard-" + std::to_string(listener.port()));
    accept_thread = std::thread([this] { AcceptLoop(); });
    if (store.has_value()) {
      watcher_thread = std::thread([this] { WatchLoop(); });
    }
  }

  void Shutdown() {
    if (shut_down.exchange(true)) return;
    stopping.store(true, std::memory_order_release);
    if (accept_thread.joinable()) accept_thread.join();
    if (watcher_thread.joinable()) watcher_thread.join();
    listener.Close();
    // Connection handlers notice `stopping` within one receive wait; any
    // label job they already admitted drains below before workers exit.
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      for (auto& handle : conn_threads) handle->thread.join();
      conn_threads.clear();
    }
    workers->Shutdown();
    // The fault registry is process-wide; schedules this server armed must
    // not outlive it (sequential in-process tests share the registry).
    {
      std::lock_guard<std::mutex> lock(fault_mu);
      for (const std::string& site : armed_sites) fault::Disarm(site);
      armed_sites.clear();
    }
  }
};

ShardServer::ShardServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
ShardServer::ShardServer(ShardServer&&) noexcept = default;
ShardServer& ShardServer::operator=(ShardServer&&) noexcept = default;

ShardServer::~ShardServer() {
  if (impl_ != nullptr) impl_->Shutdown();
}

Result<ShardServer> ShardServer::Serve(const std::string& snapshot_path,
                                       const LabelingFunctionSet& lfs,
                                       Options options) {
  return Impl::Launch(options, lfs,
                      LoadServingState(snapshot_path, /*store_version=*/0,
                                       lfs, options.service),
                      std::nullopt);
}

Result<ShardServer> ShardServer::ServeFromStore(const std::string& store_dir,
                                                const LabelingFunctionSet& lfs,
                                                Options options) {
  auto store = SnapshotStore::Open(store_dir);
  if (!store.ok()) return store.status();
  auto version = store->CurrentVersion();
  if (!version.ok()) return version.status();
  auto state = LoadServingState(store->PathFor(*version), *version, lfs,
                                options.service);
  return Impl::Launch(options, lfs, std::move(state), std::move(*store));
}

uint16_t ShardServer::port() const { return impl_->listener.port(); }

WireServerStats ShardServer::stats() const {
  return impl_->ReadStats();
}

void ShardServer::Shutdown() { impl_->Shutdown(); }

}  // namespace snorkel
