// The repository's benchmark program: runs ONE workload per process and
// writes its metrics as JSON. Every workload gets a fresh process because
// the compiled-scan cache, stem cache, thread pool and metrics registry are
// process-wide; a second workload in the same process would start warm.
//
//   snorkel_bench --workload W --seed N --seconds S --json OUT
//                 [--traced] [--workdir DIR]
//
// Workloads (see benchmark/README.md for why each exists):
//   inproc_fresh    binary CDR stream through the in-process ShardRouter
//   loopback_fresh  the same stream through RemoteShardRouter over two
//                   in-process ShardServers on 127.0.0.1
//   crowd_kclass    K = 5 Dawid-Skene crowd stream through the ShardRouter
//   lf_iterate      the §4.1 edit-one-LF loop, edit to first label
//
// Serving workloads run a warmup (discarded), then a measured closed loop:
// every caller sends its next request as soon as the previous one returns.
// Throughput and request latency both come from that loop. --traced splits
// it into alternating untraced/traced segments (tracing overhead), keeps the
// traced segments' spans (stage breakdown), and afterwards replays the layer
// calls on every 16th traced request's rows.
//
// The benchmark only calls the library's public API and times those calls
// from outside.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/advantage.h"
#include "core/csr_kernels.h"
#include "core/dawid_skene.h"
#include "core/generative_model.h"
#include "core/optimizer.h"
#include "core/structure_learner.h"
#include "lf/applier.h"
#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "net/remote_client.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/incremental_applier.h"
#include "serve/label_service.h"
#include "serve/snapshot.h"
#include "shard/partitioner.h"
#include "shard/shard_router.h"
#include "synth/crossmodal.h"
#include "synth/relation_task.h"
#include "util/hash.h"

#ifndef SNORKEL_BENCH_BUILD_TYPE
#define SNORKEL_BENCH_BUILD_TYPE "unknown"
#endif

namespace snorkel {
namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads --

struct WorkloadSpec {
  const char* name;
  size_t callers;
  size_t batch;
};

// Crowd rows are cheap: at 128 rows per request the router's thread
// handoffs took most of the time and throughput varied by 30% from run to
// run; at 1024 the per-row work dominates.
constexpr WorkloadSpec kWorkloads[] = {
    {"inproc_fresh", 4, 256},
    {"loopback_fresh", 2, 256},
    {"crowd_kclass", 4, 1024},
    {"lf_iterate", 1, 256},
};

// Training settings shared by every binary pipeline run (serving snapshots
// and the lf_iterate loop): the repository's standard Algorithm 1 grid.
constexpr int kGenEpochs = 100;
constexpr double kOptimizerEta = 0.05;
constexpr int kStructureEpochs = 25;
constexpr int kStructureSweepEpochs = 10;
constexpr size_t kStructureMaxRows = 4000;

constexpr double kTrainScale = 0.5;   // serving snapshot's training task
constexpr double kStreamScale = 1.0;  // per-caller stream corpora
constexpr size_t kCrowdItems = 4096;
constexpr size_t kCrowdWorkers = 102;
constexpr int kCrowdClasses = 5;
// Dawid-Skene EM runs exactly this many iterations (tolerance 0), so every
// seed trains the same amount: at the default tolerance seeds 1-10 stop
// after 7 to 19 iterations, and set-up time would follow the seed.
constexpr int kCrowdEmIterations = 20;
constexpr size_t kServingShards = 2;
constexpr size_t kWorkersPerShard = 2;
constexpr int kSetupRepeats = 7;
constexpr double kWarmupShare = 0.15;  // of --seconds, before measuring
constexpr uint64_t kCheckEvery = 64;   // output check vs the oracle
constexpr uint64_t kSampleEvery = 16;  // traced layer replays
constexpr size_t kMaxSamples = 160;
constexpr double kRateWindowS = 1.0;  // closed-loop throughput windows
// lf_iterate reads peak RSS after this many measured iterations: the
// process-wide scan cache gains an entry per LF-program version, so a later
// reading would depend on how many iterations the host's speed allowed.
constexpr size_t kIterateRssAt = 16;
constexpr int kIterateWarmup = 2;

OptimizerOptions BenchOptimizerOptions() {
  OptimizerOptions options;
  options.eta = kOptimizerEta;
  options.structure.epochs = kStructureEpochs;
  options.structure.sweep_epochs = kStructureSweepEpochs;
  options.structure.max_rows = kStructureMaxRows;
  return options;
}

DawidSkeneOptions BenchEmOptions() {
  DawidSkeneOptions options;
  options.max_iters = kCrowdEmIterations;
  options.tol = 0.0;
  return options;
}

// -------------------------------------------------------------- helpers --

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Milliseconds since `start`, then restarts it.
double LapMs(Clock::time_point& start) {
  const Clock::time_point now = Clock::now();
  const double ms = Ms(now - start);
  start = now;
  return ms;
}

/// Linear-interpolated quantile (0 for an empty sample).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

template <typename T>
uint64_t HashBytes(uint64_t h, const std::vector<T>& values) {
  const std::string_view bytes(reinterpret_cast<const char*>(values.data()),
                               values.size() * sizeof(T));
  return HashCombine(h, Fnv1a64(bytes));
}

/// Bitwise identity of a response's model output.
uint64_t HashResponse(const LabelResponse& response) {
  uint64_t h = HashBytes(0, response.posteriors);
  h = HashBytes(h, response.class_posteriors);
  return HashBytes(h, response.hard_labels);
}

/// Bitwise identity of a snapshot's learned parameters (not its LF
/// fingerprints, which change with every re-versioned LF).
uint64_t HashModel(const ModelSnapshot& snapshot) {
  uint64_t h = HashBytes(0, snapshot.acc_weights);
  h = HashBytes(h, snapshot.lab_weights);
  h = HashBytes(h, snapshot.corr_weights);
  h = HashBytes(h, snapshot.ds_class_priors);
  h = HashBytes(h, snapshot.ds_confusions);
  for (const CorrelationPair& pair : snapshot.correlations) {
    h = HashCombine(h, HashCombine(pair.j, pair.k));
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Sum of the process registry's samples named `name` (every live replica's
/// instrument or callback).
double RegistryValue(const std::string& name) {
  double total = 0.0;
  for (const obs::MetricSample& sample :
       obs::MetricsRegistry::Default().Collect()) {
    if (sample.name == name) total += sample.value;
  }
  return total;
}

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// A copy of only the documents `rows` reference, at their original
/// indices: a new Corpus object with a fresh identity, so a replay on it
/// neither reads nor warms any identity- or address-keyed cache the
/// measured traffic uses.
Corpus SparseCopy(const Corpus& corpus, const std::vector<CandidateRef>& rows) {
  std::set<uint32_t> docs;
  for (const CandidateRef& row : rows) docs.insert(row.candidate->span1.doc);
  Corpus slice;
  const uint32_t last = docs.empty() ? 0 : *docs.rbegin();
  for (uint32_t d = 0; d <= last && !docs.empty(); ++d) {
    slice.AddDocument(docs.count(d) ? corpus.document(d) : Document{});
  }
  return slice;
}

// --------------------------------------------------------------- report --

/// Metrics and run facts, written as one JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fact(const std::string& key, const std::string& json_value) {
    facts_.emplace_back(key, json_value);
  }
  /// A validity condition the numbers depend on; `hard` ones make the run
  /// incorrect when they fail, soft ones only warn.
  void Validity(const std::string& name, bool ok, bool hard,
                const std::string& detail) {
    validity_.push_back({name, ok, hard, detail});
    if (!ok) {
      std::fprintf(stderr, "%s validity check %s failed: %s\n",
                   hard ? "HARD" : "soft", name.c_str(), detail.c_str());
    }
  }

  std::string ToJson() const {
    std::string out = "{";
    for (const auto& [key, value] : facts_) {
      out += Quote(key) + ": " + value + ", ";
    }
    out += "\"validity\": [";
    for (size_t i = 0; i < validity_.size(); ++i) {
      const ValidityEntry& v = validity_[i];
      out += (i ? ", " : "") + std::string("{\"name\": ") + Quote(v.name) +
             ", \"ok\": " + (v.ok ? "true" : "false") +
             ", \"hard\": " + (v.hard ? "true" : "false") +
             ", \"detail\": " + Quote(v.detail) + "}";
    }
    out += "], \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const MetricEntry& m = metrics_[i];
      out += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
             ", \"unit\": " + Quote(m.unit) + "}";
    }
    out += "}}\n";
    return out;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out += c;
    }
    return out + "\"";
  }
  static std::string Num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

 private:
  struct MetricEntry {
    std::string name;
    double value;
    std::string unit;
  };
  struct ValidityEntry {
    std::string name;
    bool ok;
    bool hard;
    std::string detail;
  };
  std::vector<MetricEntry> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<ValidityEntry> validity_;
};

// --------------------------------------------------------------- stream --

/// One caller's traffic under the "fresh" stream rule: the caller owns a
/// corpus and walks its candidates in order, in fixed-size batches, as rows
/// of an ever-growing log. At the end of each pass it bumps the corpus
/// identity with mutable_document(0) (O(1), text unchanged), and row i of
/// pass p reports index p·N + i (N = candidates per pass). The compiled-scan
/// cache keys on the identity; the LF column cache keys on row content plus
/// index (salted with the corpus address, which a server can reuse for a
/// re-interned slice). So every pass is new content to both, on either side
/// of the wire. Index-dependent LFs (the crowd workers) vote on each pass's
/// indices as new items.
class Stream {
 public:
  struct Batch {
    const Corpus* corpus;
    const std::vector<CandidateRef>* refs;
    size_t index;
    uint64_t pass;
  };

  Stream(Corpus corpus, const std::vector<Candidate>* candidates,
         size_t batch_size)
      : corpus_(std::move(corpus)), rows_per_pass_(candidates->size()) {
    for (size_t begin = 0; begin < candidates->size(); begin += batch_size) {
      std::vector<CandidateRef> refs;
      const size_t end = std::min(begin + batch_size, candidates->size());
      for (size_t i = begin; i < end; ++i) {
        refs.push_back(CandidateRef{&(*candidates)[i], i});
      }
      batches_.push_back(std::move(refs));
    }
  }

  Batch Next() {
    if (next_ == batches_.size()) {
      corpus_.mutable_document(0);
      for (auto& refs : batches_) {
        for (CandidateRef& ref : refs) ref.index += rows_per_pass_;
      }
      ++pass_;
      next_ = 0;
    }
    const size_t index = next_++;
    return Batch{&corpus_, &batches_[index], index, pass_};
  }

  /// The stream's text; outputs depend on text and row indices only.
  const Corpus& text() const { return corpus_; }
  /// Batch `index` as it was sent in pass `pass`.
  std::vector<CandidateRef> Rows(size_t index, uint64_t pass) const {
    std::vector<CandidateRef> rows = batches_[index];
    for (CandidateRef& row : rows) {
      row.index = row.index - pass_ * rows_per_pass_ + pass * rows_per_pass_;
    }
    return rows;
  }
  uint64_t passes() const { return pass_ + 1; }

 private:
  Corpus corpus_;
  size_t rows_per_pass_;
  std::vector<std::vector<CandidateRef>> batches_;
  size_t next_ = 0;
  uint64_t pass_ = 0;
};

// ------------------------------------------------------------- pipeline --

/// One Figure 2 training pass, timed layer by layer: apply LFs (through the
/// incremental column cache), choose the modeling strategy (Algorithm 1;
/// binary only), fit the label model, capture the snapshot with its LFCP
/// program, and serialize it.
struct PipelineRun {
  ModelSnapshot snapshot;
  std::string bytes;
  LabelMatrix matrix;
  double apply_ms = 0.0;
  double optimizer_ms = 0.0;
  double fit_ms = 0.0;
  double capture_ms = 0.0;
  double encode_ms = 0.0;
  double correlations = 0.0;
};

Result<PipelineRun> RunPipeline(IncrementalApplier& applier,
                                const LabelingFunctionSet& lfs,
                                const Corpus& corpus,
                                const std::vector<Candidate>& rows,
                                int cardinality, double class_balance) {
  PipelineRun run;
  Clock::time_point lap = Clock::now();
  auto matrix = applier.Apply(lfs, corpus, rows);
  if (!matrix.ok()) return matrix.status();
  run.matrix = std::move(*matrix);
  run.apply_ms = LapMs(lap);
  Result<ModelSnapshot> snapshot(Status::Internal("no label model"));
  if (cardinality == 2) {
    auto decision =
        ModelingStrategyOptimizer(BenchOptimizerOptions()).Choose(run.matrix);
    if (!decision.ok()) return decision.status();
    run.optimizer_ms = LapMs(lap);
    std::vector<CorrelationPair> correlations;
    if (decision->strategy == ModelingStrategy::kGenerativeModel) {
      correlations = decision->correlations;
    }
    GenerativeModelOptions gen;
    gen.epochs = kGenEpochs;
    gen.class_balance = class_balance;
    GenerativeModel model(gen);
    Status fit = model.Fit(run.matrix, correlations);
    if (!fit.ok()) return fit;
    run.fit_ms = LapMs(lap);
    run.correlations = static_cast<double>(correlations.size());
    snapshot = ModelSnapshot::Capture(model, lfs.Names(), lfs.Fingerprints());
  } else {
    DawidSkeneModel model(BenchEmOptions());
    Status fit = model.Fit(run.matrix);
    if (!fit.ok()) return fit;
    run.fit_ms = LapMs(lap);
    snapshot = ModelSnapshot::CaptureDawidSkene(model, lfs.Names(),
                                                lfs.Fingerprints());
  }
  if (!snapshot.ok()) return snapshot.status();
  auto program = CompileLfSet(lfs);
  if (program->num_compiled() > 0) snapshot->compiled_lfs = std::move(program);
  run.capture_ms = LapMs(lap);
  run.bytes = SerializeSnapshot(*snapshot);
  run.encode_ms = LapMs(lap);
  run.snapshot = std::move(*snapshot);
  return run;
}

/// Class balance from the labeled dev split, as the pipeline estimates it.
double DevClassBalance(const RelationTask& task) {
  if (task.dev_idx.empty()) return 0.5;
  double pos = 0.0;
  for (size_t i : task.dev_idx) pos += task.gold[i] > 0 ? 1.0 : 0.0;
  return std::clamp(pos / static_cast<double>(task.dev_idx.size()), 0.02,
                    0.98);
}

std::vector<Candidate> Rows(const RelationTask& task,
                            const std::vector<size_t>& idx, size_t limit) {
  std::vector<Candidate> rows;
  for (size_t i = 0; i < idx.size() && rows.size() < limit; ++i) {
    rows.push_back(task.candidates[idx[i]]);
  }
  return rows;
}

// ----------------------------------------------------------------- load --

using LabelFn = std::function<Result<LabelResponse>(const LabelRequest&)>;

struct CheckRecord {
  size_t caller;
  size_t batch;
  uint64_t pass;
  uint64_t hash;
};

/// A traced request whose layer calls are replayed after the load phases.
struct Sample {
  size_t caller;
  size_t batch;
  uint64_t pass;
  double service_ms;
};

/// One finished request: when (seconds since the phase began), how many
/// candidates it labeled (0 on error), and its latency.
struct Completion {
  double at_s;
  double rows;
  double latency_ms;
};

/// What one caller thread saw during one phase.
struct CallerLog {
  uint64_t requests = 0;
  uint64_t candidates = 0;
  uint64_t errors = 0;
  std::vector<Completion> completions;
  std::vector<CheckRecord> checks;
  std::vector<Sample> samples;
};

struct PhaseResult {
  double seconds = 0.0;
  CallerLog total;
};

void Merge(CallerLog& into, CallerLog&& from) {
  into.requests += from.requests;
  into.candidates += from.candidates;
  into.errors += from.errors;
  auto append = [](auto& a, auto& b) {
    a.insert(a.end(), std::make_move_iterator(b.begin()),
             std::make_move_iterator(b.end()));
  };
  append(into.completions, from.completions);
  append(into.checks, from.checks);
  append(into.samples, from.samples);
}

struct PhaseOptions {
  bool traced = false;   // root span per request
  bool sample = false;   // record replay samples
  Clock::time_point origin{};  // phase start (set by the phase)
};

std::vector<double> Latencies(const std::vector<Completion>& completions) {
  std::vector<double> out;
  for (const Completion& c : completions) out.push_back(c.latency_ms);
  return out;
}

/// Median, over consecutive windows of `window_s` in [0, seconds), of the
/// candidates labeled per second (a trailing partial window is dropped): a
/// host stall costs one window, not the whole figure.
double MedianWindowRate(const std::vector<Completion>& completions,
                        double seconds, double window_s) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(seconds / window_s));
  std::vector<double> rates(n, 0.0);
  for (const Completion& c : completions) {
    const size_t w = static_cast<size_t>(c.at_s / window_s);
    if (w < n) rates[w] += c.rows / window_s;
  }
  return Quantile(rates, 0.5);
}

/// Runs `call` under a fresh root span "bench.request" when `traced`, so the
/// program's own spans on this thread fire and hang under it.
template <typename Call>
auto MaybeTraced(bool traced, Call&& call) {
  if (!traced) return call();
  obs::ScopedTraceContext context(obs::TraceContext{obs::MintId(), 0});
  obs::TraceSpan root("bench.request");
  return call();
}

/// Sends `caller`'s next batch through the tier and logs the result.
void SendNext(const LabelFn& label, Stream& stream, size_t caller,
              const PhaseOptions& options, CallerLog& log) {
  const Stream::Batch batch = stream.Next();
  LabelRequest request;
  request.corpus = batch.corpus;
  request.candidate_refs = batch.refs;
  const Clock::time_point start = Clock::now();
  const Result<LabelResponse> response =
      MaybeTraced(options.traced, [&] { return label(request); });
  const Clock::time_point done = Clock::now();
  const double service_ms = Ms(done - start);
  const uint64_t seq = ++log.requests;
  log.completions.push_back(
      {Ms(done - options.origin) / 1e3,
       response.ok() ? static_cast<double>(batch.refs->size()) : 0.0,
       service_ms});
  if (!response.ok()) {
    if (log.errors++ == 0) {
      std::fprintf(stderr, "request failed: %s\n",
                   response.status().ToString().c_str());
    }
    return;
  }
  log.candidates += batch.refs->size();
  if (seq % kCheckEvery == 0) {
    log.checks.push_back(
        {caller, batch.index, batch.pass, HashResponse(*response)});
  }
  if (options.sample && seq % kSampleEvery == 0) {
    log.samples.push_back({caller, batch.index, batch.pass, service_ms});
  }
}

/// Closed loop: every caller sends its next request as soon as the
/// previous one returns, until `seconds` have passed.
PhaseResult RunClosed(const LabelFn& label, std::vector<Stream>& streams,
                      double seconds, PhaseOptions options) {
  std::vector<CallerLog> logs(streams.size());
  const Clock::time_point start = Clock::now();
  options.origin = start;
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < streams.size(); ++t) {
    threads.emplace_back([&, t] {
      while (Clock::now() < stop) {
        SendNext(label, streams[t], t, options, logs[t]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  PhaseResult result;
  result.seconds = Ms(Clock::now() - start) / 1e3;
  for (CallerLog& log : logs) Merge(result.total, std::move(log));
  return result;
}

// --------------------------------------------------------------- traces --

/// Drains the process span ring every 10 ms while running, so a traced
/// phase never overflows it.
class SpanDrain {
 public:
  SpanDrain() = default;
  SpanDrain(const SpanDrain&) = delete;
  SpanDrain& operator=(const SpanDrain&) = delete;
  ~SpanDrain() { Stop(); }

  void Start() {
    stop_.store(false);
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        Append(obs::CollectSpans(0, /*drain=*/true));
      }
    });
  }

  /// Stops draining and returns every span collected.
  std::vector<obs::Span> Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    Append(obs::CollectSpans(0, /*drain=*/true));
    std::vector<obs::Span> out;
    out.swap(spans_);
    return out;
  }

 private:
  void Append(std::vector<obs::Span> batch) {
    spans_.insert(spans_.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
  }

  std::atomic<bool> stop_{false};
  std::vector<obs::Span> spans_;  // written by the drain thread only
  std::thread thread_;
};

/// Self time (ms) of every span, grouped by name, over the traces whose
/// root span is named `root`. Self time is the span's duration minus the
/// part of it covered by its children (their union: fan-out children run
/// concurrently).
std::map<std::string, std::vector<double>> SelfTimes(
    const std::vector<obs::Span>& spans, const std::string& root) {
  std::unordered_map<uint64_t, std::vector<const obs::Span*>> traces;
  for (const obs::Span& span : spans) traces[span.trace_id].push_back(&span);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [trace_id, members] : traces) {
    bool rooted = false;
    std::unordered_map<uint64_t, std::vector<const obs::Span*>> children;
    for (const obs::Span* span : members) {
      if (span->parent_id == 0) rooted = span->name == root;
      children[span->parent_id].push_back(span);
    }
    if (!rooted) continue;
    for (const obs::Span* span : members) {
      std::vector<std::pair<uint64_t, uint64_t>> covered;
      auto it = children.find(span->span_id);
      if (it != children.end()) {
        for (const obs::Span* child : it->second) {
          const uint64_t lo = std::max(child->start_ns, span->start_ns);
          const uint64_t hi = std::min(child->end_ns, span->end_ns);
          if (lo < hi) covered.emplace_back(lo, hi);
        }
      }
      std::sort(covered.begin(), covered.end());
      uint64_t busy = 0;
      uint64_t reach = 0;
      for (const auto& [lo, hi] : covered) {
        const uint64_t from = std::max(lo, reach);
        if (hi > from) busy += hi - from;
        reach = std::max(reach, hi);
      }
      const uint64_t duration = span->end_ns - span->start_ns;
      out[span->name].push_back(
          static_cast<double>(duration - std::min(busy, duration)) / 1e6);
    }
  }
  return out;
}

// ----------------------------------------------------------------- tier --

/// The serving tier a workload measures: an in-process ShardRouter, or a
/// RemoteShardRouter over in-process ShardServers on loopback. Members are
/// destroyed router first, servers last. The routers stay inside the Result
/// their factory returned: their move constructors need the private Impl.
struct Tier {
  std::vector<ShardServer> servers;
  std::unique_ptr<Result<RemoteShardRouter>> remote;
  std::unique_ptr<Result<ShardRouter>> router;

  LabelFn label() {
    if (router) {
      return [this](const LabelRequest& r) { return (*router)->Label(r); };
    }
    return [this](const LabelRequest& r) { return (*remote)->Label(r); };
  }
};

/// Counters read before and after a measured window.
struct Counters {
  double columns_reused = 0.0;
  double columns_computed = 0.0;
  double scan_hits = 0.0;
  double scan_misses = 0.0;
  double scan_evictions = 0.0;
  double router_requests = 0.0;
  double fused_jobs = 0.0;
  double failovers = 0.0;
  double client_requests = 0.0;
  double pooled_reuses = 0.0;
  double hedged_attempts = 0.0;

  static Counters Read(const Tier* tier) {
    Counters c;
    c.columns_reused = RegistryValue("snorkel_cache_columns_reused_total");
    c.columns_computed = RegistryValue("snorkel_cache_columns_computed_total");
    const CompiledScanCacheStats scan = GetCompiledScanCacheStats();
    c.scan_hits = static_cast<double>(scan.hits);
    c.scan_misses = static_cast<double>(scan.misses);
    c.scan_evictions = static_cast<double>(scan.evictions);
    if (tier != nullptr && tier->router) {
      const RouterStats stats = (*tier->router)->stats();
      c.router_requests = static_cast<double>(stats.num_requests);
      c.fused_jobs = static_cast<double>(stats.fused_jobs);
    }
    if (tier != nullptr && tier->remote) {
      const RemoteRouterStats stats = (*tier->remote)->stats();
      c.router_requests = static_cast<double>(stats.num_requests);
      c.failovers = static_cast<double>(stats.failovers);
      for (const RemoteShardClient::Stats& shard : stats.per_shard) {
        c.client_requests += static_cast<double>(shard.requests);
        c.pooled_reuses += static_cast<double>(shard.pooled_reuses);
        c.hedged_attempts += static_cast<double>(shard.hedged_attempts);
      }
    }
    return c;
  }

  Counters Minus(const Counters& before) const {
    Counters d = *this;
    d.columns_reused -= before.columns_reused;
    d.columns_computed -= before.columns_computed;
    d.scan_hits -= before.scan_hits;
    d.scan_misses -= before.scan_misses;
    d.scan_evictions -= before.scan_evictions;
    d.router_requests -= before.router_requests;
    d.fused_jobs -= before.fused_jobs;
    d.failovers -= before.failovers;
    d.client_requests -= before.client_requests;
    d.pooled_reuses -= before.pooled_reuses;
    d.hedged_attempts -= before.hedged_attempts;
    return d;
  }

  double column_reuse() const {
    return Ratio(columns_reused, columns_reused + columns_computed);
  }
};

// -------------------------------------------------------------- replays --

/// Layer calls replayed on one request's rows, each on its own fresh copy
/// of the documents those rows reference (SparseCopy), so no replay reads
/// or warms a cache the measured traffic uses.
struct LayerReplay {
  std::vector<double> label_ms, apply_ms, infer_us, partition_us;
  std::vector<double> encode_request_us, decode_request_us;
  std::vector<double> encode_response_us, decode_response_us;
  std::vector<double> request_bytes, response_bytes;
  std::vector<double> client_label_ms, router_overhead_ms;
  uint64_t errors = 0;

  /// `service_ms` >= 0 is the measured tier latency of the same rows; the
  /// difference to the replayed LabelService call is router overhead.
  void Run(LabelService& service, const LFApplier& applier,
           const LabelingFunctionSet& lfs, const Corpus& text,
           const std::vector<CandidateRef>& rows, RemoteShardClient* client,
           double service_ms) {
    auto us = [](Clock::duration d) { return Ms(d) * 1e3; };
    LabelResponse response;
    {
      const Corpus slice = SparseCopy(text, rows);
      LabelRequest request;
      request.corpus = &slice;
      request.candidate_refs = &rows;
      const Clock::time_point start = Clock::now();
      auto labeled = service.Label(request);
      label_ms.push_back(Ms(Clock::now() - start));
      if (!labeled.ok()) {
        ++errors;
        return;
      }
      response = std::move(*labeled);
      if (service_ms >= 0.0) {
        router_overhead_ms.push_back(service_ms - label_ms.back());
      }
    }
    const Corpus slice = SparseCopy(text, rows);
    Clock::time_point start = Clock::now();
    auto matrix = applier.ApplyRefs(lfs, slice, rows);
    apply_ms.push_back(Ms(Clock::now() - start));
    if (!matrix.ok()) {
      ++errors;
      return;
    }
    start = Clock::now();
    if (service.cardinality() == 2) {
      (void)service.model().PredictProba(*matrix, true);
    } else {
      (void)service.ds_model().PredictProbaFlat(*matrix);
    }
    infer_us.push_back(us(Clock::now() - start));

    start = Clock::now();
    (void)CandidatePartitioner(kServingShards).PartitionRefs(rows);
    partition_us.push_back(us(Clock::now() - start));

    start = Clock::now();
    const std::string request_frame =
        EncodeFrame(EncodeLabelRequest(1, slice, rows, false, true, 0));
    encode_request_us.push_back(us(Clock::now() - start));
    start = Clock::now();
    auto request_decoded = DecodeFrame(request_frame);
    const bool request_ok =
        request_decoded.ok() && DecodeLabelRequest(*request_decoded).ok();
    decode_request_us.push_back(us(Clock::now() - start));
    start = Clock::now();
    const std::string response_frame =
        EncodeFrame(EncodeLabelResponse(1, response));
    encode_response_us.push_back(us(Clock::now() - start));
    start = Clock::now();
    auto response_decoded = DecodeFrame(response_frame);
    const bool response_ok =
        response_decoded.ok() && DecodeLabelResponse(*response_decoded).ok();
    decode_response_us.push_back(us(Clock::now() - start));
    request_bytes.push_back(static_cast<double>(request_frame.size()));
    response_bytes.push_back(static_cast<double>(response_frame.size()));
    if (!request_ok || !response_ok) ++errors;

    if (client != nullptr) {
      const Corpus remote_slice = SparseCopy(text, rows);
      start = Clock::now();
      if (!client->Label(remote_slice, rows, false, true, 0).ok()) ++errors;
      client_label_ms.push_back(Ms(Clock::now() - start));
    }
  }

  void Emit(Report& report) const {
    report.Metric("serve.label_ms", Quantile(label_ms, 0.5), "ms");
    report.Metric("serve.label_p99_ms", Quantile(label_ms, 0.99), "ms");
    report.Metric("lf.apply_ms", Quantile(apply_ms, 0.5), "ms");
    report.Metric("core.infer_us", Quantile(infer_us, 0.5), "us");
    report.Metric("shard.partition_us", Quantile(partition_us, 0.5), "us");
    report.Metric("net.encode_request_us", Quantile(encode_request_us, 0.5),
                  "us");
    report.Metric("net.decode_request_us", Quantile(decode_request_us, 0.5),
                  "us");
    report.Metric("net.encode_response_us",
                  Quantile(encode_response_us, 0.5), "us");
    report.Metric("net.decode_response_us",
                  Quantile(decode_response_us, 0.5), "us");
    report.Metric("net.request_bytes", Quantile(request_bytes, 0.5), "bytes");
    report.Metric("net.response_bytes", Quantile(response_bytes, 0.5),
                  "bytes");
    if (!client_label_ms.empty()) {
      report.Metric("net.client_label_ms", Quantile(client_label_ms, 0.5),
                    "ms");
    }
    if (!router_overhead_ms.empty()) {
      report.Metric("shard.router_overhead_ms",
                    Quantile(router_overhead_ms, 0.5), "ms");
    }
  }
};

/// Span self-time metrics: name -> (metric, also report p99).
void EmitSpanMetrics(Report& report,
                     const std::map<std::string, std::vector<double>>& self) {
  struct SpanMetric {
    const char* span;
    const char* metric;
    const char* p99_metric;  // nullptr: p50 only
  };
  constexpr SpanMetric kSpanMetrics[] = {
      {"service.lf_apply", "service.lf_apply_ms", "service.lf_apply_p99_ms"},
      {"service.inference", "service.inference_ms", nullptr},
      {"shard.queue_wait", "shard.queue_wait_ms", "shard.queue_wait_p99_ms"},
      {"shard.serve", "shard.serve_ms", nullptr},
      {"client.send", "client.send_ms", nullptr},
      {"client.recv", "client.recv_ms", nullptr},
      {"client.decode", "client.decode_ms", nullptr},
      {"server.decode", "server.decode_ms", nullptr},
      {"server.intern", "server.intern_ms", nullptr},
      {"server.queue_wait", "server.queue_wait_ms", nullptr},
      {"server.label", "server.label_ms", nullptr},
      {"server.encode", "server.encode_ms", nullptr},
      {"router.placement", "router.placement_ms", nullptr},
      {"router.request", "router.request_self_ms", nullptr},
  };
  for (const SpanMetric& m : kSpanMetrics) {
    auto it = self.find(m.span);
    if (it == self.end()) continue;
    report.Metric(m.metric, Quantile(it->second, 0.5), "ms");
    if (m.p99_metric != nullptr) {
      report.Metric(m.p99_metric, Quantile(it->second, 0.99), "ms");
    }
  }
}

// -------------------------------------------------------------- serving --

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool traced = false;
  std::string json_path;
  std::string workdir = ".";
};

/// Generated inputs of a serving workload. The training task and the
/// stream corpora come from different seeds: the tier labels content it
/// was not trained on.
struct ServingInputs {
  int cardinality = 2;
  LabelingFunctionSet lfs;
  Corpus train_corpus;
  std::vector<Candidate> train_rows;
  double class_balance = 0.5;
  std::vector<Stream> streams;
  /// Owners the LFs and streams point into (KB, candidate vectors).
  std::vector<std::unique_ptr<RelationTask>> tasks;
  std::unique_ptr<CrowdServingTask> crowd;
};

Result<ServingInputs> MakeServingInputs(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  ServingInputs in;
  if (std::string(spec.name) == "crowd_kclass") {
    CrowdServingOptions options;
    options.num_items = kCrowdItems;
    options.num_workers = kCrowdWorkers;
    options.cardinality = kCrowdClasses;
    options.seed = args.seed;
    auto crowd = MakeCrowdServingTask(options);
    if (!crowd.ok()) return crowd.status();
    in.crowd = std::make_unique<CrowdServingTask>(std::move(*crowd));
    in.cardinality = in.crowd->cardinality;
    in.lfs = in.crowd->lfs;
    in.train_corpus = in.crowd->corpus;
    in.train_rows = in.crowd->candidates;
    for (size_t t = 0; t < spec.callers; ++t) {
      in.streams.emplace_back(in.crowd->corpus, &in.crowd->candidates,
                              spec.batch);
    }
    return in;
  }
  auto train = MakeCdrTask(args.seed, kTrainScale);
  if (!train.ok()) return train.status();
  in.tasks.push_back(std::make_unique<RelationTask>(std::move(*train)));
  const RelationTask& task = *in.tasks.back();
  in.lfs = task.lfs;
  in.train_corpus = task.corpus;
  in.train_rows = Rows(task, task.train_idx, task.train_idx.size());
  in.class_balance = DevClassBalance(task);
  for (size_t t = 0; t < spec.callers; ++t) {
    auto stream = MakeCdrTask(args.seed + 1 + t, kStreamScale);
    if (!stream.ok()) return stream.status();
    in.tasks.push_back(std::make_unique<RelationTask>(std::move(*stream)));
    RelationTask& owner = *in.tasks.back();
    in.streams.emplace_back(std::move(owner.corpus), &owner.candidates,
                            spec.batch);
  }
  return in;
}

LabelService::Options ReplicaOptions() {
  LabelService::Options options;
  options.num_threads = 1;
  return options;
}

/// One timed set-up: train the snapshot, ship it as a file, start the tier
/// from the file, and get the first answer.
struct SetupRun {
  Tier tier;
  PipelineRun pipeline;
  double setup_s = 0.0;
  double server_start_ms = 0.0;
};

Result<SetupRun> SetUp(const Args& args, ServingInputs& in,
                       const std::string& path) {
  const bool loopback = std::string(args.spec->name) == "loopback_fresh";
  // Input generation, untimed: a fresh copy so no set-up reuses another's
  // identity-keyed cache entries.
  const Corpus corpus = in.train_corpus;
  IncrementalApplier applier(IncrementalApplier::Options{
      .num_threads = 0, .cardinality = in.cardinality});

  SetupRun run;
  const Clock::time_point start = Clock::now();
  auto pipeline = RunPipeline(applier, in.lfs, corpus, in.train_rows,
                              in.cardinality, in.class_balance);
  if (!pipeline.ok()) return pipeline.status();
  run.pipeline = std::move(*pipeline);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::IOError("cannot write " + path);
  const size_t written = std::fwrite(run.pipeline.bytes.data(), 1,
                                     run.pipeline.bytes.size(), file);
  if (std::fclose(file) != 0 || written != run.pipeline.bytes.size()) {
    return Status::IOError("short write to " + path);
  }
  if (loopback) {
    const Clock::time_point serve_start = Clock::now();
    std::vector<std::pair<std::string, uint16_t>> endpoints;
    for (size_t s = 0; s < kServingShards; ++s) {
      ShardServer::Options options;
      options.num_workers = kWorkersPerShard;
      options.service = ReplicaOptions();
      auto server = ShardServer::Serve(path, in.lfs, options);
      if (!server.ok()) return server.status();
      endpoints.emplace_back("127.0.0.1", server->port());
      run.tier.servers.push_back(std::move(*server));
    }
    run.server_start_ms = Ms(Clock::now() - serve_start);
    RemoteShardRouter::Options options;
    options.replication = 2;
    options.client.max_pooled_connections = args.spec->callers;
    run.tier.remote.reset(new Result<RemoteShardRouter>(
        RemoteShardRouter::Create(endpoints, options)));
    if (!run.tier.remote->ok()) return run.tier.remote->status();
  } else {
    ShardRouter::Options options;
    options.num_shards = kServingShards;
    options.workers_per_shard = kWorkersPerShard;
    options.service = ReplicaOptions();
    run.tier.router.reset(new Result<ShardRouter>(
        ShardRouter::FromFile(path, in.lfs, options)));
    if (!run.tier.router->ok()) return run.tier.router->status();
  }
  const Stream::Batch first = in.streams[0].Next();
  LabelRequest request;
  request.corpus = first.corpus;
  request.candidate_refs = first.refs;
  auto answered = run.tier.label()(request);
  if (!answered.ok()) return answered.status();
  run.setup_s = Ms(Clock::now() - start) / 1e3;
  return run;
}

/// Re-labels every checked batch on an oracle service (unsharded, cache
/// off, interpreted LFs) and compares bitwise. Returns the mismatches.
uint64_t CheckOutputs(LabelService& oracle, const std::vector<Stream>& streams,
                      const std::vector<CheckRecord>& checks) {
  std::map<std::tuple<size_t, size_t, uint64_t>, uint64_t> expected;
  uint64_t mismatches = 0;
  for (const CheckRecord& check : checks) {
    const auto key = std::make_tuple(check.caller, check.batch, check.pass);
    auto it = expected.find(key);
    if (it == expected.end()) {
      const Stream& stream = streams[check.caller];
      const std::vector<CandidateRef> rows =
          stream.Rows(check.batch, check.pass);
      LabelRequest request;
      request.corpus = &stream.text();
      request.candidate_refs = &rows;
      auto response = oracle.Label(request);
      it = expected.emplace(key, response.ok() ? HashResponse(*response) : 0)
               .first;
    }
    if (it->second != check.hash) ++mismatches;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "%llu of %zu checked responses differ from the "
                 "oracle\n", static_cast<unsigned long long>(mismatches),
                 checks.size());
  }
  return mismatches;
}

/// Algorithm 1's ε grid {η, 2η, ..., 1/2}, as the optimizer builds it.
std::vector<double> EpsilonGrid() {
  std::vector<double> grid;
  const int steps = static_cast<int>(0.5 / kOptimizerEta);
  for (int i = 1; i <= steps; ++i) grid.push_back(i * kOptimizerEta);
  return grid;
}

/// Replays the optimizer's two stages separately on `matrix` (traced runs).
void ReplayOptimizerStages(const LabelMatrix& matrix,
                           std::vector<double>& advantage_us,
                           std::vector<double>& sweep_ms) {
  const OptimizerOptions options = BenchOptimizerOptions();
  Clock::time_point start = Clock::now();
  (void)PredictedAdvantage(matrix, options.advantage);
  advantage_us.push_back(Ms(Clock::now() - start) * 1e3);
  start = Clock::now();
  (void)StructureLearner(options.structure).Sweep(matrix, EpsilonGrid());
  sweep_ms.push_back(Ms(Clock::now() - start));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Facts every result carries, plus the load totals.
void ReportRun(Report& report, const Args& args, uint64_t attempted,
               uint64_t failed) {
  report.Fact("workload", Report::Quote(args.spec->name));
  report.Fact("seed", std::to_string(args.seed));
  report.Fact("seconds", Report::Num(args.seconds));
  report.Fact("traced", args.traced ? "true" : "false");
  report.Fact("attempted", std::to_string(attempted));
  report.Fact("failed", std::to_string(failed));
  report.Fact("failed_frac",
              Report::Num(Ratio(static_cast<double>(failed),
                                static_cast<double>(attempted))));
}

int RunServing(const Args& args, Report& report) {
  const WorkloadSpec& spec = *args.spec;
  const bool loopback = std::string(spec.name) == "loopback_fresh";
  auto inputs = MakeServingInputs(args);
  if (!inputs.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 inputs.status().ToString().c_str());
    return 2;
  }
  ServingInputs& in = *inputs;
  const bool binary = in.cardinality == 2;
  const std::string path = args.workdir + "/" + spec.name + ".snk";

  // ---- Set-up, several times; the last tier serves the load phases. ----
  std::vector<double> setup_s, train_s, apply_ms, optimizer_ms, fit_ms;
  std::vector<double> encode_ms, decode_ms, create_ms, snapshot_bytes;
  std::vector<double> server_start_ms, correlations;
  std::vector<double> advantage_us, sweep_ms;
  std::set<uint64_t> checksums;
  uint64_t failed = 0;
  std::optional<SetupRun> kept;
  for (int r = 0; r < kSetupRepeats; ++r) {
    kept.reset();  // The previous tier shuts down before the next set-up.
    auto run = SetUp(args, in, path);
    if (!run.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   run.status().ToString().c_str());
      return 2;
    }
    const PipelineRun& p = run->pipeline;
    setup_s.push_back(run->setup_s);
    train_s.push_back(
        (p.apply_ms + p.optimizer_ms + p.fit_ms + p.capture_ms + p.encode_ms) /
        1e3);
    apply_ms.push_back(p.apply_ms);
    optimizer_ms.push_back(p.optimizer_ms);
    fit_ms.push_back(p.fit_ms);
    encode_ms.push_back(p.encode_ms);
    snapshot_bytes.push_back(static_cast<double>(p.bytes.size()));
    correlations.push_back(p.correlations);
    server_start_ms.push_back(run->server_start_ms);
    checksums.insert(p.snapshot.CanonicalChecksum());
    // Replayed outside the set-up timer: the two steps the tier's file load
    // runs, measured alone.
    Clock::time_point lap = Clock::now();
    auto decoded = DeserializeSnapshot(p.bytes);
    decode_ms.push_back(LapMs(lap));
    if (!decoded.ok() ||
        !LabelService::Create(*decoded, in.lfs, ReplicaOptions()).ok()) {
      ++failed;
    }
    create_ms.push_back(LapMs(lap));
    if (args.traced && binary) {
      ReplayOptimizerStages(p.matrix, advantage_us, sweep_ms);
    }
    kept.emplace(std::move(*run));
  }
  if (checksums.size() != 1) {
    std::fprintf(stderr, "set-ups trained different snapshots\n");
    failed += checksums.size() - 1;
  }
  Tier& tier = kept->tier;
  const LabelFn label = tier.label();

  // ---- Load: a warmup, then the measured closed loop. ----
  const double warmup_s = kWarmupShare * args.seconds;
  const double measure_s = args.seconds - warmup_s;
  CallerLog all;
  PhaseResult warm = RunClosed(label, in.streams, warmup_s, {});
  Merge(all, std::move(warm.total));

  const Counters before = Counters::Read(&tier);
  PhaseResult measured;
  double traced_cps[2] = {0.0, 0.0};
  std::vector<obs::Span> spans;
  if (!args.traced) {
    measured = RunClosed(label, in.streams, measure_s, {});
  } else {
    // Alternating untraced / traced segments: the difference is what
    // tracing costs this workload's throughput. The traced segments' spans
    // give the stage breakdown, and their requests are the replay samples.
    constexpr int kSegments = 8;
    SpanDrain drain;
    drain.Start();
    double candidates[2] = {0.0, 0.0};
    double seconds[2] = {0.0, 0.0};
    for (int seg = 0; seg < kSegments; ++seg) {
      const bool on = seg % 2 == 1;
      obs::SetTracingEnabled(on);
      PhaseResult part =
          RunClosed(label, in.streams, measure_s / kSegments, {on, on});
      candidates[on] += static_cast<double>(part.total.candidates);
      seconds[on] += part.seconds;
      measured.seconds += part.seconds;
      Merge(measured.total, std::move(part.total));
    }
    obs::SetTracingEnabled(false);
    spans = drain.Stop();
    for (int on = 0; on < 2; ++on) {
      traced_cps[on] = Ratio(candidates[on], seconds[on]);
    }
  }
  const Counters delta = Counters::Read(&tier).Minus(before);
  const double cache_bytes = RegistryValue("snorkel_cache_bytes");
  const double peak_rss_mb = PeakRssMb();
  const double measured_rps = Ratio(
      static_cast<double>(measured.total.requests), measured.seconds);
  const std::vector<Sample> samples = measured.total.samples;
  // Untraced throughput is a median over 1 s windows; the traced loop
  // alternates modes, so only its overall rate means anything.
  const double throughput =
      args.traced ? Ratio(static_cast<double>(measured.total.candidates),
                          measured.seconds)
                  : MedianWindowRate(measured.total.completions, measure_s,
                                     kRateWindowS);
  const std::vector<double> latencies = Latencies(measured.total.completions);
  const double p50 = Quantile(latencies, 0.5);
  const double p99 = Quantile(latencies, 0.99);
  const size_t latency_samples = latencies.size();
  Merge(all, std::move(measured.total));

  // ---- Output checks, after the timed phases. ----
  LabelService::Options oracle_options;
  oracle_options.num_threads = 1;
  oracle_options.use_incremental_cache = false;
  oracle_options.use_compiled_lfs = false;
  auto oracle =
      LabelService::Create(kept->pipeline.snapshot, in.lfs, oracle_options);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle creation failed: %s\n",
                 oracle.status().ToString().c_str());
    return 2;
  }
  failed += all.errors + CheckOutputs(*oracle, in.streams, all.checks);

  // ---- Traced runs: replay the layer calls on sampled requests' rows. ----
  if (args.traced) {
    auto service =
        LabelService::Create(kept->pipeline.snapshot, in.lfs, ReplicaOptions());
    if (!service.ok()) return 2;
    const LFApplier applier(LFApplier::Options{
        .num_threads = 1,
        .cardinality = in.cardinality,
        .use_compiled = true,
        .compiled_program = kept->pipeline.snapshot.compiled_lfs});
    std::optional<RemoteShardClient> client;
    if (loopback) {
      RemoteShardClient::Options options;
      options.port = tier.servers[0].port();
      client.emplace(RemoteShardClient::Create(options));
    }
    LayerReplay replay;
    const size_t stride = std::max<size_t>(1, samples.size() / kMaxSamples);
    for (size_t i = 0; i < samples.size(); i += stride) {
      const Sample& s = samples[i];
      const Stream& stream = in.streams[s.caller];
      replay.Run(*service, applier, in.lfs, stream.text(),
                 stream.Rows(s.batch, s.pass), client ? &*client : nullptr,
                 s.service_ms);
    }
    failed += replay.errors;
    replay.Emit(report);
    EmitSpanMetrics(report, SelfTimes(spans, loopback ? "router.request"
                                                      : "bench.request"));
    if (binary) {
      report.Metric("core.advantage_us", Median(advantage_us), "us");
      report.Metric("core.structure_sweep_ms", Median(sweep_ms), "ms");
    }
    report.Metric("obs.trace_overhead_pct",
                  100.0 * Ratio(traced_cps[0] - traced_cps[1], traced_cps[0]),
                  "%");
  }
  for (auto& server : tier.servers) server.Shutdown();

  ReportRun(report, args, all.requests, failed);
  report.Fact("measured_rps", Report::Num(measured_rps));
  report.Fact("stream_passes", std::to_string(in.streams[0].passes()));

  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("throughput_cps", throughput, "cand/s");
  report.Metric("p50_ms", p50, "ms");
  report.Metric("p99_ms", p99, "ms");
  report.Metric("peak_rss_mb", peak_rss_mb, "MB");

  report.Metric("pipeline.train_snapshot_s", Median(train_s), "s");
  report.Metric("serve.incremental_apply_ms", Median(apply_ms), "ms");
  report.Metric("core.label_model_fit_ms", Median(fit_ms), "ms");
  if (binary) {
    report.Metric("core.optimizer_ms", Median(optimizer_ms), "ms");
    report.Metric("core.correlations", Median(correlations), "count");
  }
  report.Metric("serve.snapshot_encode_ms", Median(encode_ms), "ms");
  report.Metric("serve.snapshot_decode_ms", Median(decode_ms), "ms");
  report.Metric("serve.snapshot_bytes", Median(snapshot_bytes), "bytes");
  report.Metric("serve.service_create_ms", Median(create_ms), "ms");
  report.Metric("serve.column_reuse_ratio", delta.column_reuse(), "ratio");
  report.Metric("serve.cache_bytes", cache_bytes, "bytes");
  report.Metric("lf.scan_hit_ratio",
                Ratio(delta.scan_hits, delta.scan_hits + delta.scan_misses),
                "ratio");
  report.Metric("lf.scan_evictions", delta.scan_evictions, "count");
  report.Metric("obs.spans_dropped", static_cast<double>(obs::DroppedSpans()),
                "count");
  report.Metric("bench.samples", static_cast<double>(latency_samples),
                "count");
  if (loopback) {
    report.Metric("net.server_start_ms", Median(server_start_ms), "ms");
    report.Metric("net.pooled_reuse_ratio",
                  Ratio(delta.pooled_reuses, delta.client_requests), "ratio");
    report.Metric("net.failovers", delta.failovers, "count");
    report.Metric("net.hedged_attempts", delta.hedged_attempts, "count");
  } else {
    report.Metric("shard.fused_per_request",
                  Ratio(delta.fused_jobs, delta.router_requests), "ratio");
  }

  report.Validity("serve.column_reuse_ratio", delta.column_reuse() <= 0.01,
                  true, "fresh stream must not reuse LF columns: " +
                            Report::Num(delta.column_reuse()));
  if (loopback) {
    const double pooled = Ratio(delta.pooled_reuses, delta.client_requests);
    report.Validity("net.pooled_reuse_ratio", pooled >= 0.99, true,
                    Report::Num(pooled));
    report.Validity("net.failovers", delta.failovers == 0.0, true,
                    Report::Num(delta.failovers));
    report.Validity("net.hedged_attempts", delta.hedged_attempts == 0.0, true,
                    Report::Num(delta.hedged_attempts));
  }
  report.Validity("obs.spans_dropped", obs::DroppedSpans() == 0, true,
                  std::to_string(obs::DroppedSpans()));
  std::remove(path.c_str());
  return 0;
}

// ------------------------------------------------------------ lf_iterate --

/// `lfs` with LF `target` re-versioned: same behaviour (and compile spec),
/// new fingerprint — the §4.1 "edit one LF" step.
LabelingFunctionSet Reversion(const LabelingFunctionSet& lfs, size_t target,
                              const std::string& version) {
  LabelingFunctionSet out;
  for (size_t j = 0; j < lfs.size(); ++j) {
    const LabelingFunction& lf = lfs.at(j);
    if (j != target) {
      out.Add(lf);
      continue;
    }
    LabelingFunction edited(
        lf.name(), version,
        [&lf](const CandidateView& view) { return lf.Apply(view); });
    edited.AttachCompileSpec(lf.compile_spec());
    out.Add(std::move(edited));
  }
  return out;
}

/// One edit-to-first-label pass after the LF apply: Algorithm 1, fit,
/// capture, encode (RunPipeline), then decode, create the service and label
/// the dev batch.
struct IterationRun {
  PipelineRun pipeline;
  double decode_ms = 0.0;
  double create_ms = 0.0;
  double label_ms = 0.0;
  uint64_t model_hash = 0;
  uint64_t dev_hash = 0;
  std::optional<LabelService> service;
};

Result<IterationRun> Iterate(IncrementalApplier& applier,
                             const LabelingFunctionSet& lfs,
                             const Corpus& corpus,
                             const std::vector<Candidate>& train,
                             const std::vector<CandidateRef>& dev,
                             double class_balance) {
  IterationRun run;
  auto pipeline = RunPipeline(applier, lfs, corpus, train, 2, class_balance);
  if (!pipeline.ok()) return pipeline.status();
  run.pipeline = std::move(*pipeline);
  Clock::time_point lap = Clock::now();
  auto decoded = DeserializeSnapshot(run.pipeline.bytes);
  if (!decoded.ok()) return decoded.status();
  run.decode_ms = LapMs(lap);
  auto service = LabelService::Create(*decoded, lfs);
  if (!service.ok()) return service.status();
  run.create_ms = LapMs(lap);
  LabelRequest request;
  request.corpus = &corpus;
  request.candidate_refs = &dev;
  auto response = service->Label(request);
  if (!response.ok()) return response.status();
  run.label_ms = LapMs(lap);
  run.model_hash = HashModel(*decoded);
  run.dev_hash = HashResponse(*response);
  run.service.emplace(std::move(*service));
  return run;
}

int RunIterate(const Args& args, Report& report) {
  auto made = MakeCdrTask(args.seed, kStreamScale);
  if (!made.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 made.status().ToString().c_str());
    return 2;
  }
  const RelationTask& task = *made;
  const std::vector<Candidate> train =
      Rows(task, task.train_idx, task.train_idx.size());
  const std::vector<Candidate> dev = Rows(task, task.dev_idx, args.spec->batch);
  const std::vector<CandidateRef> dev_refs = MakeCandidateRefs(dev);
  const double class_balance = DevClassBalance(task);

  // ---- Set-up: the first pipeline run, cold, several times. The last
  // one's corpus and column cache carry the iterations. ----
  std::vector<double> setup_s;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<IncrementalApplier> applier;
  uint64_t failed = 0;
  uint64_t ref_model = 0;
  uint64_t ref_dev = 0;
  double ref_correlations = 0.0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    corpus = std::make_unique<Corpus>(task.corpus);
    applier = std::make_unique<IncrementalApplier>(
        IncrementalApplier::Options{.num_threads = 0, .cardinality = 2});
    const Clock::time_point start = Clock::now();
    auto run =
        Iterate(*applier, task.lfs, *corpus, train, dev_refs, class_balance);
    if (!run.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   run.status().ToString().c_str());
      return 2;
    }
    setup_s.push_back(Ms(Clock::now() - start) / 1e3);
    if (r == 0) {
      ref_model = run->model_hash;
      ref_dev = run->dev_hash;
      ref_correlations = run->pipeline.correlations;
    } else if (run->model_hash != ref_model || run->dev_hash != ref_dev) {
      ++failed;
    }
  }

  // ---- Iterations: 2 warmup, then as many as fit in --seconds. ----
  std::vector<double> iteration_ms, apply_ms, optimizer_ms, fit_ms;
  std::vector<double> encode_ms, decode_ms, create_ms, snapshot_bytes;
  std::vector<double> advantage_us, sweep_ms;
  double peak_rss_mb = 0.0;
  LayerReplay replay;
  IncrementalApplier::Stats before{};
  CompiledScanCacheStats scan_before{};
  uint64_t attempted = 0;
  std::vector<obs::Span> spans;
  SpanDrain drain;
  if (args.traced) drain.Start();
  Clock::time_point measure_start{};
  const size_t num_lfs = task.lfs.size();
  for (size_t it = 0;; ++it) {
    if (it == kIterateWarmup) {
      before = applier->stats();
      scan_before = GetCompiledScanCacheStats();
      measure_start = Clock::now();
    }
    if (it > kIterateWarmup &&
        Ms(Clock::now() - measure_start) / 1e3 >= args.seconds) {
      break;
    }
    const LabelingFunctionSet edited =
        Reversion(task.lfs, it % num_lfs, "edit_" + std::to_string(it));
    const Clock::time_point start = Clock::now();
    Result<IterationRun> run = MaybeTraced(args.traced, [&] {
      return Iterate(*applier, edited, *corpus, train, dev_refs, class_balance);
    });
    const double total_ms = Ms(Clock::now() - start);
    ++attempted;
    if (!run.ok()) {
      std::fprintf(stderr, "iteration %zu failed: %s\n", it,
                   run.status().ToString().c_str());
      ++failed;
      continue;
    }
    if (run->model_hash != ref_model || run->dev_hash != ref_dev ||
        run->pipeline.correlations != ref_correlations) {
      std::fprintf(stderr, "iteration %zu differs from the set-up run\n", it);
      ++failed;
    }
    if (it < kIterateWarmup) continue;
    const PipelineRun& p = run->pipeline;
    iteration_ms.push_back(total_ms);
    if (iteration_ms.size() == kIterateRssAt) peak_rss_mb = PeakRssMb();
    apply_ms.push_back(p.apply_ms);
    optimizer_ms.push_back(p.optimizer_ms);
    fit_ms.push_back(p.fit_ms);
    encode_ms.push_back(p.encode_ms);
    decode_ms.push_back(run->decode_ms);
    create_ms.push_back(run->create_ms);
    snapshot_bytes.push_back(static_cast<double>(p.bytes.size()));
    if (args.traced) {
      ReplayOptimizerStages(p.matrix, advantage_us, sweep_ms);
      const LFApplier lf_applier(LFApplier::Options{
          .num_threads = 1,
          .cardinality = 2,
          .use_compiled = true,
          .compiled_program = p.snapshot.compiled_lfs});
      replay.Run(*run->service, lf_applier, edited, *corpus, dev_refs, nullptr,
                 -1.0);
    }
  }
  if (args.traced) spans = drain.Stop();
  const double measured_s = Ms(Clock::now() - measure_start) / 1e3;
  const IncrementalApplier::Stats after = applier->stats();
  const CompiledScanCacheStats scan_after = GetCompiledScanCacheStats();
  const double reused =
      static_cast<double>(after.columns_reused - before.columns_reused);
  const double computed =
      static_cast<double>(after.columns_computed - before.columns_computed);
  const double reuse = Ratio(reused, reused + computed);
  const double scan_hits =
      static_cast<double>(scan_after.hits - scan_before.hits);
  const double scan_misses =
      static_cast<double>(scan_after.misses - scan_before.misses);
  double iteration_s = 0.0;
  for (double ms : iteration_ms) iteration_s += ms / 1e3;
  failed += replay.errors;

  ReportRun(report, args, attempted, failed);
  report.Fact("iterations", std::to_string(iteration_ms.size()));
  report.Fact("measured_s", Report::Num(measured_s));

  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("throughput_cps",
                Ratio(static_cast<double>(train.size() * iteration_ms.size()),
                      iteration_s),
                "cand/s");
  report.Metric("p50_ms", Quantile(iteration_ms, 0.5), "ms");
  report.Metric("p99_ms", Quantile(iteration_ms, 0.99), "ms");
  report.Metric("peak_rss_mb", peak_rss_mb > 0.0 ? peak_rss_mb : PeakRssMb(),
                "MB");

  report.Metric("pipeline.train_snapshot_s", Median(setup_s), "s");
  report.Metric("serve.incremental_apply_ms", Median(apply_ms), "ms");
  report.Metric("core.optimizer_ms", Median(optimizer_ms), "ms");
  report.Metric("core.label_model_fit_ms", Median(fit_ms), "ms");
  report.Metric("core.correlations", ref_correlations, "count");
  report.Metric("serve.snapshot_encode_ms", Median(encode_ms), "ms");
  report.Metric("serve.snapshot_decode_ms", Median(decode_ms), "ms");
  report.Metric("serve.snapshot_bytes", Median(snapshot_bytes), "bytes");
  report.Metric("serve.service_create_ms", Median(create_ms), "ms");
  report.Metric("serve.column_reuse_ratio", reuse, "ratio");
  report.Metric("serve.cache_bytes", static_cast<double>(after.bytes_cached),
                "bytes");
  report.Metric("lf.scan_hit_ratio",
                Ratio(scan_hits, scan_hits + scan_misses), "ratio");
  const double scan_evictions =
      static_cast<double>(scan_after.evictions - scan_before.evictions);
  report.Metric("lf.scan_evictions", scan_evictions, "count");
  report.Metric("obs.spans_dropped", static_cast<double>(obs::DroppedSpans()),
                "count");
  report.Metric("bench.samples", static_cast<double>(iteration_ms.size()),
                "count");
  if (args.traced) {
    replay.Emit(report);
    EmitSpanMetrics(report, SelfTimes(spans, "bench.request"));
    report.Metric("core.advantage_us", Median(advantage_us), "us");
    report.Metric("core.structure_sweep_ms", Median(sweep_ms), "ms");
  }

  // One column of n recomputes per edit; the other n - 1 come from cache.
  const double expected = static_cast<double>(num_lfs - 1) / num_lfs;
  report.Validity("serve.column_reuse_ratio",
                  std::fabs(reuse - expected) <= 0.01, true,
                  Report::Num(reuse) + " vs " + Report::Num(expected));
  report.Validity("obs.spans_dropped", obs::DroppedSpans() == 0, true,
                  std::to_string(obs::DroppedSpans()));
  return 0;
}

// ----------------------------------------------------------------- main --

bool ParseArgs(int argc, char** argv, Args& args) {
  std::string workload;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--traced") {
      args.traced = true;
      continue;
    }
    if (a + 1 >= argc) return false;
    const std::string value = argv[++a];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--json") {
      args.json_path = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return false;
    }
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) args.spec = &spec;
  }
  return args.spec != nullptr && args.seconds > 0.0 && !args.json_path.empty();
}

std::string Stamp() {
  std::string load = "{";
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    load += (i ? ", " : "") + Report::Quote(kWorkloads[i].name) +
            ": {\"callers\": " + std::to_string(kWorkloads[i].callers) +
            ", \"batch\": " + std::to_string(kWorkloads[i].batch) + "}";
  }
  load += "}";
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"isa\": " + Report::Quote(CsrKernelIsa()) +
#if defined(__clang__)
         ", \"compiler\": " +
         Report::Quote(std::string("clang ") + __VERSION__) +
#elif defined(__GNUC__)
         ", \"compiler\": " +
         Report::Quote(std::string("gcc ") + __VERSION__) +
#else
         ", \"compiler\": \"unknown\"" +
#endif
         ", \"build_type\": " + Report::Quote(SNORKEL_BENCH_BUILD_TYPE) +
         ", \"load\": " + load + "}";
}

}  // namespace
}  // namespace snorkel

int main(int argc, char** argv) {
  using namespace snorkel;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: snorkel_bench --workload W --seed N --seconds S "
                 "--json OUT [--traced] [--workdir DIR]\n");
    return 2;
  }
  Report report;
  report.Fact("stamp", Stamp());
  const int code = std::string(args.spec->name) == "lf_iterate"
                       ? RunIterate(args, report)
                       : RunServing(args, report);
  if (code != 0) return code;
  std::FILE* out = std::fopen(args.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 2;
  }
  const std::string json = report.ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), out) == json.size();
  return std::fclose(out) == 0 && ok ? 0 : 2;
}
