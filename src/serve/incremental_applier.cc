#include "serve/incremental_applier.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "util/hash.h"

namespace snorkel {

namespace {

uint64_t HashSpan(uint64_t h, const Span& span) {
  h = HashCombine(h, (static_cast<uint64_t>(span.doc) << 32) | span.sentence);
  h = HashCombine(
      h, (static_cast<uint64_t>(span.word_start) << 32) | span.word_end);
  h = HashCombine(h, Fnv1a64(span.entity_type));
  h = HashCombine(h, Fnv1a64(span.canonical_id));
  return h;
}

/// Seals a chain value at `count` rows into a set digest.
uint64_t SealDigest(uint64_t chain, uint64_t count) {
  return HashCombine(chain, count);
}

}  // namespace

CandidateFingerprinter::CandidateFingerprinter(uint64_t salt)
    : chain_(HashCombine(Fnv1a64("candidates"), salt)) {}

void CandidateFingerprinter::Add(const Candidate& candidate, size_t index) {
  chain_ = HashCombine(chain_, index);
  chain_ = HashSpan(chain_, candidate.span1);
  chain_ = HashSpan(chain_, candidate.span2);
  ++count_;
}

SetFingerprint CandidateFingerprinter::Finish() const {
  return SetFingerprint{SealDigest(chain_, count_), chain_, count_};
}

SetFingerprint FingerprintCandidates(const std::vector<Candidate>& candidates,
                                     uint64_t salt) {
  CandidateFingerprinter fp(salt);
  for (size_t i = 0; i < candidates.size(); ++i) fp.Add(candidates[i], i);
  return fp.Finish();
}

SetFingerprint FingerprintCandidateRefs(const std::vector<CandidateRef>& rows,
                                        uint64_t salt) {
  CandidateFingerprinter fp(salt);
  for (const CandidateRef& row : rows) fp.Add(*row.candidate, row.index);
  return fp.Finish();
}

// --------------------------------------------------------------- internals --

namespace {

/// Doorkeeper capacity: digests of sets seen once and not admitted,
/// direct-mapped. A set is admitted when it comes back before another first
/// sighting overwrites its slot (on average, 4096 other first sightings).
constexpr size_t kDoorkeeperSlots = 4096;
/// Row counts of remembered sets, direct-mapped by count: the prefix lengths
/// a miss checks for "extends a remembered set".
constexpr size_t kRememberedCountSlots = 64;
/// A thread's chain scratch grown past this many rows is released on its
/// next smaller request, so one huge apply does not pin its buffer forever.
constexpr size_t kRetainedChainRows = size_t{1} << 16;

size_t DoorkeeperSlot(uint64_t digest) {
  return static_cast<size_t>((digest * 0x9e3779b97f4a7c15ULL) >> 52);
}
static_assert(kDoorkeeperSlots == size_t{1} << 12);

/// The chain value after each row of the calling thread's current request
/// (row i at [i]), so a miss can test every prefix length against the
/// cached and remembered sets without rehashing any row. Reused across
/// calls: steady-state requests allocate nothing here.
uint64_t* ChainScratch(size_t rows) {
  thread_local std::vector<uint64_t> chains;
  if (chains.size() < rows ||
      chains.size() > std::max(rows, kRetainedChainRows)) {
    chains = std::vector<uint64_t>(rows);
  }
  return chains.data();
}

enum class ColumnState : uint8_t {
  kComputing,  // Claimed by exactly one Apply call; losers wait.
  kReady,      // `labels` is published and immutable.
  kFailed,     // `error` is published; the column is off the map already.
};

/// One memoized LF column for one candidate set. The claiming thread fills
/// `labels` (or `error`) and then publishes via `state` with release order;
/// readers acquire-load `state` before touching either field, so no lock is
/// needed after publication.
struct Column {
  std::atomic<ColumnState> state{ColumnState::kComputing};
  std::vector<Label> labels;
  Status error = Status::OK();
};

/// All cached columns for one candidate set. Entries are immutable in shape
/// once created (columns only ever gain rows-complete columns); append
/// extension creates a NEW entry for the longer set rather than mutating
/// this one, so readers never see a column grow under them.
struct SetEntry {
  SetFingerprint fp;
  /// LRU clock value of the most recent Apply touching this set.
  std::atomic<uint64_t> last_used{0};
  /// In-flight Apply calls currently using this entry; eviction skips
  /// pinned entries, which is what makes eviction safe to race readers.
  std::atomic<int> pins{0};
  /// Published label bytes in this entry (only grows while pinned).
  std::atomic<uint64_t> bytes{0};
  /// In the set map, so its bytes count toward the applier's running total.
  /// Cleared under exclusive sets_mu when the entry is dropped; publishers
  /// read it under shared sets_mu.
  bool resident = true;

  /// Guards the column map's STRUCTURE only (find/insert/erase); column
  /// contents are published through Column::state.
  std::shared_mutex columns_mu;
  std::unordered_map<uint64_t, std::shared_ptr<Column>> columns;

  /// Wakes Apply calls that lost a claim race and wait for the winner.
  std::mutex wait_mu;
  std::condition_variable wait_cv;
};

using SetMap = std::unordered_map<uint64_t, std::shared_ptr<SetEntry>>;

}  // namespace

struct IncrementalApplier::State {
  /// Options::max_cached_bytes.
  const uint64_t max_cached_bytes;
  /// Computes every column this cache does not reuse, and owns the
  /// dedicated pool when num_threads > 1.
  const LFApplier applier;

  /// Guards the set map's structure, the row-count index and the resident
  /// flags; hits take it shared.
  mutable std::shared_mutex sets_mu;
  SetMap sets;
  /// Row count -> number of cached sets with that count: the prefix lengths
  /// a miss probes for an append-extension base.
  std::map<uint64_t, size_t> cached_counts;
  /// Published label bytes over the resident sets, kept as a running total.
  /// Publishes add under shared sets_mu; drops subtract under exclusive.
  std::atomic<uint64_t> cached_bytes{0};

  /// The doorkeeper (TinyLFU-style): a set's columns are admitted to the
  /// cache on its second sighting. Read only after the cached-set lookup
  /// missed; lock-free, and a lost race only delays one admission.
  std::array<std::atomic<uint64_t>, kDoorkeeperSlots> seen_digests{};
  std::array<std::atomic<uint64_t>, kRememberedCountSlots> seen_counts{};

  /// LRU clock, bumped once per fingerprinted Apply.
  std::atomic<uint64_t> tick{0};

  // Cumulative counters, exported under snorkel_cache_*; stats() reads them.
  std::shared_ptr<obs::Counter> columns_reused;
  std::shared_ptr<obs::Counter> columns_computed;
  std::shared_ptr<obs::Counter> set_hits;
  std::shared_ptr<obs::Counter> set_misses;
  std::shared_ptr<obs::Counter> unadmitted_sets;
  std::shared_ptr<obs::Counter> appended_rows;
  std::shared_ptr<obs::Counter> evicted_sets;

  /// Registry token of the snorkel_cache_bytes gauge, whose callback reads
  /// cached_bytes through `this`. UnregisterCallback in ~State is the
  /// lifetime barrier (callbacks run under the registry lock); State sits
  /// behind a unique_ptr, so its address is stable across applier moves.
  uint64_t bytes_gauge_token = 0;

  explicit State(Options opts)
      : max_cached_bytes(opts.max_cached_bytes),
        applier(LFApplier::Options{opts.num_threads, opts.cardinality,
                                   opts.use_compiled, opts.compiled_program}) {
    auto& registry = obs::MetricsRegistry::Default();
    columns_reused =
        registry.CreateCounter("snorkel_cache_columns_reused_total");
    columns_computed =
        registry.CreateCounter("snorkel_cache_columns_computed_total");
    set_hits = registry.CreateCounter("snorkel_cache_set_hits_total");
    set_misses = registry.CreateCounter("snorkel_cache_set_misses_total");
    unadmitted_sets =
        registry.CreateCounter("snorkel_cache_unadmitted_sets_total");
    appended_rows =
        registry.CreateCounter("snorkel_cache_appended_rows_total");
    evicted_sets = registry.CreateCounter("snorkel_cache_evicted_sets_total");
    bytes_gauge_token = registry.RegisterCallback(
        "snorkel_cache_bytes", obs::MetricType::kGauge, [this]() {
          return static_cast<double>(
              cached_bytes.load(std::memory_order_relaxed));
        });
  }

  ~State() {
    obs::MetricsRegistry::Default().UnregisterCallback(bytes_gauge_token);
  }

  bool Remembered(uint64_t digest) const {
    return seen_digests[DoorkeeperSlot(digest)].load(
               std::memory_order_relaxed) == digest;
  }

  void Remember(const SetFingerprint& fp) {
    seen_digests[DoorkeeperSlot(fp.digest)].store(fp.digest,
                                                  std::memory_order_relaxed);
    if (fp.count > 0) {
      seen_counts[fp.count % kRememberedCountSlots].store(
          fp.count, std::memory_order_relaxed);
    }
  }

  /// True when a proper prefix of an m-row request (chains[c - 1] is its
  /// chain after c rows) is a remembered set: the second request of an
  /// append-only stream.
  bool ExtendsRemembered(const uint64_t* chains, size_t m) const {
    for (const auto& slot : seen_counts) {
      const uint64_t count = slot.load(std::memory_order_relaxed);
      if (count > 0 && count < m &&
          Remembered(SealDigest(chains[count - 1], count))) {
        return true;
      }
    }
    return false;
  }

  /// The longest cached proper prefix of an m-row request, probed by digest
  /// at each distinct cached row count. Caller holds sets_mu (shared).
  std::shared_ptr<SetEntry> LongestCachedPrefix(const uint64_t* chains,
                                                size_t m) const {
    for (auto it = cached_counts.lower_bound(m);
         it != cached_counts.begin();) {
      --it;
      if (it->first == 0) break;
      auto found = sets.find(SealDigest(chains[it->first - 1], it->first));
      if (found != sets.end()) return found->second;
    }
    return nullptr;
  }

  /// Drops one set from the map; in-flight Apply calls keep it alive via
  /// shared_ptr and publish into it harmlessly (it is no longer resident).
  /// Caller holds sets_mu exclusively.
  void DropSet(SetMap::iterator it) {
    SetEntry& entry = *it->second;
    entry.resident = false;
    cached_bytes.fetch_sub(entry.bytes.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    auto count = cached_counts.find(entry.fp.count);
    if (--count->second == 0) cached_counts.erase(count);
    sets.erase(it);
  }

  /// Serves a set without admitting it: a plain LF application, with no
  /// set entry, no column and no cache lock.
  Result<LabelMatrix> ApplyUnadmitted(const LabelingFunctionSet& lfs,
                                      const Corpus& corpus, RowSource rows,
                                      const CancelToken* cancel) {
    unadmitted_sets->Increment();
    Result<LabelMatrix> matrix = applier.ApplyRows(lfs, corpus, rows, cancel);
    if (matrix.ok()) columns_computed->Increment(lfs.size());
    return matrix;
  }

  /// Set when an eviction pass left the cache over budget because every
  /// eviction candidate was pinned: the pass could not finish, so the next
  /// pin release retries it. Without this handoff a final burst of
  /// concurrent Applys (each pinning its own set, each eviction pass
  /// skipping the others' pinned sets) would leave a quiescent cache
  /// permanently over budget — nothing inserts again, so nothing evicts.
  std::atomic<bool> evict_pending{false};

  /// Evicts least-recently-used, unpinned sets until the cached bytes fit
  /// the budget (or only pinned sets remain — then the last unpinner
  /// retries via evict_pending). Within budget it returns on the running
  /// total without a lock; otherwise it is exclusive over sets_mu.
  void EvictOverBudget() {
    const uint64_t budget = max_cached_bytes;
    if (cached_bytes.load(std::memory_order_relaxed) <= budget &&
        !evict_pending.load(std::memory_order_relaxed)) {
      return;
    }
    std::unique_lock<std::shared_mutex> lock(sets_mu);
    while (cached_bytes.load(std::memory_order_relaxed) > budget) {
      auto victim = sets.end();
      uint64_t oldest = std::numeric_limits<uint64_t>::max();
      for (auto it = sets.begin(); it != sets.end(); ++it) {
        if (it->second->pins.load(std::memory_order_relaxed) > 0) continue;
        uint64_t used = it->second->last_used.load(std::memory_order_relaxed);
        if (used < oldest) {
          oldest = used;
          victim = it;
        }
      }
      if (victim == sets.end()) break;  // Everything left is pinned.
      DropSet(victim);
      evicted_sets->Increment();
    }
    evict_pending.store(cached_bytes.load(std::memory_order_relaxed) > budget,
                        std::memory_order_relaxed);
  }
};

IncrementalApplier::IncrementalApplier(Options options)
    : state_(std::make_unique<State>(options)) {}

IncrementalApplier::IncrementalApplier(IncrementalApplier&&) noexcept =
    default;
IncrementalApplier& IncrementalApplier::operator=(
    IncrementalApplier&&) noexcept = default;
IncrementalApplier::~IncrementalApplier() = default;

void IncrementalApplier::InvalidateAll() {
  std::unique_lock<std::shared_mutex> lock(state_->sets_mu);
  // In-flight Apply calls keep their entries alive via shared_ptr and
  // finish correctly against them; the orphans die with their last pin.
  for (auto& [digest, entry] : state_->sets) entry->resident = false;
  state_->sets.clear();
  state_->cached_counts.clear();
  state_->cached_bytes.store(0, std::memory_order_relaxed);
}

void IncrementalApplier::Invalidate(uint64_t fingerprint) {
  std::unique_lock<std::shared_mutex> lock(state_->sets_mu);
  for (auto& [digest, entry] : state_->sets) {
    std::unique_lock<std::shared_mutex> columns_lock(entry->columns_mu);
    auto it = entry->columns.find(fingerprint);
    if (it == entry->columns.end()) continue;
    // A still-computing column has no bytes recorded yet, and its claimer
    // checks map membership (under this lock) before recording any: erasing
    // it here both drops it for future lookups AND stops it from being
    // published into the cache. Requests that started before this call may
    // still be served from the in-flight computation — no ordering
    // guarantee exists for them — but requests starting after Invalidate
    // returns recompute.
    if (it->second->state.load(std::memory_order_acquire) ==
        ColumnState::kReady) {
      const uint64_t bytes = it->second->labels.size() * sizeof(Label);
      entry->bytes.fetch_sub(bytes, std::memory_order_relaxed);
      state_->cached_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    }
    entry->columns.erase(it);
  }
}

IncrementalApplier::Stats IncrementalApplier::stats() const {
  Stats stats;
  stats.columns_reused = state_->columns_reused->value();
  stats.columns_computed = state_->columns_computed->value();
  stats.set_hits = state_->set_hits->value();
  stats.set_misses = state_->set_misses->value();
  stats.unadmitted_sets = state_->unadmitted_sets->value();
  stats.bytes_cached = state_->cached_bytes.load(std::memory_order_relaxed);
  stats.appended_rows = state_->appended_rows->value();
  stats.evicted_sets = state_->evicted_sets->value();
  return stats;
}

size_t IncrementalApplier::cached_columns() const {
  std::shared_lock<std::shared_mutex> lock(state_->sets_mu);
  size_t total = 0;
  for (const auto& [digest, entry] : state_->sets) {
    std::shared_lock<std::shared_mutex> columns_lock(entry->columns_mu);
    total += entry->columns.size();
  }
  return total;
}

size_t IncrementalApplier::cached_sets() const {
  std::shared_lock<std::shared_mutex> lock(state_->sets_mu);
  return state_->sets.size();
}

Result<LabelMatrix> IncrementalApplier::Apply(
    const LabelingFunctionSet& lfs, const Corpus& corpus,
    const std::vector<Candidate>& candidates, const CancelToken* cancel) {
  return ApplyInternal(lfs, corpus, RowSource::Of(candidates), cancel);
}

Result<LabelMatrix> IncrementalApplier::ApplyRefs(
    const LabelingFunctionSet& lfs, const Corpus& corpus,
    const std::vector<CandidateRef>& refs, const CancelToken* cancel) {
  return ApplyInternal(lfs, corpus, RowSource::Of(refs), cancel);
}

Result<LabelMatrix> IncrementalApplier::ApplyInternal(
    const LabelingFunctionSet& lfs, const Corpus& corpus, RowSource rows,
    const CancelToken* cancel) {
  State& state = *state_;
  // A budget of 0 never admits a set, so there is nothing to look up.
  if (state.max_cached_bytes == 0) {
    return state.ApplyUnadmitted(lfs, corpus, rows, cancel);
  }
  const size_t m = rows.size;
  const size_t n = lfs.size();
  const uint64_t tick =
      state.tick.fetch_add(1, std::memory_order_relaxed) + 1;

  // ---- Fingerprint the set, keeping the chain after every row: a miss
  // probes those prefixes for a cached set to extend ("the same log,
  // grown") or a remembered one to admit. ----
  // Salt with the corpus identity: LFs read corpus text the row hash does
  // not cover, so same-shaped candidate sets from DIFFERENT corpora must
  // not share columns. Corpus::identity() is fresh per object and bumped by
  // every mutable access, so a corpus built at a freed corpus's address
  // cannot alias its columns (the address could).
  uint64_t* chains = ChainScratch(m);
  CandidateFingerprinter fingerprinter(corpus.identity());
  for (size_t i = 0; i < m; ++i) {
    fingerprinter.Add(rows.candidate(i), rows.index(i));
    chains[i] = fingerprinter.chain();
  }
  const SetFingerprint fp = fingerprinter.Finish();

  // ---- Find the set entry. The hit path is a shared lock plus relaxed
  // LRU-clock stores. A miss looks for the longest cached prefix under the
  // same shared lock, then asks the doorkeeper: a set is admitted (and only
  // then takes the exclusive lock to insert) when it was seen before, or
  // when it extends a cached or remembered set. ----
  std::shared_ptr<SetEntry> entry;
  std::shared_ptr<SetEntry> base;
  bool inserted = false;
  // Pin and LRU-touch WHILE holding the lock that found (or inserted) the
  // entry: eviction also runs under sets_mu, so it can never observe this
  // entry unpinned between lookup and use.
  auto acquire = [&](const std::shared_ptr<SetEntry>& found) {
    entry = found;
    entry->pins.fetch_add(1, std::memory_order_relaxed);
    entry->last_used.store(tick, std::memory_order_relaxed);
  };
  {
    std::shared_lock<std::shared_mutex> lock(state.sets_mu);
    auto it = state.sets.find(fp.digest);
    if (it != state.sets.end()) {
      acquire(it->second);
    } else {
      base = state.LongestCachedPrefix(chains, m);
    }
  }
  if (entry == nullptr) {
    if (base == nullptr && !state.Remembered(fp.digest) &&
        !state.ExtendsRemembered(chains, m)) {
      // First sighting: remember it and serve it without caching.
      state.Remember(fp);
      return state.ApplyUnadmitted(lfs, corpus, rows, cancel);
    }
    std::unique_lock<std::shared_mutex> lock(state.sets_mu);
    auto it = state.sets.find(fp.digest);
    if (it != state.sets.end()) {
      acquire(it->second);  // Lost a benign insert race: treat as a hit.
      base = nullptr;
    } else {
      auto fresh = std::make_shared<SetEntry>();
      fresh->fp = fp;
      state.sets.emplace(fp.digest, fresh);
      ++state.cached_counts[fp.count];
      acquire(fresh);
      if (base != nullptr) {
        // Keep the base warm: extending it again next request should find
        // it (touched under the same lock eviction takes).
        base->last_used.store(tick, std::memory_order_relaxed);
      }
      inserted = true;
    }
  }
  (inserted ? state.set_misses : state.set_hits)->Increment();
  // Releases the pin taken above (taken under sets_mu, so eviction never
  // sees the entry unpinned between lookup and use) on every exit path.
  // If an eviction pass stalled on pinned entries while this call ran, the
  // unpin retries it — the last pin release is what restores the byte
  // budget on a quiescent cache.
  struct PinRelease {
    State* state;
    SetEntry* entry;
    ~PinRelease() {
      entry->pins.fetch_sub(1, std::memory_order_relaxed);
      if (state->evict_pending.load(std::memory_order_relaxed)) {
        state->EvictOverBudget();
      }
    }
  } pin{&state, entry.get()};

  // ---- Resolve every LF column: reuse ready columns, claim absent ones
  // (the claimer computes; duplicate misses from concurrent callers land on
  // the same Column object and wait), remember claims this call owns. ----
  struct Claim {
    uint64_t fingerprint = 0;
    size_t lf_index = 0;           // First LF position with this fingerprint.
    std::shared_ptr<Column> column;
    size_t start_row = 0;          // > 0: rows [0, start_row) copy from base.
    std::shared_ptr<Column> base_column;
  };
  std::vector<Claim> claimed;
  std::vector<std::shared_ptr<Column>> wait_for;
  // Column resolved for each LF position (shared across duplicate
  // fingerprints within one set).
  std::vector<std::shared_ptr<Column>> by_position(n);
  std::unordered_map<uint64_t, std::shared_ptr<Column>> resolved;
  uint64_t reused = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t lf_fp = lfs.at(j).fingerprint();
    auto seen = resolved.find(lf_fp);
    if (seen != resolved.end()) {
      by_position[j] = seen->second;
      continue;
    }
    std::shared_ptr<Column> column;
    {
      std::shared_lock<std::shared_mutex> lock(entry->columns_mu);
      auto it = entry->columns.find(lf_fp);
      if (it != entry->columns.end()) column = it->second;
    }
    bool claimed_here = false;
    if (column == nullptr) {
      std::unique_lock<std::shared_mutex> lock(entry->columns_mu);
      auto it = entry->columns.find(lf_fp);
      if (it != entry->columns.end()) {
        column = it->second;
      } else {
        column = std::make_shared<Column>();
        entry->columns.emplace(lf_fp, column);
        claimed_here = true;
      }
    }
    if (claimed_here) {
      Claim claim;
      claim.fingerprint = lf_fp;
      claim.lf_index = j;
      claim.column = column;
      if (base != nullptr) {
        std::shared_lock<std::shared_mutex> lock(base->columns_mu);
        auto it = base->columns.find(lf_fp);
        if (it != base->columns.end() &&
            it->second->state.load(std::memory_order_acquire) ==
                ColumnState::kReady) {
          claim.start_row = base->fp.count;
          claim.base_column = it->second;
        }
      }
      claimed.push_back(std::move(claim));
    } else {
      ++reused;
      if (column->state.load(std::memory_order_acquire) ==
          ColumnState::kComputing) {
        wait_for.push_back(column);
      }
    }
    by_position[j] = column;
    resolved.emplace(lf_fp, std::move(column));
  }
  if (reused > 0) state.columns_reused->Increment(reused);

  // ---- Compute the claimed columns in one fused pass over the rows each
  // needs: full columns start at row 0, append-extensions copy the cached
  // prefix and start at the base's row count. Different callers' claims
  // compute concurrently; nothing here holds any cache lock. ----

  // Fails every claim this call owns without poisoning the cache: pull the
  // columns off the map first (new lookups recompute), publish the failure
  // for callers already waiting on them, and reclaim the set entry if the
  // failure left it empty (zero-byte entries are invisible to the
  // byte-budget eviction, so a stream of failing requests over fresh sets
  // would otherwise grow the map without bound).
  auto fail_claims = [&](const Status& error) {
    {
      std::unique_lock<std::shared_mutex> lock(entry->columns_mu);
      for (const Claim& claim : claimed) {
        auto it = entry->columns.find(claim.fingerprint);
        if (it != entry->columns.end() && it->second == claim.column) {
          entry->columns.erase(it);
        }
      }
    }
    for (const Claim& claim : claimed) {
      claim.column->labels.clear();
      claim.column->error = error;
      claim.column->state.store(ColumnState::kFailed,
                                std::memory_order_release);
    }
    {
      std::lock_guard<std::mutex> lock(entry->wait_mu);
    }
    entry->wait_cv.notify_all();
    {
      std::unique_lock<std::shared_mutex> sets_lock(state.sets_mu);
      std::shared_lock<std::shared_mutex> columns_lock(entry->columns_mu);
      if (entry->columns.empty()) {
        auto it = state.sets.find(fp.digest);
        if (it != state.sets.end() && it->second == entry) {
          state.DropSet(it);
        }
      }
    }
  };
  // If an LF throws (user code; std::function can), the exception unwinds
  // past the publish below — without this guard the claims would sit in
  // kComputing forever and every later Apply for this set would block on
  // them. Fail them typed instead, then let the exception propagate.
  struct ClaimAbortGuard {
    std::function<void()> abort;
    bool armed = false;
    ~ClaimAbortGuard() {
      if (armed) abort();
    }
  } abort_guard{[&fail_claims] {
                  fail_claims(Status::Internal(
                      "LF application aborted by an exception; the claimed "
                      "columns were failed, not cached"));
                },
                false};

  if (!claimed.empty()) {
    abort_guard.armed = true;
    std::vector<ColumnTask> tasks;
    tasks.reserve(claimed.size());
    for (Claim& claim : claimed) {
      claim.column->labels.assign(m, kAbstain);
      if (claim.start_row > 0) {
        std::copy(claim.base_column->labels.begin(),
                  claim.base_column->labels.end(),
                  claim.column->labels.begin());
      }
      tasks.push_back(ColumnTask{claim.lf_index, claim.column->labels.data(),
                                 claim.start_row});
    }
    Status status =
        state.applier.ApplyColumns(lfs, corpus, rows, tasks, cancel);
    if (!status.ok()) {
      // A bad vote or an expired deadline: abandon the claims through the
      // cache-safe path — pulled off the map (future lookups recompute),
      // failed typed for anyone already waiting.
      abort_guard.armed = false;
      fail_claims(status);
      return status;
    }
    uint64_t appended = 0;
    {
      // Exclusive over the column map so the membership check AND the byte
      // accounting serialize with Invalidate(): a claim dropped
      // mid-compute publishes for its own waiters but contributes no
      // bytes (it is off the map, and Invalidate subtracted nothing).
      // Shared over sets_mu so a concurrent drop of this entry sees its
      // bytes either all counted or none.
      std::shared_lock<std::shared_mutex> sets_lock(state.sets_mu);
      std::unique_lock<std::shared_mutex> lock(entry->columns_mu);
      uint64_t published_bytes = 0;
      for (const Claim& claim : claimed) {
        auto it = entry->columns.find(claim.fingerprint);
        if (it != entry->columns.end() && it->second == claim.column) {
          published_bytes += claim.column->labels.size() * sizeof(Label);
        }
        if (claim.start_row > 0) appended += m - claim.start_row;
        claim.column->state.store(ColumnState::kReady,
                                  std::memory_order_release);
      }
      entry->bytes.fetch_add(published_bytes, std::memory_order_relaxed);
      if (entry->resident) {
        state.cached_bytes.fetch_add(published_bytes,
                                     std::memory_order_relaxed);
      }
    }
    abort_guard.armed = false;
    state.columns_computed->Increment(claimed.size());
    if (appended > 0) state.appended_rows->Increment(appended);
    {
      std::lock_guard<std::mutex> lock(entry->wait_mu);
    }
    entry->wait_cv.notify_all();
  }

  // ---- Wait for columns claimed by concurrent callers (duplicate misses
  // collapse here: one computation, everyone else sleeps until publish). ----
  // Expired callers don't park behind someone else's computation: their own
  // claims (if any) are already published ready and stay cached for the
  // next request — only this reply is abandoned.
  if (!wait_for.empty() && cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        "request deadline expired before cached columns were ready");
  }
  for (const std::shared_ptr<Column>& column : wait_for) {
    if (column->state.load(std::memory_order_acquire) !=
        ColumnState::kComputing) {
      continue;
    }
    std::unique_lock<std::mutex> lock(entry->wait_mu);
    entry->wait_cv.wait(lock, [&] {
      return column->state.load(std::memory_order_acquire) !=
             ColumnState::kComputing;
    });
  }
  for (size_t j = 0; j < n; ++j) {
    if (by_position[j]->state.load(std::memory_order_acquire) ==
        ColumnState::kFailed) {
      return by_position[j]->error;
    }
  }
  std::vector<const Label*> columns(n);
  for (size_t j = 0; j < n; ++j) columns[j] = by_position[j]->labels.data();
  Result<LabelMatrix> matrix = state.applier.Assemble(m, columns);

  // Miss paths grew the cache: enforce the byte budget before returning.
  // Hits skip this, so they stay exclusive-lock-free.
  if (!claimed.empty()) state.EvictOverBudget();
  return matrix;
}

}  // namespace snorkel
