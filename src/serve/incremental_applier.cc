#include "serve/incremental_applier.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/thread_pool.h"

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
  return SetFingerprint{HashCombine(chain_, count_), chain_, count_};
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

  /// Guards the column map's STRUCTURE only (find/insert/erase); column
  /// contents are published through Column::state.
  std::shared_mutex columns_mu;
  std::unordered_map<uint64_t, std::shared_ptr<Column>> columns;

  /// Wakes Apply calls that lost a claim race and wait for the winner.
  std::mutex wait_mu;
  std::condition_variable wait_cv;
};

}  // namespace

struct IncrementalApplier::State {
  Options options;

  /// Guards the set map's structure; hits take it shared.
  mutable std::shared_mutex sets_mu;
  std::unordered_map<uint64_t, std::shared_ptr<SetEntry>> sets;

  /// LRU clock, bumped once per Apply.
  std::atomic<uint64_t> tick{0};

  // Cumulative counters (relaxed; stats() is a snapshot, not a barrier).
  std::atomic<uint64_t> columns_reused{0};
  std::atomic<uint64_t> columns_computed{0};
  std::atomic<uint64_t> set_hits{0};
  std::atomic<uint64_t> set_misses{0};
  std::atomic<uint64_t> appended_rows{0};
  std::atomic<uint64_t> evicted_sets{0};

  /// Dedicated pool per the shared applier threading convention
  /// (util/thread_pool.h): null unless num_threads > 1.
  std::unique_ptr<ThreadPool> pool;

  /// Registry callback tokens for the cache counters. The callbacks
  /// capture `this`; UnregisterCallback in ~State is the lifetime barrier
  /// (callbacks run under the registry lock). State sits behind a
  /// unique_ptr, so its address is stable across applier moves.
  std::vector<uint64_t> metric_tokens;

  explicit State(Options opts)
      : options(opts), pool(MakeDedicatedPool(opts.num_threads)) {
    auto& registry = obs::MetricsRegistry::Default();
    auto expose = [&](const char* name, std::atomic<uint64_t>* counter) {
      metric_tokens.push_back(registry.RegisterCallback(
          name, obs::MetricType::kCounter, [counter]() {
            return static_cast<double>(
                counter->load(std::memory_order_relaxed));
          }));
    };
    expose("snorkel_cache_columns_reused_total", &columns_reused);
    expose("snorkel_cache_columns_computed_total", &columns_computed);
    expose("snorkel_cache_set_hits_total", &set_hits);
    expose("snorkel_cache_set_misses_total", &set_misses);
    expose("snorkel_cache_appended_rows_total", &appended_rows);
    expose("snorkel_cache_evicted_sets_total", &evicted_sets);
    metric_tokens.push_back(registry.RegisterCallback(
        "snorkel_cache_bytes", obs::MetricType::kGauge, [this]() {
          std::shared_lock<std::shared_mutex> lock(sets_mu);
          uint64_t total = 0;
          for (const auto& [digest, entry] : sets) {
            total += entry->bytes.load(std::memory_order_relaxed);
          }
          return static_cast<double>(total);
        }));
  }

  ~State() {
    auto& registry = obs::MetricsRegistry::Default();
    for (uint64_t token : metric_tokens) registry.UnregisterCallback(token);
  }

  void ParallelRows(size_t begin, size_t end,
                    const std::function<void(size_t)>& fn) {
    ParallelApplyRows(pool.get(), options.num_threads, begin, end, fn);
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
  /// retries via evict_pending). Exclusive over sets_mu; the hit path only
  /// calls this when a deferred pass is actually pending.
  void EvictOverBudget() {
    std::unique_lock<std::shared_mutex> lock(sets_mu);
    uint64_t total = 0;
    for (const auto& [digest, entry] : sets) {
      total += entry->bytes.load(std::memory_order_relaxed);
    }
    while (total > options.max_cached_bytes) {
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
      total -= victim->second->bytes.load(std::memory_order_relaxed);
      sets.erase(victim);
      evicted_sets.fetch_add(1, std::memory_order_relaxed);
    }
    evict_pending.store(total > options.max_cached_bytes,
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
  state_->sets.clear();
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
      entry->bytes.fetch_sub(it->second->labels.size() * sizeof(Label),
                             std::memory_order_relaxed);
    }
    entry->columns.erase(it);
  }
}

IncrementalApplier::Stats IncrementalApplier::stats() const {
  Stats stats;
  stats.columns_reused =
      state_->columns_reused.load(std::memory_order_relaxed);
  stats.columns_computed =
      state_->columns_computed.load(std::memory_order_relaxed);
  stats.set_hits = state_->set_hits.load(std::memory_order_relaxed);
  stats.set_misses = state_->set_misses.load(std::memory_order_relaxed);
  stats.appended_rows =
      state_->appended_rows.load(std::memory_order_relaxed);
  stats.evicted_sets = state_->evicted_sets.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(state_->sets_mu);
  for (const auto& [digest, entry] : state_->sets) {
    stats.bytes_cached += entry->bytes.load(std::memory_order_relaxed);
  }
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
  RowSource rows;
  rows.owned = candidates.data();
  rows.size = candidates.size();
  return ApplyInternal(lfs, corpus, rows, cancel);
}

Result<LabelMatrix> IncrementalApplier::ApplyRefs(
    const LabelingFunctionSet& lfs, const Corpus& corpus,
    const std::vector<CandidateRef>& refs, const CancelToken* cancel) {
  RowSource rows;
  rows.refs = refs.data();
  rows.size = refs.size();
  return ApplyInternal(lfs, corpus, rows, cancel);
}

Result<LabelMatrix> IncrementalApplier::ApplyInternal(
    const LabelingFunctionSet& lfs, const Corpus& corpus, RowSource rows,
    const CancelToken* cancel) {
  State& state = *state_;
  const size_t m = rows.size;
  const size_t n = lfs.size();
  const uint64_t tick =
      state.tick.fetch_add(1, std::memory_order_relaxed) + 1;

  // ---- Fingerprint the set, recording the chain at every row count a
  // cached set has: those checkpoints are what detect "this request extends
  // a cached set by appended rows". ----
  std::unordered_map<uint64_t, uint64_t> chain_at;  // count -> chain.
  {
    std::shared_lock<std::shared_mutex> lock(state.sets_mu);
    for (const auto& [digest, entry] : state.sets) {
      if (entry->fp.count > 0 && entry->fp.count < m) {
        chain_at.emplace(entry->fp.count, 0);
      }
    }
  }
  // Salt with the corpus identity: LFs read corpus text the row hash does
  // not cover, so same-shaped candidate sets from DIFFERENT corpora must
  // not share columns. Corpus::identity() is fresh per object and bumped by
  // every mutable access, so a corpus built at a freed corpus's address
  // cannot alias its columns (the address could).
  CandidateFingerprinter fingerprinter(corpus.identity());
  for (size_t i = 0; i < m; ++i) {
    fingerprinter.Add(rows.candidate(i), rows.index(i));
    auto checkpoint = chain_at.find(fingerprinter.count());
    if (checkpoint != chain_at.end()) {
      checkpoint->second = fingerprinter.chain();
    }
  }
  const SetFingerprint fp = fingerprinter.Finish();

  // ---- Find or create the set entry. The hit path is a shared lock plus
  // relaxed LRU-clock stores; only a brand-new set takes the exclusive
  // lock. On a miss, the longest cached set whose chain matches one of the
  // prefix checkpoints becomes the append-extension base. ----
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
    if (it != state.sets.end()) acquire(it->second);
  }
  if (entry == nullptr) {
    std::unique_lock<std::shared_mutex> lock(state.sets_mu);
    auto it = state.sets.find(fp.digest);
    if (it != state.sets.end()) {
      acquire(it->second);  // Lost a benign insert race: treat as a hit.
    } else {
      uint64_t best_count = 0;
      for (const auto& [digest, cached] : state.sets) {
        if (cached->fp.count == 0 || cached->fp.count >= m) continue;
        auto checkpoint = chain_at.find(cached->fp.count);
        if (checkpoint == chain_at.end()) continue;
        if (checkpoint->second != cached->fp.chain) continue;
        if (cached->fp.count > best_count) {
          best_count = cached->fp.count;
          base = cached;
        }
      }
      auto fresh = std::make_shared<SetEntry>();
      fresh->fp = fp;
      state.sets.emplace(fp.digest, fresh);
      acquire(fresh);
      if (base != nullptr) {
        // Keep the base warm: extending it again next request should find
        // it (touched under the same lock eviction takes).
        base->last_used.store(tick, std::memory_order_relaxed);
      }
      inserted = true;
    }
  }
  if (inserted) {
    state.set_misses.fetch_add(1, std::memory_order_relaxed);
  } else {
    state.set_hits.fetch_add(1, std::memory_order_relaxed);
  }
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
  if (reused > 0) {
    state.columns_reused.fetch_add(reused, std::memory_order_relaxed);
  }

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
          state.sets.erase(it);
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
    size_t min_start = m;
    for (Claim& claim : claimed) {
      claim.column->labels.assign(m, kAbstain);
      if (claim.start_row > 0) {
        std::copy(claim.base_column->labels.begin(),
                  claim.base_column->labels.end(),
                  claim.column->labels.begin());
      }
      min_start = std::min(min_start, claim.start_row);
    }

    // Compiled dispatch for the claimed columns that have compiled slots:
    // scan each distinct sentence of the to-compute rows once, then answer
    // those columns from the hit stream. Bitwise-identical to interpreting,
    // so mixed cached/compiled/interpreted columns stay interchangeable.
    std::shared_ptr<const CompiledLfProgram> program;
    if (state.options.use_compiled) {
      if (state.options.compiled_program &&
          ProgramMatchesLfSet(*state.options.compiled_program, lfs)) {
        program = state.options.compiled_program;
      } else {
        program = GetOrCompileProgram(lfs);
      }
      bool any_compiled_claim = false;
      for (const Claim& claim : claimed) {
        if (program->slot_of_lf[claim.lf_index] >= 0) {
          any_compiled_claim = true;
          break;
        }
      }
      if (!any_compiled_claim) program = nullptr;
    }
    std::optional<CompiledLfBatch> batch;
    if (program != nullptr && min_start < m) {
      std::vector<const Candidate*> candidates(m, nullptr);
      for (size_t i = min_start; i < m; ++i) {
        candidates[i] = &rows.candidate(i);
      }
      batch.emplace(program, corpus, candidates, min_start);
    }

    std::atomic<bool> has_error{false};
    std::atomic<size_t> error_col{0};
    std::atomic<Label> error_label{0};
    // Latched when the caller's deadline expires mid-compute; the claimed
    // columns are then failed off the map (never cached half-filled).
    std::atomic<bool> cancelled{false};
    state.ParallelRows(min_start, m, [&](size_t i) {
      // Cooperative cancellation at row chunk boundaries: probe the clock
      // only every 64 rows (the token latches, so after first expiry this
      // is a relaxed load for every sibling thread).
      if ((i & 63) == 0 && cancel != nullptr && cancel->Expired()) {
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
      if (cancelled.load(std::memory_order_relaxed)) return;
      CandidateView view(&corpus, &rows.candidate(i), rows.index(i));
      for (const Claim& claim : claimed) {
        if (i < claim.start_row) continue;
        int32_t slot = batch ? program->slot_of_lf[claim.lf_index] : -1;
        Label label = slot >= 0
                          ? batch->Eval(static_cast<uint32_t>(slot), i)
                          : lfs.at(claim.lf_index).Apply(view);
        if (!LabelValidFor(label, state.options.cardinality)) {
          bool expected = false;
          if (has_error.compare_exchange_strong(expected, true)) {
            error_col.store(claim.lf_index);
            error_label.store(label);
          }
          return;
        }
        claim.column->labels[i] = label;
      }
    });
    if (has_error.load()) {
      Status error = Status::InvalidArgument(
          "LF '" + lfs.at(error_col.load()).name() + "' voted " +
          std::to_string(error_label.load()) + ", invalid for cardinality " +
          std::to_string(state.options.cardinality));
      abort_guard.armed = false;
      fail_claims(error);
      return error;
    }
    if (cancelled.load()) {
      // Expired mid-compute: abandon the claims through the same
      // cache-safe path a bad vote takes — pulled off the map (future
      // lookups recompute), failed typed for anyone already waiting.
      Status error = Status::DeadlineExceeded(
          "request deadline expired during LF application; claimed columns "
          "abandoned");
      abort_guard.armed = false;
      fail_claims(error);
      return error;
    }
    uint64_t appended = 0;
    {
      // Exclusive over the map so the membership check AND the byte
      // accounting serialize with Invalidate(): a claim dropped
      // mid-compute publishes for its own waiters but contributes no
      // bytes (it is off the map, and Invalidate subtracted nothing).
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
    }
    abort_guard.armed = false;
    state.columns_computed.fetch_add(claimed.size(),
                                     std::memory_order_relaxed);
    if (appended > 0) {
      state.appended_rows.fetch_add(appended, std::memory_order_relaxed);
    }
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

  // ---- Assemble Λ from the resolved columns (all ready, all length m). ----
  std::vector<std::tuple<size_t, size_t, Label>> triplets;
  for (size_t j = 0; j < n; ++j) {
    const std::vector<Label>& column = by_position[j]->labels;
    for (size_t i = 0; i < m; ++i) {
      if (column[i] != kAbstain) triplets.emplace_back(i, j, column[i]);
    }
  }
  Result<LabelMatrix> matrix = LabelMatrix::FromTriplets(
      m, n, triplets, state.options.cardinality);

  // Miss paths grew the cache: enforce the byte budget before returning.
  // The hit path never reaches here, so hits stay exclusive-lock-free.
  if (!claimed.empty()) state.EvictOverBudget();
  return matrix;
}

}  // namespace snorkel
