#ifndef SNORKEL_LF_COMPILED_PROGRAM_H_
#define SNORKEL_LF_COMPILED_PROGRAM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "lf/compiled/spec.h"
#include "util/status.h"

namespace snorkel {

class LabelingFunctionSet;

/// A flat Aho-Corasick automaton in CSR form over u32 symbols. Node 0 is the
/// root; edges per node are sorted by symbol for binary-search stepping, and
/// per-node output lists are pre-flattened through the failure closure, so
/// matching never chases fail links for outputs — one Step() plus one output
/// range per input symbol. The same structure serves both the token-id
/// automaton (symbols are interned token ids) and the byte automaton
/// (symbols are lowercased bytes) — the phillip-style "precompute the match
/// structure once, ship it as data" shape.
struct FlatAutomaton {
  std::vector<uint32_t> edge_offsets;  // num_nodes + 1
  std::vector<uint32_t> edge_symbols;  // sorted within each node's range
  std::vector<uint32_t> edge_targets;  // parallel to edge_symbols
  std::vector<uint32_t> fail;          // num_nodes; fail[0] == 0
  std::vector<uint32_t> out_offsets;   // num_nodes + 1
  std::vector<uint32_t> out_patterns;  // pattern ids, failure-closed

  size_t num_nodes() const { return fail.size(); }

  /// One transition: follows failure links on miss; root misses stay at
  /// root. Never allocates. The builder's path, and Next()'s fallback.
  uint32_t Step(uint32_t state, uint32_t symbol) const;

  // --- Derived by Densify(); never serialized ---
  /// Upper bound on dense_next's size, in entries: an automaton whose
  /// num_nodes() * width exceeds it keeps stepping through Step().
  static constexpr size_t kMaxDenseEntries = size_t{1} << 18;
  /// dense_next[state * width + symbol] == Step(state, symbol) for every
  /// symbol below `width`, one more than the largest edge symbol. A larger
  /// symbol has no edge anywhere, so it steps to the root.
  std::vector<uint32_t> dense_next;
  uint32_t width = 0;

  /// Builds dense_next, or leaves it empty above kMaxDenseEntries. Requires
  /// every node to be reachable from the root and every failure link to
  /// point strictly closer to the root (breadth-first), which Build()
  /// guarantees and Decode() validates.
  void Densify();

  /// Step() through the dense table when there is one.
  uint32_t Next(uint32_t state, uint32_t symbol) const {
    if (dense_next.empty()) return Step(state, symbol);
    return symbol < width ? dense_next[size_t{state} * width + symbol] : 0;
  }
};

/// Deterministic builder: patterns added in the same order always produce
/// byte-identical flat automata (trie nodes numbered in insertion order,
/// BFS failure links, sorted edges).
class AutomatonBuilder {
 public:
  AutomatonBuilder();

  /// Adds one pattern (a non-empty symbol sequence); returns its pattern id
  /// (dense, in insertion order).
  uint32_t AddPattern(const std::vector<uint32_t>& symbols);

  size_t num_patterns() const { return num_patterns_; }

  FlatAutomaton Build() const;

 private:
  struct Node {
    std::map<uint32_t, uint32_t> edges;  // ordered: deterministic flatten
    std::vector<uint32_t> ends;          // pattern ids ending here
  };
  std::vector<Node> nodes_;
  size_t num_patterns_ = 0;
};

/// One compiled LF: which column it backs, how its hits are scoped, and
/// what it votes. The fingerprint pins the entry to the exact LF behaviour
/// it was compiled from — a program is only used when every entry's
/// fingerprint matches the live LF set column-for-column.
struct CompiledLfEntry {
  uint64_t fingerprint = 0;
  uint32_t lf_index = 0;
  LfSpecKind kind = LfSpecKind::kKeywordBetween;
  Label label = kAbstain;
  Label label_reverse = kAbstain;  // kDirectionalKeyword
  uint32_t window = 0;             // kContextKeyword
  uint64_t max_tokens = 0;         // kDistance
};

/// The compiled LF artifact: every compilable LF in a set lowered into one
/// shared token-id Aho-Corasick pass (all keyword families at once, with
/// per-LF scope checks applied to the shared hit stream), one shared byte
/// automaton for literal-alternation regex families, and an interned symbol
/// table so the scan loop compares u32 ids, never strings. Immutable once
/// Finalize()d (the symbol index holds views into `symbols`), serializable
/// as the snapshot `LFCP` section, and shared across threads/replicas via
/// shared_ptr/mmap.
class CompiledLfProgram {
 public:
  static constexpr uint32_t kNoSymbol = 0xffffffffu;

  CompiledLfProgram();
  CompiledLfProgram(const CompiledLfProgram&) = delete;
  CompiledLfProgram& operator=(const CompiledLfProgram&) = delete;

  // --- Serialized state ---
  uint64_t num_lfs = 0;                  // columns in the source LF set
  std::vector<CompiledLfEntry> entries;  // one per compiled LF ("slot")
  std::vector<std::string> symbols;      // interned token strings
  /// Token patterns: single interned symbols encoded (id << 1) | domain,
  /// domain 0 = lowercased form, 1 = stemmed form. The two domains share
  /// the automaton but can never collide (stemming is not idempotent, so a
  /// token's lower form matching a stem pattern would be a false positive).
  FlatAutomaton token_ac;
  std::vector<uint32_t> token_pattern_slots;   // pattern id -> entry slot
  /// Byte patterns: lowercased literal branches of regex alternations,
  /// matched over the space-joined lowercased sentence.
  FlatAutomaton byte_ac;
  std::vector<uint32_t> byte_pattern_slots;    // pattern id -> entry slot
  std::vector<uint32_t> byte_pattern_lengths;  // bytes per pattern

  // --- Derived by Finalize() ---
  std::vector<int32_t> slot_of_lf;  // num_lfs; -1 = interpreted column
  bool has_doc_scope = false;       // any kDocumentKeyword entries
  bool needs_lower_pass = false;    // any domain-0 token patterns
  bool needs_stem_pass = false;     // any domain-1 token patterns

  size_t num_compiled() const { return entries.size(); }

  /// Process-unique and never reused, unlike the program's address: keys
  /// state derived from this program that outlives it (per-thread memos).
  uint64_t id() const { return id_; }

  /// Interned id of a token string, or kNoSymbol.
  uint32_t LookupSymbol(std::string_view token) const {
    auto it = symbol_index_.find(token);
    return it == symbol_index_.end() ? kNoSymbol : it->second;
  }

  /// Builds the derived members, the automata's dense tables included.
  /// Must be called exactly once, after the serialized state stops
  /// changing.
  void Finalize();

  /// Deterministic wire encoding (the LFCP section payload). Two programs
  /// compiled from behaviourally identical LF sets encode byte-identically.
  std::string Encode() const;

  /// Decodes and validates an Encode() payload. Rejects structurally
  /// inconsistent input (out-of-range indices, malformed automata) with
  /// kIOError rather than trusting it.
  static Result<std::shared_ptr<const CompiledLfProgram>> Decode(
      std::string_view payload);

 private:
  const uint64_t id_;
  // Views into `symbols`; safe because the program is immutable after
  // Finalize() and non-copyable.
  std::unordered_map<std::string_view, uint32_t> symbol_index_;
};

/// Compiles every LF in `lfs` carrying a supported LfCompileSpec; the rest
/// stay interpreted (slot_of_lf[j] == -1). Deterministic: the same LF set
/// always yields a byte-identical program. Never fails — an uncompilable
/// spec (e.g. a regex beyond literal alternations) just leaves its LF on
/// the interpreted path.
std::shared_ptr<const CompiledLfProgram> CompileLfSet(
    const LabelingFunctionSet& lfs);

/// CompileLfSet through a small process-wide memo keyed by the set's
/// fingerprint vector, so appliers hitting the same LF set share one
/// program instead of recompiling per Apply call. Thread-safe.
std::shared_ptr<const CompiledLfProgram> GetOrCompileProgram(
    const LabelingFunctionSet& lfs);

/// True iff `program` can serve `lfs`: same column count and every compiled
/// entry's fingerprint matches the live column it claims to back.
bool ProgramMatchesLfSet(const CompiledLfProgram& program,
                         const LabelingFunctionSet& lfs);

}  // namespace snorkel

#endif  // SNORKEL_LF_COMPILED_PROGRAM_H_
