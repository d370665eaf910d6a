#ifndef SNORKEL_LF_COMPILED_ENGINE_H_
#define SNORKEL_LF_COMPILED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.h"
#include "data/candidate.h"
#include "data/context.h"
#include "lf/compiled/program.h"

namespace snorkel {

/// A typed read of the compiled engine's scan counter. Scans live in the
/// request (see CompiledLfBatch), so there is no cache: `misses` counts
/// sentences scanned (the registry's `snorkel_lf_sentences_scanned_total`),
/// and `hits` and `evictions` always read 0. Kept only for the benchmark
/// program's reads; ROADMAP item 7 removes it.
struct CompiledScanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

CompiledScanCacheStats GetCompiledScanCacheStats();

/// One request's worth of compiled LF execution: scans every distinct
/// (doc, sentence) referenced by the candidate batch once through the
/// program's shared automata, into storage the batch owns, then answers
/// per-(row, LF) votes with range checks over that hit stream. Document
/// scope ORs the batch's own scans with one scan of each touched
/// document's other sentences. Nothing outlives the batch except this
/// thread's token memo, keyed by CompiledLfProgram::id(), which maps raw
/// tokens to the program's symbols and so never describes corpus text.
/// Construction is serial and deterministic; Eval() is const and safe to
/// call from any number of threads concurrently — which is how the
/// appliers use it (build once, evaluate rows in parallel).
///
/// Bitwise contract: Eval(slot, i) returns exactly what the interpreted
/// lambda of the LF backing `slot` would return on row i.
class CompiledLfBatch {
 public:
  /// `rows[i]` may be null for i < begin (those rows are never evaluated);
  /// candidates must outlive the batch. `begin` lets the incremental
  /// applier skip scan work for cached row prefixes.
  CompiledLfBatch(std::shared_ptr<const CompiledLfProgram> program,
                  const Corpus& corpus,
                  const std::vector<const Candidate*>& rows,
                  size_t begin = 0);

  const CompiledLfProgram& program() const { return *program_; }

  /// Compiled vote of entry `slot` on row i (i >= begin).
  Label Eval(uint32_t slot, size_t i) const;

 private:
  static constexpr uint32_t kNoToken = 0xffffffffu;

  struct RowCtx {
    uint32_t scan = 0;           // index of the row's sentence scan
    int32_t doc_index = -1;      // index of the row's doc_bits_ block, or -1
    uint32_t first_start = 0;    // positionally-first span
    uint32_t first_end = 0;
    uint32_t second_start = 0;   // positionally-second span
    uint32_t second_end = 0;
    uint32_t sent_size = 0;
    /// First non-empty token of the between range, or kNoToken. Byte-domain
    /// (regex) containment starts here instead of at first_end: TextBetween
    /// suppresses separators after leading empty tokens, so the joined text
    /// begins at this token's bytes.
    uint32_t between_f = kNoToken;
    bool span1_first = true;
  };

  bool HasHitIn(uint32_t scan, uint32_t slot, uint32_t lo,
                uint32_t hi) const;

  std::shared_ptr<const CompiledLfProgram> program_;
  size_t slot_words_ = 0;  // u64 words per any-bits block
  /// Scan k's hits for slot s are hits_[hit_offsets_[k * (slots + 1) + s]
  /// .. hit_offsets_[k * (slots + 1) + s + 1]), each packed (a << 32) | b —
  /// the half-open token interval [a, b] the match covers — sorted
  /// ascending (by a, then b).
  std::vector<uint32_t> hit_offsets_;
  std::vector<uint64_t> hits_;
  /// "Any hit" bits, slot_words_ u64 words per block: one block per scan
  /// (sentence scope) and one per touched document (document scope).
  std::vector<uint64_t> any_bits_;
  std::vector<uint64_t> doc_bits_;
  std::vector<RowCtx> rows_;
};

}  // namespace snorkel

#endif  // SNORKEL_LF_COMPILED_ENGINE_H_
