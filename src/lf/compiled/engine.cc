#include "lf/compiled/engine.h"

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "text/stemmer.h"
#include "util/string_util.h"

namespace snorkel {

namespace {

uint64_t PackInterval(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Sentences scanned by every batch in the process.
obs::Counter& SentencesScanned() {
  static auto* counter = new std::shared_ptr<obs::Counter>(
      obs::MetricsRegistry::Default().CreateCounter(
          "snorkel_lf_sentences_scanned_total"));
  return **counter;
}

/// Symbols of one raw token under one program.
struct TokenSymbols {
  uint32_t lower_encoded = CompiledLfProgram::kNoSymbol;
  uint32_t stem_encoded = CompiledLfProgram::kNoSymbol;
};
using TokenTable = std::unordered_map<std::string, TokenSymbols>;

constexpr size_t kMemoPrograms = 4;
constexpr size_t kMemoEntries = size_t{1} << 14;

/// This thread's raw token -> symbols memo for one program, persisting
/// across batches. Keyed by CompiledLfProgram::id(), which is never reused,
/// so a program allocated at a freed one's address starts empty. Holds the
/// tables of the kMemoPrograms most recently used programs; a table is
/// cleared when it reaches kMemoEntries tokens.
TokenTable& ThreadTokenTable(uint64_t program_id) {
  struct Slot {
    uint64_t program_id = 0;  // 0: unused (ids start at 1)
    uint64_t last_use = 0;
    TokenTable table;
  };
  thread_local std::array<Slot, kMemoPrograms> slots;
  thread_local uint64_t clock = 0;
  Slot* victim = &slots[0];
  for (Slot& slot : slots) {
    if (slot.program_id == program_id) {
      slot.last_use = ++clock;
      return slot.table;
    }
    if (slot.last_use < victim->last_use) victim = &slot;
  }
  victim->program_id = program_id;
  victim->last_use = ++clock;
  victim->table.clear();
  return victim->table;
}

TokenSymbols ResolveToken(const CompiledLfProgram& p, TokenTable* table,
                          const std::string& word) {
  auto it = table->find(word);
  if (it != table->end()) return it->second;
  TokenSymbols resolved;
  std::string lower = ToLower(word);
  uint32_t lower_id = p.LookupSymbol(lower);
  if (lower_id != CompiledLfProgram::kNoSymbol) {
    resolved.lower_encoded = lower_id << 1;
  }
  if (p.needs_stem_pass) {
    uint32_t stem_id = p.LookupSymbol(Stemmer::StemCached(lower));
    if (stem_id != CompiledLfProgram::kNoSymbol) {
      resolved.stem_encoded = (stem_id << 1) | 1u;
    }
  }
  if (table->size() >= kMemoEntries) table->clear();
  table->emplace(word, resolved);
  return resolved;
}

/// Buffers reused by every sentence scan of one batch.
struct ScanScratch {
  std::vector<std::pair<uint32_t, uint64_t>> raw;  // (slot, packed interval)
  std::vector<uint32_t> lower;  // per token: encoded symbol or kNoSymbol
  std::vector<uint32_t> stem;
  std::vector<size_t> byte_starts;
};

/// Runs one sentence through the program's automata: its hits land in
/// scratch->raw, unordered, and its any-hit bits are ORed into `any`.
/// `tokens` may be null when the program has no token patterns.
void ScanSentence(const CompiledLfProgram& p, TokenTable* tokens,
                  const Sentence& sentence, ScanScratch* scratch,
                  uint64_t* any) {
  std::vector<std::pair<uint32_t, uint64_t>>& raw = scratch->raw;
  raw.clear();
  size_t num_words = sentence.words.size();
  auto record = [&](uint32_t slot, uint32_t a, uint32_t b) {
    raw.emplace_back(slot, PackInterval(a, b));
    any[slot >> 6] |= 1ull << (slot & 63);
  };

  if (!p.token_pattern_slots.empty() && num_words > 0) {
    // Resolve each raw token to its (lower, stem) symbols through this
    // thread's memo; the walks below then touch only u32 ids.
    scratch->lower.resize(num_words);
    scratch->stem.resize(num_words);
    for (size_t t = 0; t < num_words; ++t) {
      TokenSymbols symbols = ResolveToken(p, tokens, sentence.words[t]);
      scratch->lower[t] = symbols.lower_encoded;
      scratch->stem[t] = symbols.stem_encoded;
    }

    auto walk = [&](const std::vector<uint32_t>& symbols) {
      uint32_t state = 0;
      for (size_t t = 0; t < num_words; ++t) {
        if (symbols[t] == CompiledLfProgram::kNoSymbol) {
          state = 0;  // Unknown symbol: no edge anywhere; reset to root.
          continue;
        }
        state = p.token_ac.Next(state, symbols[t]);
        for (uint32_t o = p.token_ac.out_offsets[state];
             o < p.token_ac.out_offsets[state + 1]; ++o) {
          uint32_t pattern = p.token_ac.out_patterns[o];
          // Token patterns are single symbols, so the hit covers [t, t].
          record(p.token_pattern_slots[pattern], static_cast<uint32_t>(t),
                 static_cast<uint32_t>(t));
        }
      }
    };
    if (p.needs_lower_pass) walk(scratch->lower);
    if (p.needs_stem_pass) walk(scratch->stem);
  }

  if (!p.byte_pattern_slots.empty() && num_words > 0) {
    // Byte positions in the space-joined lowercased sentence; token t's
    // first byte is byte_starts[t], and the separator before it (t > 0) is
    // byte_starts[t] - 1. Strictly increasing, so interval mapping is a
    // binary search.
    std::vector<size_t>& byte_starts = scratch->byte_starts;
    byte_starts.resize(num_words);
    size_t total = 0;
    for (size_t t = 0; t < num_words; ++t) {
      byte_starts[t] = total + (t > 0 ? 1 : 0);
      total = byte_starts[t] + sentence.words[t].size();
    }

    const FlatAutomaton& ac = p.byte_ac;
    const uint32_t* out = ac.out_offsets.data();
    uint32_t state = 0;
    size_t pos = 0;
    auto feed = [&](unsigned char c, uint32_t end_token) {
      state = ac.Next(state, c);
      for (uint32_t o = out[state]; o < out[state + 1]; ++o) {
        uint32_t pattern = ac.out_patterns[o];
        size_t start_byte = pos + 1 - p.byte_pattern_lengths[pattern];
        // Token whose range (own bytes plus trailing separator) holds the
        // start byte: a match starting on the separator between u and u+1
        // maps to u, so containment a >= lo keeps separator-led matches
        // that begin inside the between text and drops the one just before
        // it.
        uint32_t a = static_cast<uint32_t>(
            std::upper_bound(byte_starts.begin(), byte_starts.end(),
                             start_byte) -
            byte_starts.begin() - 1);
        record(p.byte_pattern_slots[pattern], a, end_token);
      }
      ++pos;
    };
    for (size_t t = 0; t < num_words; ++t) {
      if (t > 0) feed(' ', static_cast<uint32_t>(t));
      for (char c : sentence.words[t]) {
        feed(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c,
             static_cast<uint32_t>(t));
      }
    }
  }
}

}  // namespace

CompiledScanCacheStats GetCompiledScanCacheStats() {
  CompiledScanCacheStats stats;
  stats.misses = SentencesScanned().value();
  return stats;
}

CompiledLfBatch::CompiledLfBatch(
    std::shared_ptr<const CompiledLfProgram> program, const Corpus& corpus,
    const std::vector<const Candidate*>& rows, size_t begin)
    : program_(std::move(program)) {
  const CompiledLfProgram& p = *program_;
  const size_t num_slots = p.entries.size();
  slot_words_ = (num_slots + 63) / 64;
  rows_.resize(rows.size());

  // Distinct (doc, sentence) keys of the rows, numbered in first-use order.
  std::unordered_map<uint64_t, uint32_t> scan_index;
  std::vector<const Sentence*> sentences;
  for (size_t i = begin; i < rows.size(); ++i) {
    const Candidate& c = *rows[i];
    uint64_t key =
        (static_cast<uint64_t>(c.span1.doc) << 32) | c.span1.sentence;
    const Sentence& sentence =
        corpus.document(c.span1.doc).sentences[c.span1.sentence];
    auto [it, inserted] =
        scan_index.try_emplace(key, static_cast<uint32_t>(sentences.size()));
    if (inserted) sentences.push_back(&sentence);

    RowCtx& ctx = rows_[i];
    ctx.scan = it->second;
    ctx.span1_first = c.span1.word_start <= c.span2.word_start;
    const Span& first = ctx.span1_first ? c.span1 : c.span2;
    const Span& second = ctx.span1_first ? c.span2 : c.span1;
    ctx.first_start = first.word_start;
    ctx.first_end = first.word_end;
    ctx.second_start = second.word_start;
    ctx.second_end = second.word_end;
    ctx.sent_size = static_cast<uint32_t>(sentence.words.size());
    if (!p.byte_pattern_slots.empty()) {
      uint32_t hi = std::min(ctx.second_start, ctx.sent_size);
      for (uint32_t t = ctx.first_end; t < hi; ++t) {
        if (!sentence.words[t].empty()) {
          ctx.between_f = t;
          break;
        }
      }
    }
  }

  TokenTable* tokens = p.token_pattern_slots.empty()
                           ? nullptr
                           : &ThreadTokenTable(p.id());
  ScanScratch scratch;
  any_bits_.assign(sentences.size() * slot_words_, 0);
  hit_offsets_.reserve(sentences.size() * (num_slots + 1));
  for (size_t k = 0; k < sentences.size(); ++k) {
    ScanSentence(p, tokens, *sentences[k], &scratch,
                 any_bits_.data() + k * slot_words_);
    // (slot, packed) order groups hits by slot, each slot's ordered by
    // (a, b) so containment checks can binary-search on a.
    std::sort(scratch.raw.begin(), scratch.raw.end());
    size_t r = 0;
    for (uint32_t slot = 0; slot <= num_slots; ++slot) {
      while (r < scratch.raw.size() && scratch.raw[r].first < slot) ++r;
      hit_offsets_.push_back(static_cast<uint32_t>(hits_.size() + r));
    }
    for (const auto& [slot, packed] : scratch.raw) hits_.push_back(packed);
  }
  uint64_t scanned = sentences.size();

  if (p.has_doc_scope) {
    std::unordered_map<uint32_t, int32_t> doc_blocks;  // doc -> block index
    for (size_t i = begin; i < rows.size(); ++i) {
      uint32_t doc_id = rows[i]->span1.doc;
      auto [it, inserted] = doc_blocks.try_emplace(
          doc_id, static_cast<int32_t>(doc_blocks.size()));
      rows_[i].doc_index = it->second;
      if (!inserted) continue;
      // OR the any-hit bits of every sentence in the document: the batch's
      // own scans, plus one scan of each sentence holding none of its rows.
      doc_bits_.resize(doc_bits_.size() + slot_words_, 0);
      uint64_t* bits = doc_bits_.data() + doc_bits_.size() - slot_words_;
      const Document& doc = corpus.document(doc_id);
      for (size_t s = 0; s < doc.sentences.size(); ++s) {
        uint64_t key = (static_cast<uint64_t>(doc_id) << 32) | s;
        auto scan = scan_index.find(key);
        if (scan == scan_index.end()) {
          ScanSentence(p, tokens, doc.sentences[s], &scratch, bits);
          ++scanned;
          continue;
        }
        const uint64_t* own = any_bits_.data() + scan->second * slot_words_;
        for (size_t w = 0; w < slot_words_; ++w) bits[w] |= own[w];
      }
    }
  }
  SentencesScanned().Increment(scanned);
}

bool CompiledLfBatch::HasHitIn(uint32_t scan, uint32_t slot, uint32_t lo,
                               uint32_t hi) const {
  if (lo >= hi) return false;
  const uint32_t* offsets =
      hit_offsets_.data() + size_t{scan} * (program_->entries.size() + 1);
  const uint64_t* begin = hits_.data() + offsets[slot];
  const uint64_t* end = hits_.data() + offsets[slot + 1];
  for (const uint64_t* it = std::lower_bound(begin, end, PackInterval(lo, 0));
       it != end; ++it) {
    uint32_t a = static_cast<uint32_t>(*it >> 32);
    if (a >= hi) break;
    uint32_t b = static_cast<uint32_t>(*it);
    if (b < hi) return true;
  }
  return false;
}

Label CompiledLfBatch::Eval(uint32_t slot, size_t i) const {
  const CompiledLfEntry& e = program_->entries[slot];
  const RowCtx& ctx = rows_[i];
  switch (e.kind) {
    case LfSpecKind::kKeywordBetween: {
      uint32_t hi = std::min(ctx.second_start, ctx.sent_size);
      return HasHitIn(ctx.scan, slot, ctx.first_end, hi) ? e.label : kAbstain;
    }
    case LfSpecKind::kDirectionalKeyword: {
      uint32_t hi = std::min(ctx.second_start, ctx.sent_size);
      if (!HasHitIn(ctx.scan, slot, ctx.first_end, hi)) return kAbstain;
      return ctx.span1_first ? e.label : e.label_reverse;
    }
    case LfSpecKind::kContextKeyword: {
      uint32_t left_lo =
          ctx.first_start >= e.window ? ctx.first_start - e.window : 0;
      if (HasHitIn(ctx.scan, slot, left_lo, ctx.first_start)) return e.label;
      uint32_t right_hi = static_cast<uint32_t>(
          std::min<uint64_t>(static_cast<uint64_t>(ctx.second_end) + e.window,
                             ctx.sent_size));
      return HasHitIn(ctx.scan, slot, ctx.second_end, right_hi) ? e.label
                                                                : kAbstain;
    }
    case LfSpecKind::kSentenceKeyword: {
      uint64_t word = any_bits_[ctx.scan * slot_words_ + (slot >> 6)];
      return (word >> (slot & 63)) & 1 ? e.label : kAbstain;
    }
    case LfSpecKind::kDocumentKeyword: {
      if (ctx.doc_index < 0) return kAbstain;
      uint64_t word = doc_bits_[ctx.doc_index * slot_words_ + (slot >> 6)];
      return (word >> (slot & 63)) & 1 ? e.label : kAbstain;
    }
    case LfSpecKind::kRegexBetween: {
      if (ctx.between_f == kNoToken) return kAbstain;
      uint32_t hi = std::min(ctx.second_start, ctx.sent_size);
      return HasHitIn(ctx.scan, slot, ctx.between_f, hi) ? e.label : kAbstain;
    }
    case LfSpecKind::kDistance: {
      uint64_t distance = ctx.second_start <= ctx.first_end
                              ? 0
                              : ctx.second_start - ctx.first_end;
      return distance > e.max_tokens ? e.label : kAbstain;
    }
  }
  return kAbstain;
}

}  // namespace snorkel
