#include "lf/compiled/program.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <list>
#include <mutex>
#include <set>
#include <utility>

#include "lf/labeling_function.h"
#include "text/stemmer.h"
#include "util/binary_io.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace snorkel {

namespace {

constexpr uint32_t kProgramFormatVersion = 1;

void WriteU32Vec(BinaryWriter* writer, const std::vector<uint32_t>& values) {
  writer->WriteU64(values.size());
  for (uint32_t v : values) writer->WriteU32(v);
}

std::vector<uint32_t> ReadU32Vec(BinaryReader* reader) {
  std::vector<uint32_t> values;
  uint64_t count = reader->ReadU64();
  if (!reader->ok()) return values;
  // A corrupted count larger than the remaining bytes latches the reader's
  // IOError on the first out-of-bounds element; cap the reserve so hostile
  // counts can't trigger a huge allocation first.
  values.reserve(static_cast<size_t>(
      std::min<uint64_t>(count, reader->remaining() / sizeof(uint32_t))));
  for (uint64_t i = 0; i < count; ++i) {
    values.push_back(reader->ReadU32());
    if (!reader->ok()) {
      values.clear();
      break;
    }
  }
  return values;
}

void WriteAutomaton(BinaryWriter* writer, const FlatAutomaton& ac) {
  WriteU32Vec(writer, ac.edge_offsets);
  WriteU32Vec(writer, ac.edge_symbols);
  WriteU32Vec(writer, ac.edge_targets);
  WriteU32Vec(writer, ac.fail);
  WriteU32Vec(writer, ac.out_offsets);
  WriteU32Vec(writer, ac.out_patterns);
}

FlatAutomaton ReadAutomaton(BinaryReader* reader) {
  FlatAutomaton ac;
  ac.edge_offsets = ReadU32Vec(reader);
  ac.edge_symbols = ReadU32Vec(reader);
  ac.edge_targets = ReadU32Vec(reader);
  ac.fail = ReadU32Vec(reader);
  ac.out_offsets = ReadU32Vec(reader);
  ac.out_patterns = ReadU32Vec(reader);
  return ac;
}

/// Structural validation of a decoded automaton against the pattern count it
/// must reference; hostile payloads must not be able to cause out-of-bounds
/// reads at match time.
bool ValidAutomaton(const FlatAutomaton& ac, size_t num_patterns) {
  size_t n = ac.fail.size();
  if (n == 0) return false;  // Always at least the root.
  if (ac.edge_offsets.size() != n + 1 || ac.out_offsets.size() != n + 1) {
    return false;
  }
  if (ac.edge_offsets.front() != 0 || ac.out_offsets.front() != 0) {
    return false;
  }
  if (ac.edge_offsets.back() != ac.edge_symbols.size() ||
      ac.out_offsets.back() != ac.out_patterns.size()) {
    return false;
  }
  if (ac.edge_targets.size() != ac.edge_symbols.size()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (ac.edge_offsets[i] > ac.edge_offsets[i + 1]) return false;
    if (ac.out_offsets[i] > ac.out_offsets[i + 1]) return false;
    if (ac.fail[i] >= n) return false;
    // Sorted edges are what Step()'s binary search assumes.
    for (uint32_t e = ac.edge_offsets[i] + 1; e < ac.edge_offsets[i + 1];
         ++e) {
      if (ac.edge_symbols[e - 1] >= ac.edge_symbols[e]) return false;
    }
  }
  if (ac.fail[0] != 0) return false;
  for (uint32_t target : ac.edge_targets) {
    if (target >= n) return false;
  }
  for (uint32_t pattern : ac.out_patterns) {
    if (pattern >= num_patterns) return false;
  }
  // Every node must be reachable from the root and fail strictly closer to
  // it: otherwise a failure chain can cycle (Step() would never return) or
  // Densify() would read a row it has not built yet.
  constexpr uint32_t kUnreached = 0xffffffffu;
  std::vector<uint32_t> depth(n, kUnreached);
  std::vector<uint32_t> order{0};
  depth[0] = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    uint32_t node = order[k];
    for (uint32_t e = ac.edge_offsets[node]; e < ac.edge_offsets[node + 1];
         ++e) {
      uint32_t target = ac.edge_targets[e];
      if (depth[target] == kUnreached) {
        depth[target] = depth[node] + 1;
        order.push_back(target);
      }
    }
  }
  if (order.size() != n) return false;
  for (size_t i = 1; i < n; ++i) {
    if (depth[ac.fail[i]] >= depth[i]) return false;
  }
  return true;
}

/// Accepts exactly the regexes the byte engine reproduces bit-for-bit:
/// alternations of non-empty ASCII literal branches with no metacharacters.
/// Branches come back lowercased (the engine matches case-insensitively by
/// lowering both pattern and text, which is what std::regex::icase does for
/// the ASCII subset).
bool ParseLiteralAlternation(std::string_view regex,
                             std::vector<std::string>* branches) {
  static constexpr std::string_view kMeta = "^$\\.*+?()[]{}";
  std::vector<std::string> out;
  std::string current;
  for (char c : regex) {
    if (c == '|') {
      if (current.empty()) return false;
      out.push_back(std::move(current));
      current.clear();
      continue;
    }
    if (static_cast<unsigned char>(c) >= 0x80) return false;
    if (kMeta.find(c) != std::string_view::npos) return false;
    current.push_back(
        c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  }
  if (current.empty()) return false;
  out.push_back(std::move(current));
  *branches = std::move(out);
  return true;
}

uint64_t NextProgramId() {
  static std::atomic<uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

class Interner {
 public:
  explicit Interner(std::vector<std::string>* symbols) : symbols_(symbols) {}

  uint32_t Intern(const std::string& token) {
    auto it = index_.find(token);
    if (it != index_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(symbols_->size());
    symbols_->push_back(token);
    index_.emplace(token, id);
    return id;
  }

 private:
  std::vector<std::string>* symbols_;
  std::map<std::string, uint32_t> index_;  // compile-time only; order unused
};

}  // namespace

uint32_t FlatAutomaton::Step(uint32_t state, uint32_t symbol) const {
  for (;;) {
    uint32_t lo = edge_offsets[state];
    uint32_t hi = edge_offsets[state + 1];
    const uint32_t* first = edge_symbols.data() + lo;
    const uint32_t* last = edge_symbols.data() + hi;
    const uint32_t* it = std::lower_bound(first, last, symbol);
    if (it != last && *it == symbol) {
      return edge_targets[lo + static_cast<uint32_t>(it - first)];
    }
    if (state == 0) return 0;
    state = fail[state];
  }
}

void FlatAutomaton::Densify() {
  dense_next.clear();
  width = 0;
  uint64_t symbols = 0;
  for (uint32_t symbol : edge_symbols) {
    symbols = std::max<uint64_t>(symbols, uint64_t{symbol} + 1);
  }
  if (symbols == 0 || num_nodes() * symbols > kMaxDenseEntries) return;
  width = static_cast<uint32_t>(symbols);
  dense_next.assign(num_nodes() * width, 0);
  // Breadth-first, so a node's failure row is complete before its own:
  // a node inherits its failure target's row, then overrides its edges.
  std::vector<bool> seen(num_nodes(), false);
  std::vector<uint32_t> order{0};
  seen[0] = true;
  for (size_t k = 0; k < order.size(); ++k) {
    uint32_t node = order[k];
    uint32_t* row = dense_next.data() + size_t{node} * width;
    if (node != 0) {
      const uint32_t* inherited =
          dense_next.data() + size_t{fail[node]} * width;
      std::copy(inherited, inherited + width, row);
    }
    for (uint32_t e = edge_offsets[node]; e < edge_offsets[node + 1]; ++e) {
      row[edge_symbols[e]] = edge_targets[e];
      if (!seen[edge_targets[e]]) {
        seen[edge_targets[e]] = true;
        order.push_back(edge_targets[e]);
      }
    }
  }
}

AutomatonBuilder::AutomatonBuilder() : nodes_(1) {}

uint32_t AutomatonBuilder::AddPattern(const std::vector<uint32_t>& symbols) {
  uint32_t node = 0;
  for (uint32_t symbol : symbols) {
    auto [it, inserted] = nodes_[node].edges.try_emplace(
        symbol, static_cast<uint32_t>(nodes_.size()));
    if (inserted) nodes_.emplace_back();
    node = it->second;
  }
  uint32_t id = static_cast<uint32_t>(num_patterns_++);
  nodes_[node].ends.push_back(id);
  return id;
}

FlatAutomaton AutomatonBuilder::Build() const {
  size_t n = nodes_.size();
  FlatAutomaton ac;
  ac.fail.assign(n, 0);
  ac.edge_offsets.reserve(n + 1);
  ac.out_offsets.reserve(n + 1);

  // Flatten the goto function (trie node ids are insertion order, edges in
  // symbol order via std::map — all deterministic).
  ac.edge_offsets.push_back(0);
  for (const Node& node : nodes_) {
    for (const auto& [symbol, target] : node.edges) {
      ac.edge_symbols.push_back(symbol);
      ac.edge_targets.push_back(target);
    }
    ac.edge_offsets.push_back(static_cast<uint32_t>(ac.edge_symbols.size()));
  }

  // BFS failure links; outputs are closed through the failure chain as we
  // go (a node's fail target is always visited first), so matching never
  // walks fail links to emit outputs.
  std::vector<std::vector<uint32_t>> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = nodes_[i].ends;
  std::deque<uint32_t> queue;
  for (const auto& [symbol, target] : nodes_[0].edges) {
    ac.fail[target] = 0;
    queue.push_back(target);
  }
  while (!queue.empty()) {
    uint32_t node = queue.front();
    queue.pop_front();
    const std::vector<uint32_t>& closure = out[ac.fail[node]];
    out[node].insert(out[node].end(), closure.begin(), closure.end());
    for (const auto& [symbol, target] : nodes_[node].edges) {
      ac.fail[target] = ac.Step(ac.fail[node], symbol);
      queue.push_back(target);
    }
  }

  ac.out_offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    ac.out_patterns.insert(ac.out_patterns.end(), out[i].begin(),
                           out[i].end());
    ac.out_offsets.push_back(static_cast<uint32_t>(ac.out_patterns.size()));
  }
  return ac;
}

CompiledLfProgram::CompiledLfProgram() : id_(NextProgramId()) {}

void CompiledLfProgram::Finalize() {
  slot_of_lf.assign(num_lfs, -1);
  for (size_t slot = 0; slot < entries.size(); ++slot) {
    slot_of_lf[entries[slot].lf_index] = static_cast<int32_t>(slot);
    if (entries[slot].kind == LfSpecKind::kDocumentKeyword) {
      has_doc_scope = true;
    }
  }
  for (uint32_t encoded : token_ac.edge_symbols) {
    if ((encoded & 1u) == 0) {
      needs_lower_pass = true;
    } else {
      needs_stem_pass = true;
    }
  }
  symbol_index_.reserve(symbols.size());
  for (size_t i = 0; i < symbols.size(); ++i) {
    symbol_index_.emplace(symbols[i], static_cast<uint32_t>(i));
  }
  token_ac.Densify();
  byte_ac.Densify();
}

std::string CompiledLfProgram::Encode() const {
  BinaryWriter writer;
  writer.WriteU32(kProgramFormatVersion);
  writer.WriteU64(num_lfs);
  writer.WriteU64(entries.size());
  for (const CompiledLfEntry& e : entries) {
    writer.WriteU64(e.fingerprint);
    writer.WriteU32(e.lf_index);
    writer.WriteU32(static_cast<uint32_t>(e.kind));
    writer.WriteI32(e.label);
    writer.WriteI32(e.label_reverse);
    writer.WriteU32(e.window);
    writer.WriteU64(e.max_tokens);
  }
  writer.WriteStringVector(symbols);
  // Token patterns are single symbols: (slot, encoded symbol).
  writer.WriteU64(token_pattern_slots.size());
  for (size_t p = 0; p < token_pattern_slots.size(); ++p) {
    writer.WriteU32(token_pattern_slots[p]);
  }
  writer.WriteU64(byte_pattern_slots.size());
  for (size_t p = 0; p < byte_pattern_slots.size(); ++p) {
    writer.WriteU32(byte_pattern_slots[p]);
    writer.WriteU32(byte_pattern_lengths[p]);
  }
  WriteAutomaton(&writer, token_ac);
  WriteAutomaton(&writer, byte_ac);
  return writer.TakeBuffer();
}

Result<std::shared_ptr<const CompiledLfProgram>> CompiledLfProgram::Decode(
    std::string_view payload) {
  BinaryReader reader(payload);
  uint32_t version = reader.ReadU32();
  if (reader.ok() && version != kProgramFormatVersion) {
    return Status::IOError("compiled LF program: unsupported format version " +
                           std::to_string(version));
  }
  auto program = std::make_shared<CompiledLfProgram>();
  program->num_lfs = reader.ReadU64();
  uint64_t num_entries = reader.ReadU64();
  if (reader.ok() && num_entries > program->num_lfs) {
    return Status::IOError(
        "compiled LF program: more compiled entries than LF columns");
  }
  for (uint64_t i = 0; reader.ok() && i < num_entries; ++i) {
    CompiledLfEntry e;
    e.fingerprint = reader.ReadU64();
    e.lf_index = reader.ReadU32();
    uint32_t kind = reader.ReadU32();
    e.label = reader.ReadI32();
    e.label_reverse = reader.ReadI32();
    e.window = reader.ReadU32();
    e.max_tokens = reader.ReadU64();
    if (!reader.ok()) break;
    if (kind > static_cast<uint32_t>(LfSpecKind::kDistance)) {
      return Status::IOError("compiled LF program: unknown entry kind " +
                             std::to_string(kind));
    }
    e.kind = static_cast<LfSpecKind>(kind);
    if (e.lf_index >= program->num_lfs) {
      return Status::IOError(
          "compiled LF program: entry references LF column out of range");
    }
    program->entries.push_back(std::move(e));
  }
  program->symbols = reader.ReadStringVector();
  uint64_t num_token_patterns = reader.ReadU64();
  for (uint64_t p = 0; reader.ok() && p < num_token_patterns; ++p) {
    program->token_pattern_slots.push_back(reader.ReadU32());
  }
  uint64_t num_byte_patterns = reader.ReadU64();
  for (uint64_t p = 0; reader.ok() && p < num_byte_patterns; ++p) {
    program->byte_pattern_slots.push_back(reader.ReadU32());
    program->byte_pattern_lengths.push_back(reader.ReadU32());
  }
  program->token_ac = ReadAutomaton(&reader);
  program->byte_ac = ReadAutomaton(&reader);
  if (!reader.ok()) {
    return Status::IOError("compiled LF program: truncated payload (" +
                           reader.status().message() + ")");
  }

  for (uint32_t slot : program->token_pattern_slots) {
    if (slot >= program->entries.size()) {
      return Status::IOError(
          "compiled LF program: token pattern references bad slot");
    }
  }
  for (size_t p = 0; p < program->byte_pattern_slots.size(); ++p) {
    if (program->byte_pattern_slots[p] >= program->entries.size() ||
        program->byte_pattern_lengths[p] == 0) {
      return Status::IOError(
          "compiled LF program: byte pattern references bad slot or length");
    }
  }
  if (!ValidAutomaton(program->token_ac,
                      program->token_pattern_slots.size()) ||
      !ValidAutomaton(program->byte_ac, program->byte_pattern_slots.size())) {
    return Status::IOError("compiled LF program: malformed automaton");
  }
  uint32_t symbol_limit = static_cast<uint32_t>(program->symbols.size()) * 2;
  for (uint32_t encoded : program->token_ac.edge_symbols) {
    if (encoded >= symbol_limit) {
      return Status::IOError(
          "compiled LF program: token symbol out of intern-table range");
    }
  }
  for (uint32_t byte : program->byte_ac.edge_symbols) {
    if (byte > 0xff) {
      return Status::IOError("compiled LF program: byte symbol out of range");
    }
  }
  program->Finalize();
  return std::shared_ptr<const CompiledLfProgram>(std::move(program));
}

std::shared_ptr<const CompiledLfProgram> CompileLfSet(
    const LabelingFunctionSet& lfs) {
  auto program = std::make_shared<CompiledLfProgram>();
  program->num_lfs = lfs.size();
  Interner interner(&program->symbols);
  AutomatonBuilder token_builder;
  AutomatonBuilder byte_builder;

  for (size_t j = 0; j < lfs.size(); ++j) {
    const std::shared_ptr<const LfCompileSpec>& spec =
        lfs.at(j).compile_spec();
    if (!spec) continue;

    CompiledLfEntry entry;
    entry.fingerprint = lfs.at(j).fingerprint();
    entry.lf_index = static_cast<uint32_t>(j);
    entry.kind = spec->kind;
    entry.label = spec->label;
    entry.label_reverse = spec->label_reverse;
    entry.window = static_cast<uint32_t>(spec->window);
    entry.max_tokens = spec->max_tokens;
    uint32_t slot = static_cast<uint32_t>(program->entries.size());

    switch (spec->kind) {
      case LfSpecKind::kKeywordBetween:
      case LfSpecKind::kDirectionalKeyword:
      case LfSpecKind::kContextKeyword:
      case LfSpecKind::kSentenceKeyword:
      case LfSpecKind::kDocumentKeyword: {
        // Mirror BuildKeywordSet exactly: lowercase, optionally stem, and
        // dedupe. Each distinct form becomes one single-symbol pattern in
        // the shared automaton, tagged with its domain bit.
        std::set<uint32_t> seen;
        std::vector<uint32_t> pattern_symbols;
        for (const std::string& keyword : spec->keywords) {
          std::string lower = ToLower(keyword);
          std::string form = spec->stem ? Stemmer::Stem(lower) : lower;
          uint32_t encoded =
              (interner.Intern(form) << 1) | (spec->stem ? 1u : 0u);
          if (!seen.insert(encoded).second) continue;
          pattern_symbols.assign(1, encoded);
          token_builder.AddPattern(pattern_symbols);
          program->token_pattern_slots.push_back(slot);
        }
        break;
      }
      case LfSpecKind::kRegexBetween: {
        std::vector<std::string> branches;
        if (!ParseLiteralAlternation(spec->regex, &branches)) {
          continue;  // Beyond the fused-DFA subset: stays interpreted.
        }
        for (const std::string& branch : branches) {
          std::vector<uint32_t> bytes;
          bytes.reserve(branch.size());
          for (char c : branch) {
            bytes.push_back(static_cast<unsigned char>(c));
          }
          byte_builder.AddPattern(bytes);
          program->byte_pattern_slots.push_back(slot);
          program->byte_pattern_lengths.push_back(
              static_cast<uint32_t>(branch.size()));
        }
        break;
      }
      case LfSpecKind::kDistance:
        break;  // Pure span arithmetic; no patterns.
    }
    program->entries.push_back(std::move(entry));
  }

  program->token_ac = token_builder.Build();
  program->byte_ac = byte_builder.Build();
  program->Finalize();
  return program;
}

std::shared_ptr<const CompiledLfProgram> GetOrCompileProgram(
    const LabelingFunctionSet& lfs) {
  uint64_t key = Fnv1a64("lfcp");
  key = HashCombine(key, lfs.size());
  for (size_t j = 0; j < lfs.size(); ++j) {
    key = HashCombine(key, lfs.at(j).fingerprint());
  }

  static std::mutex mu;
  static constexpr size_t kMaxCached = 32;
  // FIFO of (key, program); tiny, so linear scans beat a map + list.
  static std::list<std::pair<uint64_t, std::shared_ptr<const CompiledLfProgram>>>&
      cache = *new std::list<
          std::pair<uint64_t, std::shared_ptr<const CompiledLfProgram>>>;

  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [cached_key, cached_program] : cache) {
      if (cached_key == key && ProgramMatchesLfSet(*cached_program, lfs)) {
        return cached_program;
      }
    }
  }
  std::shared_ptr<const CompiledLfProgram> program = CompileLfSet(lfs);
  std::lock_guard<std::mutex> lock(mu);
  cache.emplace_front(key, program);
  while (cache.size() > kMaxCached) cache.pop_back();
  return program;
}

bool ProgramMatchesLfSet(const CompiledLfProgram& program,
                         const LabelingFunctionSet& lfs) {
  if (program.num_lfs != lfs.size()) return false;
  for (const CompiledLfEntry& entry : program.entries) {
    if (entry.lf_index >= lfs.size()) return false;
    if (lfs.at(entry.lf_index).fingerprint() != entry.fingerprint) {
      return false;
    }
  }
  return true;
}

}  // namespace snorkel
