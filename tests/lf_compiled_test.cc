// Tier-1 suite for the compiled LF execution engine (src/lf/compiled/).
//
// The engine's contract is BITWISE parity: dispatching compilable LFs
// through the shared Aho-Corasick batch scan must produce a label matrix
// whose CSR arrays (entries + row offsets) are identical to the interpreted
// per-row path, at any thread count, for every synthetic workload in the
// repo. These tests pin that contract over all four §4.1.1 relation tasks,
// the unary radiology task, hand-built degenerate-token corpora, the
// snapshot-loaded (Decode'd) program path, the IncrementalApplier cache,
// and a many-threads shared-applier hammer (run under TSan in CI). It also
// pins the kernel's pieces: dense automaton tables against Step(), hostile
// automata at Decode, and the per-thread token memo across programs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/candidate.h"
#include "data/context.h"
#include "data/knowledge_base.h"
#include "lf/applier.h"
#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "lf/declarative.h"
#include "lf/labeling_function.h"
#include "pipeline/export_snapshot.h"
#include "serve/incremental_applier.h"
#include "serve/label_service.h"
#include "shard/shard_router.h"
#include "synth/crossmodal.h"
#include "synth/relation_task.h"
#include "util/status.h"

namespace snorkel {
namespace {

/// Applies `lfs` with a fresh applier under `options`; fails the calling
/// test (and returns an empty matrix) on error.
LabelMatrix MustApply(const LFApplier::Options& options,
                      const LabelingFunctionSet& lfs, const Corpus& corpus,
                      const std::vector<Candidate>& candidates) {
  LFApplier applier(options);
  auto matrix = applier.Apply(lfs, corpus, candidates);
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  return matrix.ok() ? std::move(*matrix) : LabelMatrix();
}

/// The parity check: identical CSR arrays, not just equal summaries.
void ExpectSameMatrix(const LabelMatrix& compiled,
                      const LabelMatrix& interpreted) {
  ASSERT_EQ(compiled.row_offsets(), interpreted.row_offsets());
  ASSERT_TRUE(compiled.entries() == interpreted.entries());
  EXPECT_EQ(compiled.num_lfs(), interpreted.num_lfs());
  EXPECT_EQ(compiled.cardinality(), interpreted.cardinality());
}

/// Compiled-vs-interpreted parity at 1 / 2 / 8 threads. The interpreted
/// baseline runs serial so any divergence is attributable to the engine,
/// not the sharding.
void CheckParityAcrossThreadCounts(const LabelingFunctionSet& lfs,
                                   const Corpus& corpus,
                                   const std::vector<Candidate>& candidates) {
  ASSERT_FALSE(candidates.empty());
  LabelMatrix interpreted = MustApply(
      {.num_threads = 1, .use_compiled = false}, lfs, corpus, candidates);
  ASSERT_FALSE(interpreted.entries().empty());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    LabelMatrix compiled = MustApply(
        {.num_threads = threads, .use_compiled = true}, lfs, corpus,
        candidates);
    ExpectSameMatrix(compiled, interpreted);
  }
}

// ---------------------------------------------------------------------------
// Compilability partition: which LFs the compiler takes, which fall back.
// ---------------------------------------------------------------------------

TEST(CompiledProgramTest, CompilesEveryDeclarativeFamilyAndOnlyThose) {
  KnowledgeBase kb;
  kb.Add("causes", "C_mg", "D_quad");

  LabelingFunctionSet lfs;
  // The seven compilable families.
  lfs.Add(MakeKeywordBetweenLF("kw", {"causes", "induced"}, 1));
  lfs.Add(MakeDirectionalKeywordLF("dir", {"treats"}, 1, -1));
  lfs.Add(MakeContextKeywordLF("ctx", {"no"}, 3, -1));
  lfs.Add(MakeSentenceKeywordLF("sent", {"normal"}, -1));
  lfs.Add(MakeDocumentKeywordLF("doc", {"history"}, -1));
  lfs.Add(MakeRegexBetweenLF("rx_literal", "severe|acute", 1));
  lfs.Add(MakeDistanceLF("dist", 8, -1));
  size_t compilable = lfs.size();
  // Everything else must stay interpreted: a regex beyond literal
  // alternations, distant supervision, a weak classifier, a crowd worker,
  // the combinators, and a raw lambda.
  lfs.Add(MakeRegexBetweenLF("rx_general", "caus\\w+\\s+severe", 1));
  lfs.Add(MakeOntologyLF("onto", &kb, "causes", 1));
  lfs.Add(MakeWeakClassifierLF(
      "weak", [](const CandidateView&) { return 0.9; }));
  lfs.Add(MakeCrowdWorkerLF("crowd", {{0, 1}}));
  lfs.Add(MakeGuardedLF("guarded", MakeKeywordBetweenLF("g", {"causes"}, 1),
                        [](const CandidateView&) { return true; }));
  lfs.Add(MakeFirstVoteLF(
      "first", {MakeKeywordBetweenLF("f", {"causes"}, 1)}));
  lfs.Add(LabelingFunction(
      "lambda", [](const CandidateView&) -> Label { return kAbstain; }));

  auto program = CompileLfSet(lfs);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->num_lfs, lfs.size());
  EXPECT_EQ(program->num_compiled(), compilable);
  ASSERT_EQ(program->slot_of_lf.size(), lfs.size());
  for (size_t j = 0; j < lfs.size(); ++j) {
    if (j < compilable) {
      EXPECT_GE(program->slot_of_lf[j], 0) << lfs.Names()[j];
    } else {
      EXPECT_EQ(program->slot_of_lf[j], -1) << lfs.Names()[j];
    }
  }
  EXPECT_TRUE(ProgramMatchesLfSet(*program, lfs));
}

// ---------------------------------------------------------------------------
// Parity over every synthetic workload in the repo.
// ---------------------------------------------------------------------------

TEST(CompiledParityTest, CdrTaskBitwiseAt1_2_8Threads) {
  auto task = MakeCdrTask(42, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  // The relation suites mix compilable pattern LFs with interpreted
  // distant-supervision LFs, so this exercises the fused dispatch path.
  auto program = CompileLfSet(task->lfs);
  EXPECT_GT(program->num_compiled(), 0u);
  EXPECT_LT(program->num_compiled(), task->lfs.size());
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, SpousesTaskBitwiseAt1_2_8Threads) {
  auto task = MakeSpousesTask(7, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, EhrTaskBitwiseAt1_2_8Threads) {
  auto task = MakeEhrTask(11, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, ChemTaskBitwiseAt1_2_8Threads) {
  auto task = MakeChemTask(23, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, RadiologyUnaryCandidatesBitwise) {
  RadiologyOptions options;
  options.num_reports = 250;
  auto task = MakeRadiologyTask(options);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  // Unary candidates (span1 == span2): the sentence/document-scope families
  // and the degenerate between-range (empty) both get exercised.
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, DegenerateTokensBitwise) {
  // Hand-built corpus hitting the engine's edge cases: empty tokens (incl.
  // one LEADING the between-range, where byte offsets alone would misplace
  // a regex hit), embedded whitespace, uppercase, punctuation, and a
  // candidate pair spanning sentences-with-context keywords.
  Corpus corpus;
  Document doc;
  Sentence s0;
  s0.words = {"magnesium", "", "severe", "quadriplegia"};
  s0.mentions = {Mention{0, 1, "chemical", "C_mg"},
                 Mention{3, 4, "disease", "D_q"}};
  Sentence s1;
  s1.words = {"", "Aspirin", "TREATS", "odd token", "headache", ""};
  s1.mentions = {Mention{1, 2, "chemical", "C_asp"},
                 Mention{4, 5, "disease", "D_ha"}};
  Sentence s2;
  s2.words = {"no", "history", "of", "quadriplegia", ",", "normal", "exam"};
  s2.mentions = {Mention{3, 4, "disease", "D_q"},
                 Mention{3, 4, "disease", "D_q2"}};
  doc.sentences = {s0, s1, s2};
  corpus.AddDocument(std::move(doc));
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_FALSE(candidates.empty());

  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw", {"treats"}, 1));
  lfs.Add(MakeDirectionalKeywordLF("dir", {"treats"}, 1, -1));
  lfs.Add(MakeRegexBetweenLF("rx", "severe|acute", 1));
  lfs.Add(MakeContextKeywordLF("ctx", {"no", "exam"}, 3, -1));
  lfs.Add(MakeDistanceLF("dist", 2, -1));
  lfs.Add(MakeSentenceKeywordLF("sent", {"normal"}, -1));
  lfs.Add(MakeDocumentKeywordLF("dockw", {"history"}, -1));
  CheckParityAcrossThreadCounts(lfs, corpus, candidates);
}

TEST(CompiledParityTest, RefPathPreservesIndicesBitwise) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  // A strided sub-batch with original indices — the sharded tier's fan-out
  // shape. Index-dependent behaviour must match the interpreted refs path.
  std::vector<CandidateRef> rows;
  for (size_t i = 0; i < task->candidates.size(); i += 3) {
    rows.push_back(CandidateRef{&task->candidates[i], i});
  }
  ASSERT_FALSE(rows.empty());
  LFApplier interpreted({.num_threads = 1, .use_compiled = false});
  LFApplier compiled({.num_threads = 2, .use_compiled = true});
  auto base = interpreted.ApplyRefs(task->lfs, task->corpus, rows);
  auto fast = compiled.ApplyRefs(task->lfs, task->corpus, rows);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ExpectSameMatrix(*fast, *base);
}

// ---------------------------------------------------------------------------
// Error semantics under compiled dispatch.
// ---------------------------------------------------------------------------

TEST(CompiledParityTest, InterpretedOutOfRangeVoteStillSurfacesTyped) {
  Corpus corpus;
  Document doc;
  Sentence s;
  s.words = {"magnesium", "causes", "quadriplegia"};
  s.mentions = {Mention{0, 1, "chemical", "C"}, Mention{2, 3, "disease", "D"}};
  doc.sentences = {s};
  corpus.AddDocument(std::move(doc));
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_EQ(candidates.size(), 1u);

  // A compilable LF rides along; the buggy interpreted lambda must still
  // fail the request loudly instead of corrupting the matrix.
  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw", {"causes"}, 1));
  lfs.Add(LabelingFunction(
      "buggy", [](const CandidateView&) -> Label { return 7; }));
  LFApplier applier({.num_threads = 1, .use_compiled = true});
  auto result = applier.Apply(lfs, corpus, candidates);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Wire format: Encode/Decode round trip and rejection of malformed input.
// ---------------------------------------------------------------------------

TEST(CompiledProgramTest, EncodeDecodeRoundTripsByteEqual) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  auto program = CompileLfSet(task->lfs);
  ASSERT_GT(program->num_compiled(), 0u);

  std::string encoded = program->Encode();
  // Determinism: recompiling the same set encodes byte-identically.
  EXPECT_EQ(CompileLfSet(task->lfs)->Encode(), encoded);

  auto decoded = CompiledLfProgram::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->Encode(), encoded);
  EXPECT_EQ((*decoded)->num_lfs, program->num_lfs);
  EXPECT_EQ((*decoded)->slot_of_lf, program->slot_of_lf);
  EXPECT_TRUE(ProgramMatchesLfSet(**decoded, task->lfs));
}

TEST(CompiledProgramTest, DecodeRejectsTruncationWithIOError) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  std::string encoded = CompileLfSet(task->lfs)->Encode();
  for (size_t keep : {size_t{1}, encoded.size() / 2, encoded.size() - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    auto decoded = CompiledLfProgram::Decode(encoded.substr(0, keep));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  }
}

TEST(CompiledProgramTest, ProgramMembershipMismatchDetected) {
  auto cdr = MakeCdrTask(42, 0.05);
  auto ehr = MakeEhrTask(11, 0.05);
  ASSERT_TRUE(cdr.ok() && ehr.ok());
  auto program = CompileLfSet(cdr->lfs);
  EXPECT_FALSE(ProgramMatchesLfSet(*program, ehr->lfs));
}

// ---------------------------------------------------------------------------
// Dense automaton tables: Next() must step exactly like Step(), and hostile
// automata must neither hang nor allocate past the dense-table bound.
// ---------------------------------------------------------------------------

/// Every state and every symbol below width + 1 (one past the table, where
/// no edge exists anywhere): the dense step equals the binary-search step.
void ExpectDenseMatchesStep(const FlatAutomaton& ac) {
  ASSERT_FALSE(ac.dense_next.empty());
  ASSERT_EQ(ac.dense_next.size(), ac.num_nodes() * ac.width);
  for (uint32_t state = 0; state < ac.num_nodes(); ++state) {
    for (uint32_t symbol = 0; symbol <= ac.width; ++symbol) {
      ASSERT_EQ(ac.Next(state, symbol), ac.Step(state, symbol))
          << "state " << state << " symbol " << symbol;
    }
  }
}

TEST(CompiledAutomatonTest, DenseTablesMatchStepOnEveryTaskProgram) {
  auto cdr = MakeCdrTask(42, 0.05);
  auto spouses = MakeSpousesTask(7, 0.05);
  auto ehr = MakeEhrTask(11, 0.05);
  auto chem = MakeChemTask(23, 0.05);
  RadiologyOptions options;
  options.num_reports = 50;
  auto radiology = MakeRadiologyTask(options);
  ASSERT_TRUE(cdr.ok() && spouses.ok() && ehr.ok() && chem.ok() &&
              radiology.ok());
  auto decoded = CompiledLfProgram::Decode(CompileLfSet(cdr->lfs)->Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::vector<std::pair<std::string, std::shared_ptr<const CompiledLfProgram>>>
      programs = {{"cdr", CompileLfSet(cdr->lfs)},
                  {"spouses", CompileLfSet(spouses->lfs)},
                  {"ehr", CompileLfSet(ehr->lfs)},
                  {"chem", CompileLfSet(chem->lfs)},
                  {"radiology", CompileLfSet(radiology->lfs)},
                  {"cdr decoded", *decoded}};
  for (const auto& [name, program] : programs) {
    SCOPED_TRACE(name);
    ExpectDenseMatchesStep(program->token_ac);
    if (!program->byte_pattern_slots.empty()) {
      ExpectDenseMatchesStep(program->byte_ac);
    }
  }
}

TEST(CompiledAutomatonTest, DenseTablesMatchStepOnRandomPatternSets) {
  std::mt19937 rng(20171);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    // Small alphabets force shared prefixes and long failure chains; the
    // occasional sparse large symbol widens the table.
    uint32_t alphabet = 2 + rng() % 6;
    AutomatonBuilder builder;
    int num_patterns = 1 + static_cast<int>(rng() % 30);
    for (int k = 0; k < num_patterns; ++k) {
      std::vector<uint32_t> pattern(1 + rng() % 6);
      for (uint32_t& symbol : pattern) {
        symbol = rng() % 10 == 0 ? 100 + rng() % 50 : rng() % alphabet;
      }
      builder.AddPattern(pattern);
    }
    FlatAutomaton ac = builder.Build();
    ac.Densify();
    ExpectDenseMatchesStep(ac);
  }
}

/// A one-column program over a hand-set byte automaton; Encode() needs no
/// Finalize(), so any automaton shape can be put on the wire.
std::string EncodeByteProgram(const FlatAutomaton& byte_ac,
                              size_t num_patterns) {
  CompiledLfProgram program;
  program.num_lfs = 1;
  CompiledLfEntry entry;
  entry.kind = LfSpecKind::kRegexBetween;
  entry.label = 1;
  program.entries.push_back(entry);
  program.token_ac = AutomatonBuilder().Build();
  program.byte_ac = byte_ac;
  program.byte_pattern_slots.assign(num_patterns, 0);
  program.byte_pattern_lengths.assign(num_patterns, 1);
  return program.Encode();
}

TEST(CompiledAutomatonTest, DecodedAutomatonOverDenseBoundFallsBackToStep) {
  // 1200 three-byte patterns over all 256 byte values: a few thousand nodes
  // times width 256 is well past FlatAutomaton::kMaxDenseEntries.
  std::mt19937 rng(7);
  AutomatonBuilder builder;
  constexpr size_t kPatterns = 1200;
  for (size_t k = 0; k < kPatterns; ++k) {
    builder.AddPattern({static_cast<uint32_t>(rng() % 256),
                        static_cast<uint32_t>(rng() % 256), 255u});
  }
  auto decoded =
      CompiledLfProgram::Decode(EncodeByteProgram(builder.Build(), kPatterns));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const FlatAutomaton& ac = (*decoded)->byte_ac;
  ASSERT_GT(ac.num_nodes() * 256, FlatAutomaton::kMaxDenseEntries);
  EXPECT_EQ(ac.dense_next.capacity(), 0u);
  EXPECT_EQ(ac.width, 0u);
  for (uint32_t state = 0; state < ac.num_nodes(); state += 7) {
    for (uint32_t symbol = 0; symbol <= 257; ++symbol) {
      ASSERT_EQ(ac.Next(state, symbol), ac.Step(state, symbol));
    }
  }
}

TEST(CompiledAutomatonTest, DecodeRejectsCyclicOrUnreachableFailureLinks) {
  // root -a-> 1 -b-> 2, with valid failure links, then two corruptions.
  AutomatonBuilder builder;
  builder.AddPattern({'a', 'b'});
  FlatAutomaton valid = builder.Build();
  ASSERT_EQ(valid.num_nodes(), 3u);
  ASSERT_TRUE(CompiledLfProgram::Decode(EncodeByteProgram(valid, 1)).ok());

  // Failure links 1 -> 2 -> 1: Step() from either node on a missing symbol
  // would chase the cycle forever.
  FlatAutomaton cyclic = valid;
  cyclic.fail[1] = 2;
  cyclic.fail[2] = 1;
  // Node 2 loses its only incoming edge: no text can reach it.
  FlatAutomaton unreachable = valid;
  unreachable.edge_targets[1] = 1;
  for (const FlatAutomaton* hostile : {&cyclic, &unreachable}) {
    auto decoded = CompiledLfProgram::Decode(EncodeByteProgram(*hostile, 1));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  }
}

// ---------------------------------------------------------------------------
// Snapshot-provided programs: the applier uses a matching Decode'd program
// and falls back to a live compile on mismatch — same bytes either way.
// ---------------------------------------------------------------------------

TEST(CompiledProgramTest, DecodedProgramServesBitwiseIdentical) {
  auto task = MakeEhrTask(11, 0.06);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  auto decoded = CompiledLfProgram::Decode(CompileLfSet(task->lfs)->Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  LabelMatrix interpreted =
      MustApply({.num_threads = 1, .use_compiled = false}, task->lfs,
                task->corpus, task->candidates);
  LabelMatrix via_snapshot = MustApply(
      {.num_threads = 2, .use_compiled = true, .compiled_program = *decoded},
      task->lfs, task->corpus, task->candidates);
  ExpectSameMatrix(via_snapshot, interpreted);
}

TEST(CompiledProgramTest, ForeignProgramFallsBackToCorrectOutput) {
  auto cdr = MakeCdrTask(42, 0.05);
  auto chem = MakeChemTask(23, 0.05);
  ASSERT_TRUE(cdr.ok() && chem.ok());
  // A program for a DIFFERENT LF set must never be consulted: output stays
  // bitwise-correct for the set actually applied.
  LabelMatrix interpreted =
      MustApply({.num_threads = 1, .use_compiled = false}, chem->lfs,
                chem->corpus, chem->candidates);
  LabelMatrix mismatched = MustApply(
      {.num_threads = 2,
       .use_compiled = true,
       .compiled_program = CompileLfSet(cdr->lfs)},
      chem->lfs, chem->corpus, chem->candidates);
  ExpectSameMatrix(mismatched, interpreted);
}

// ---------------------------------------------------------------------------
// IncrementalApplier: compiled miss computation fills the same cache.
// ---------------------------------------------------------------------------

TEST(CompiledIncrementalTest, CachedColumnsInterchangeableWithInterpreted) {
  auto task = MakeEhrTask(11, 0.06);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  LabelMatrix interpreted =
      MustApply({.num_threads = 1, .use_compiled = false}, task->lfs,
                task->corpus, task->candidates);

  IncrementalApplier applier(
      IncrementalApplier::Options{.num_threads = 1, .use_compiled = true});
  // Warm-up sighting: computed, remembered, not cached.
  ASSERT_TRUE(applier.Apply(task->lfs, task->corpus, task->candidates).ok());
  auto cold = applier.Apply(task->lfs, task->corpus, task->candidates);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ExpectSameMatrix(*cold, interpreted);

  auto warm = applier.Apply(task->lfs, task->corpus, task->candidates);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectSameMatrix(*warm, interpreted);
  EXPECT_GT(applier.stats().columns_reused, 0u);
}

// ---------------------------------------------------------------------------
// Through the router: a trained snapshot (carrying its LFCP program) served
// by ShardRouter with compiled dispatch must answer bitwise-identically to
// interpreted serving, at any shard count.
// ---------------------------------------------------------------------------

TEST(CompiledServingTest, RouterServesCompiledIdenticalToInterpreted) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  ExportSnapshotOptions export_options;
  export_options.gen.epochs = 20;
  export_options.include_disc_model = false;
  auto snapshot = TrainSnapshot(*task, export_options);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_NE(snapshot->compiled_lfs, nullptr);

  LabelRequest request;
  request.corpus = &task->corpus;
  request.candidates = &task->candidates;
  request.include_votes = true;

  LabelService::Options interpreted_options;
  interpreted_options.use_compiled_lfs = false;
  auto interpreted =
      LabelService::Create(*snapshot, task->lfs, interpreted_options);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  auto expected = interpreted->Label(request);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (size_t shards : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardRouter::Options options;
    options.num_shards = shards;
    auto router = ShardRouter::Create(*snapshot, task->lfs, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    auto actual = router->Label(request);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->posteriors, expected->posteriors);
    EXPECT_EQ(actual->hard_labels, expected->hard_labels);
    EXPECT_EQ(actual->votes.row_offsets(), expected->votes.row_offsets());
    EXPECT_TRUE(actual->votes.entries() == expected->votes.entries());
    router->Shutdown();
  }
}

// ---------------------------------------------------------------------------
// The per-thread token memo persists across batches, keyed by program id:
// programs with different symbol tables on one thread must never read each
// other's symbols, even when a new program lands at a freed one's address.
// ---------------------------------------------------------------------------

/// Two keyword LFs with the given words; swapping the words swaps the
/// programs' interned symbol ids.
LabelingFunctionSet TwoKeywordLfs(const std::string& first,
                                  const std::string& second) {
  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw_" + first, {first}, 1));
  lfs.Add(MakeSentenceKeywordLF("sent_" + second, {second}, -1));
  return lfs;
}

TEST(CompiledTokenMemoTest, AlternatingAndReplacedProgramsStayBitwise) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  LabelingFunctionSet b = TwoKeywordLfs("causes", "treats");
  LabelingFunctionSet c = TwoKeywordLfs("treats", "causes");
  LabelMatrix interpreted_cdr =
      MustApply({.num_threads = 1, .use_compiled = false}, task->lfs,
                task->corpus, task->candidates);
  LabelMatrix interpreted_b = MustApply(
      {.num_threads = 1, .use_compiled = false}, b, task->corpus,
      task->candidates);
  LabelMatrix interpreted_c = MustApply(
      {.num_threads = 1, .use_compiled = false}, c, task->corpus,
      task->candidates);
  ASSERT_FALSE(interpreted_b.entries().empty());
  ASSERT_FALSE(interpreted_c.entries().empty());

  // One thread (the batch scans on its constructing thread) alternates
  // between two programs with different symbol tables.
  auto program_cdr = CompileLfSet(task->lfs);
  auto program_b = CompileLfSet(b);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    ExpectSameMatrix(
        MustApply({.num_threads = 1,
                   .use_compiled = true,
                   .compiled_program = program_cdr},
                  task->lfs, task->corpus, task->candidates),
        interpreted_cdr);
    ExpectSameMatrix(MustApply({.num_threads = 1,
                                .use_compiled = true,
                                .compiled_program = program_b},
                               b, task->corpus, task->candidates),
                     interpreted_b);
  }

  // Free B and compile C, whose symbol table has B's shape with the ids
  // swapped; the allocator may hand C B's address.
  const uint64_t id_b = program_b->id();
  program_b.reset();
  auto program_c = CompileLfSet(c);
  EXPECT_NE(program_c->id(), id_b);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("replaced round=" + std::to_string(round));
    ExpectSameMatrix(MustApply({.num_threads = 1,
                                .use_compiled = true,
                                .compiled_program = program_c},
                               c, task->corpus, task->candidates),
                     interpreted_c);
    ExpectSameMatrix(
        MustApply({.num_threads = 1,
                   .use_compiled = true,
                   .compiled_program = program_cdr},
                  task->lfs, task->corpus, task->candidates),
        interpreted_cdr);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: one applier, one shared program, many requester threads.
// Run under TSan in CI (the compiled engine shares the immutable program
// and each batch's scans across the pool's workers, and every requester
// thread scans through its own token memo).
// ---------------------------------------------------------------------------

TEST(CompiledConcurrencyTest, SharedApplierHammerStaysBitwise) {
  auto task = MakeChemTask(23, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  LabelMatrix baseline =
      MustApply({.num_threads = 1, .use_compiled = false}, task->lfs,
                task->corpus, task->candidates);

  LFApplier shared({.num_threads = 4, .use_compiled = true});
  IncrementalApplier incremental(
      IncrementalApplier::Options{.num_threads = 4, .use_compiled = true});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> requesters;
  for (int t = 0; t < 8; ++t) {
    requesters.emplace_back([&] {
      for (int iter = 0; iter < 3; ++iter) {
        auto direct = shared.Apply(task->lfs, task->corpus, task->candidates);
        auto cached =
            incremental.Apply(task->lfs, task->corpus, task->candidates);
        for (const auto* result : {&direct, &cached}) {
          if (!result->ok() ||
              !((**result).entries() == baseline.entries()) ||
              (**result).row_offsets() != baseline.row_offsets()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : requesters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Scans live in the request: every apply scans each distinct sentence once,
// and corpus mutation (identity bump) must never serve stale results.
// ---------------------------------------------------------------------------

TEST(CompiledScanCacheTest, RepeatAppliesScanEachSentenceOnceAndStayBitwise) {
  auto task = MakeCdrTask(101, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  LabelMatrix baseline =
      MustApply({.num_threads = 1, .use_compiled = false}, task->lfs,
                task->corpus, task->candidates);

  // The sentences a batch over every candidate must scan: each distinct
  // candidate sentence, plus every sentence of a touched document when a
  // document-scope LF needs the document's other sentences too.
  std::set<std::pair<size_t, size_t>> sentences;
  const bool doc_scope = GetOrCompileProgram(task->lfs)->has_doc_scope;
  for (const Candidate& c : task->candidates) {
    sentences.emplace(c.span1.doc, c.span1.sentence);
    if (!doc_scope) continue;
    const Document& doc = task->corpus.document(c.span1.doc);
    for (size_t s = 0; s < doc.sentences.size(); ++s) {
      sentences.emplace(c.span1.doc, s);
    }
  }

  LFApplier compiled({.num_threads = 1, .use_compiled = true});
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass=" + std::to_string(pass));
    CompiledScanCacheStats before = GetCompiledScanCacheStats();
    auto matrix = compiled.Apply(task->lfs, task->corpus, task->candidates);
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    CompiledScanCacheStats after = GetCompiledScanCacheStats();
    EXPECT_EQ(after.misses - before.misses, sentences.size());
    EXPECT_EQ(after.hits, 0u);
    EXPECT_EQ(after.evictions, 0u);
    ExpectSameMatrix(*matrix, baseline);
  }
}

TEST(CompiledScanCacheTest, MutatedCorpusGetsFreshScans) {
  Corpus corpus;
  Document doc;
  Sentence s;
  s.words = {"aspirin", "causes", "headache"};
  s.mentions = {Mention{0, 1, "chemical", "C_asp"},
                Mention{2, 3, "disease", "D_ha"}};
  doc.sentences = {s};
  corpus.AddDocument(std::move(doc));
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_EQ(candidates.size(), 1u);

  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw_cause", {"cause"}, 1));

  LFApplier compiled({.num_threads = 1, .use_compiled = true});
  auto before = compiled.Apply(lfs, corpus, candidates);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->entries().size(), 1u);  // "causes" matched

  // In-place edit through the mutable accessor bumps the corpus identity,
  // so the cached scan for the old text can never be served again.
  corpus.mutable_document(0)->sentences[0].words[1] = "prevents";
  auto after = compiled.Apply(lfs, corpus, candidates);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->entries().empty());
  LabelMatrix interpreted = MustApply({.num_threads = 1, .use_compiled = false},
                                      lfs, corpus, candidates);
  ExpectSameMatrix(*after, interpreted);
}

TEST(CompiledScanCacheTest, CorpusIdentityFreshOnCopyStableAcrossMove) {
  Corpus a;
  uint64_t id_a = a.identity();
  Corpus b = a;
  EXPECT_NE(b.identity(), id_a);  // copies never alias cached scans
  uint64_t id_b = b.identity();
  Corpus c = std::move(b);
  EXPECT_EQ(c.identity(), id_b);  // moves carry the cache with the contents
  EXPECT_NE(b.identity(), id_b);  // moved-from is a fresh (empty) corpus
  a.AddDocument(Document{});
  EXPECT_NE(a.identity(), id_a);  // mutation invalidates
}

}  // namespace
}  // namespace snorkel
