#include <gtest/gtest.h>

#include "lf/applier.h"
#include "lf/declarative.h"
#include "lf/labeling_function.h"

namespace snorkel {
namespace {

/// Corpus with two sentences:
///   doc0/s0: "magnesium causes severe quadriplegia in patients"
///   doc0/s1: "aspirin treats mild headache quickly"
struct Fixture {
  Corpus corpus;
  std::vector<Candidate> candidates;

  Fixture() {
    Document doc;
    Sentence s0;
    s0.words = {"magnesium", "causes", "severe", "quadriplegia", "in",
                "patients"};
    s0.mentions = {Mention{0, 1, "chemical", "C_mg"},
                   Mention{3, 4, "disease", "D_quad"}};
    Sentence s1;
    s1.words = {"aspirin", "treats", "mild", "headache", "quickly"};
    s1.mentions = {Mention{0, 1, "chemical", "C_asp"},
                   Mention{3, 4, "disease", "D_ha"}};
    doc.sentences = {s0, s1};
    corpus.AddDocument(std::move(doc));
    candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  }

  CandidateView View(size_t i) const {
    return CandidateView(&corpus, &candidates[i], i);
  }
};

TEST(LabelingFunctionTest, WrapsArbitraryCallable) {
  LabelingFunction lf("lf_len", [](const CandidateView& view) -> Label {
    return view.TokenDistance() >= 2 ? 1 : kAbstain;
  });
  Fixture fx;
  EXPECT_EQ(lf.name(), "lf_len");
  EXPECT_EQ(lf.Apply(fx.View(0)), 1);
}

TEST(LabelingFunctionSetTest, AddAndNames) {
  LabelingFunctionSet set;
  EXPECT_TRUE(set.empty());
  size_t idx = set.Add(LabelingFunction(
      "a", [](const CandidateView&) -> Label { return 1; }));
  EXPECT_EQ(idx, 0u);
  set.AddAll({LabelingFunction("b", [](const CandidateView&) -> Label {
                return kAbstain;
              }),
              LabelingFunction("c", [](const CandidateView&) -> Label {
                return -1;
              })});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.Names(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(DeclarativeTest, KeywordBetweenMatchesStemmedForms) {
  Fixture fx;
  auto lf = MakeKeywordBetweenLF("lf_causes", {"cause"}, 1);
  EXPECT_EQ(lf.Apply(fx.View(0)), 1);        // "causes" stems to "cause".
  EXPECT_EQ(lf.Apply(fx.View(1)), kAbstain);  // "treats" does not.
}

TEST(DeclarativeTest, KeywordBetweenExactModeIsStricter) {
  Fixture fx;
  auto lf = MakeKeywordBetweenLF("lf_exact", {"cause"}, 1, /*stem=*/false);
  EXPECT_EQ(lf.Apply(fx.View(0)), kAbstain);  // "causes" != "cause".
}

TEST(DeclarativeTest, DirectionalKeywordUsesSpanOrder) {
  Fixture fx;
  auto lf = MakeDirectionalKeywordLF("lf_dir", {"cause"}, 1, -1);
  EXPECT_EQ(lf.Apply(fx.View(0)), 1);  // Chemical precedes disease.

  // Build a reversed-order candidate: disease first.
  Corpus corpus;
  Document doc;
  Sentence s;
  s.words = {"quadriplegia", "caused", "by", "magnesium"};
  s.mentions = {Mention{0, 1, "disease", "D_quad"},
                Mention{3, 4, "chemical", "C_mg"}};
  doc.sentences = {s};
  corpus.AddDocument(std::move(doc));
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_EQ(candidates.size(), 1u);
  CandidateView view(&corpus, &candidates[0], 0);
  EXPECT_EQ(lf.Apply(view), -1);  // span1 (chemical) is second.
}

TEST(DeclarativeTest, RegexBetween) {
  Fixture fx;
  auto lf = MakeRegexBetweenLF("lf_regex", "caus\\w+\\s+severe", 1);
  EXPECT_EQ(lf.Apply(fx.View(0)), 1);
  EXPECT_EQ(lf.Apply(fx.View(1)), kAbstain);
}

TEST(DeclarativeTest, ContextKeywordLooksOutsideSpans) {
  Fixture fx;
  auto lf = MakeContextKeywordLF("lf_ctx", {"patients"}, 3, -1);
  EXPECT_EQ(lf.Apply(fx.View(0)), -1);        // "patients" right of disease.
  EXPECT_EQ(lf.Apply(fx.View(1)), kAbstain);
}

TEST(DeclarativeTest, DistanceLF) {
  Fixture fx;
  auto lf = MakeDistanceLF("lf_far", 1, -1);
  EXPECT_EQ(lf.Apply(fx.View(0)), -1);  // Distance 2 > 1.
  auto lenient = MakeDistanceLF("lf_far2", 5, -1);
  EXPECT_EQ(lenient.Apply(fx.View(0)), kAbstain);
}

TEST(DeclarativeTest, OntologyLFDistantSupervision) {
  Fixture fx;
  KnowledgeBase kb;
  kb.Add("Causes", "C_mg", "D_quad");
  kb.Add("Treats", "C_asp", "D_ha");
  auto causes = MakeOntologyLF("lf_kb_causes", &kb, "Causes", 1);
  auto treats = MakeOntologyLF("lf_kb_treats", &kb, "Treats", -1);
  EXPECT_EQ(causes.Apply(fx.View(0)), 1);
  EXPECT_EQ(causes.Apply(fx.View(1)), kAbstain);
  EXPECT_EQ(treats.Apply(fx.View(0)), kAbstain);
  EXPECT_EQ(treats.Apply(fx.View(1)), -1);
}

TEST(DeclarativeTest, OntologyLFSymmetricMode) {
  Fixture fx;
  KnowledgeBase kb;
  kb.Add("Causes", "D_quad", "C_mg");  // Reversed direction only.
  auto strict = MakeOntologyLF("lf_strict", &kb, "Causes", 1);
  auto symmetric = MakeOntologyLF("lf_sym", &kb, "Causes", 1, true);
  EXPECT_EQ(strict.Apply(fx.View(0)), kAbstain);
  EXPECT_EQ(symmetric.Apply(fx.View(0)), 1);
}

TEST(DeclarativeTest, OntologyGeneratorOneLfPerSubset) {
  KnowledgeBase kb;
  kb.Add("Causes", "a", "b");
  kb.Add("Treats", "c", "d");
  auto lfs = MakeOntologyLFs("ctd", &kb, {{"Causes", 1}, {"Treats", -1}});
  ASSERT_EQ(lfs.size(), 2u);
  EXPECT_EQ(lfs[0].name(), "ctd_Causes");
  EXPECT_EQ(lfs[1].name(), "ctd_Treats");
}

TEST(DeclarativeTest, WeakClassifierThresholds) {
  Fixture fx;
  auto high = MakeWeakClassifierLF(
      "lf_clf_hi", [](const CandidateView&) { return 0.9; });
  auto low = MakeWeakClassifierLF(
      "lf_clf_lo", [](const CandidateView&) { return 0.1; });
  auto mid = MakeWeakClassifierLF(
      "lf_clf_mid", [](const CandidateView&) { return 0.5; });
  EXPECT_EQ(high.Apply(fx.View(0)), 1);
  EXPECT_EQ(low.Apply(fx.View(0)), -1);
  EXPECT_EQ(mid.Apply(fx.View(0)), kAbstain);
}

TEST(DeclarativeTest, CrowdWorkerReplaysVotes) {
  Fixture fx;
  auto lf = MakeCrowdWorkerLF("worker_0", {{0, 1}, {5, -1}});
  EXPECT_EQ(lf.Apply(fx.View(0)), 1);
  EXPECT_EQ(lf.Apply(fx.View(1)), kAbstain);  // Index 1 not voted.
}

TEST(DeclarativeTest, CrowdGeneratorOneLfPerWorker) {
  auto lfs = MakeCrowdWorkerLFs("w", {{{0, 1}}, {{0, -1}}, {}});
  ASSERT_EQ(lfs.size(), 3u);
  EXPECT_EQ(lfs[2].name(), "w_2");
}

TEST(DeclarativeTest, GuardedLF) {
  Fixture fx;
  auto base = MakeKeywordBetweenLF("base", {"cause", "treat"}, 1);
  auto guarded = MakeGuardedLF("guarded", base, [](const CandidateView& v) {
    return v.Span1Text() == "magnesium";
  });
  EXPECT_EQ(guarded.Apply(fx.View(0)), 1);
  EXPECT_EQ(guarded.Apply(fx.View(1)), kAbstain);  // Guard blocks aspirin.
}

TEST(DeclarativeTest, FirstVoteLF) {
  Fixture fx;
  auto first = MakeFirstVoteLF(
      "first",
      {MakeKeywordBetweenLF("a", {"nonexistent"}, 1),
       MakeKeywordBetweenLF("b", {"treat"}, -1),
       MakeKeywordBetweenLF("c", {"treat"}, 1)});
  EXPECT_EQ(first.Apply(fx.View(1)), -1);  // b wins over c.
  EXPECT_EQ(first.Apply(fx.View(0)), kAbstain);
}

TEST(DeclarativeTest, FingerprintTracksFactoryParameters) {
  // Same name, same factory: identical parameters ⇒ identical fingerprint;
  // ANY parameter change ⇒ new fingerprint (so the serve-layer column cache
  // and snapshot checks observe declarative edits without a version bump).
  auto base = MakeKeywordBetweenLF("lf", {"cause"}, 1);
  EXPECT_EQ(base.fingerprint(),
            MakeKeywordBetweenLF("lf", {"cause"}, 1).fingerprint());
  EXPECT_NE(base.fingerprint(),
            MakeKeywordBetweenLF("lf", {"cause", "induce"}, 1).fingerprint());
  EXPECT_NE(base.fingerprint(),
            MakeKeywordBetweenLF("lf", {"cause"}, -1).fingerprint());
  EXPECT_NE(base.fingerprint(),
            MakeKeywordBetweenLF("lf", {"cause"}, 1, false).fingerprint());
  EXPECT_NE(base.fingerprint(), MakeDistanceLF("lf", 1, 1).fingerprint());

  // Combinators fold the wrapped LF's fingerprint in.
  auto guard = [](const CandidateView&) { return true; };
  EXPECT_NE(
      MakeGuardedLF("g", MakeKeywordBetweenLF("lf", {"cause"}, 1), guard)
          .fingerprint(),
      MakeGuardedLF("g", MakeKeywordBetweenLF("lf", {"treat"}, 1), guard)
          .fingerprint());

  // The explicit-version constructor distinguishes opaque callables.
  auto fn = [](const CandidateView&) -> Label { return 1; };
  EXPECT_NE(LabelingFunction("lf", "v1", fn).fingerprint(),
            LabelingFunction("lf", "v2", fn).fingerprint());
}

// ----------------------------------------------------------------- Applier --

TEST(LFApplierTest, BuildsLabelMatrix) {
  Fixture fx;
  KnowledgeBase kb;
  kb.Add("Causes", "C_mg", "D_quad");
  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));
  lfs.Add(MakeKeywordBetweenLF("lf_treats", {"treat"}, -1));
  lfs.Add(MakeOntologyLF("lf_kb", &kb, "Causes", 1));

  LFApplier applier;
  auto matrix = applier.Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  EXPECT_EQ(matrix->num_rows(), 2u);
  EXPECT_EQ(matrix->num_lfs(), 3u);
  EXPECT_EQ(matrix->At(0, 0), 1);
  EXPECT_EQ(matrix->At(0, 1), kAbstain);
  EXPECT_EQ(matrix->At(0, 2), 1);
  EXPECT_EQ(matrix->At(1, 0), kAbstain);
  EXPECT_EQ(matrix->At(1, 1), -1);
  EXPECT_EQ(matrix->At(1, 2), kAbstain);
  // A naive reference: each LF applied to each row on its own.
  for (size_t i = 0; i < fx.candidates.size(); ++i) {
    for (size_t j = 0; j < lfs.size(); ++j) {
      EXPECT_EQ(matrix->At(i, j), lfs.at(j).Apply(fx.View(i)))
          << "row " << i << ", LF " << j;
    }
  }
}

TEST(LFApplierTest, SerialAndParallelAgree) {
  // Build a larger candidate set by repeating documents.
  Corpus corpus;
  for (int d = 0; d < 100; ++d) {
    Document doc;
    Sentence s;
    s.words = {"magnesium", "causes", "quadriplegia"};
    s.mentions = {Mention{0, 1, "chemical", "C_mg"},
                  Mention{2, 3, "disease", "D_quad"}};
    doc.sentences = {s};
    corpus.AddDocument(std::move(doc));
  }
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_EQ(candidates.size(), 100u);
  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));

  LFApplier serial(LFApplier::Options{.num_threads = 1, .cardinality = 2});
  LFApplier parallel(LFApplier::Options{.num_threads = 4, .cardinality = 2});
  auto a = serial.Apply(lfs, corpus, candidates);
  auto b = parallel.Apply(lfs, corpus, candidates);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(a->At(i, 0), b->At(i, 0));
}

TEST(LFApplierTest, BuggyLfSurfacesError) {
  Fixture fx;
  LabelingFunctionSet lfs;
  lfs.Add(LabelingFunction(
      "lf_buggy", [](const CandidateView&) -> Label { return 7; }));
  LFApplier applier;
  auto matrix = applier.Apply(lfs, fx.corpus, fx.candidates);
  EXPECT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument);
}

// Regression: an out-of-range vote must surface as InvalidArgument — never a
// corrupted Λ — on both the serial and the sharded multi-threaded path (the
// candidate set is large enough that the threaded applier actually shards).
TEST(LFApplierTest, OutOfRangeVoteErrorsUnderSerialAndParallel) {
  Corpus corpus;
  for (int d = 0; d < 256; ++d) {
    Document doc;
    Sentence s;
    s.words = {"magnesium", "causes", "quadriplegia"};
    s.mentions = {Mention{0, 1, "chemical", "C_mg"},
                  Mention{2, 3, "disease", "D_quad"}};
    doc.sentences = {s};
    corpus.AddDocument(std::move(doc));
  }
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_EQ(candidates.size(), 256u);

  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("lf_good", {"cause"}, 1));
  // Votes out of range on exactly one candidate, deep in the range.
  lfs.Add(LabelingFunction("lf_buggy", [](const CandidateView& view) -> Label {
    return view.index() == 200 ? 9 : kAbstain;
  }));

  for (size_t num_threads : {size_t{1}, size_t{4}}) {
    LFApplier applier(LFApplier::Options{.num_threads = num_threads,
                                         .cardinality = 2});
    auto matrix = applier.Apply(lfs, corpus, candidates);
    ASSERT_FALSE(matrix.ok()) << "num_threads=" << num_threads;
    EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument)
        << "num_threads=" << num_threads;
    // The shared validity check runs inside the applier, so the error names
    // the offending LF instead of an anonymous matrix-construction failure.
    EXPECT_NE(matrix.status().message().find("lf_buggy"), std::string::npos)
        << matrix.status().ToString();
  }
}

TEST(LFApplierTest, EmptyCandidatesYieldEmptyMatrix) {
  Fixture fx;
  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("lf", {"x"}, 1));
  LFApplier applier;
  auto matrix = applier.Apply(lfs, fx.corpus, {});
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->num_rows(), 0u);
  EXPECT_EQ(matrix->num_lfs(), 1u);
}

TEST(LFApplierTest, MulticlassCardinalityRespected) {
  Fixture fx;
  LabelingFunctionSet lfs;
  lfs.Add(LabelingFunction(
      "lf_multi", [](const CandidateView&) -> Label { return 3; }));
  LFApplier applier(LFApplier::Options{.num_threads = 1, .cardinality = 5});
  auto matrix = applier.Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->cardinality(), 5);
  EXPECT_EQ(matrix->At(0, 0), 3);
}

}  // namespace
}  // namespace snorkel
