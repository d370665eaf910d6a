// Tests for the networked shard fabric (src/net/): the checksummed wire
// format (round-trips, skip-unknown, typed corruption), the SnapshotStore's
// atomic versioned publication, and the loopback serving path — ShardServer
// + RemoteShardClient/RemoteShardRouter bitwise parity with an in-process
// LabelService, typed backpressure/deadlines, health fail-fast, partial
// degradation, and zero-downtime snapshot hot-swap.

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lf/applier.h"
#include "lf/declarative.h"
#include "net/health.h"
#include "net/placement.h"
#include "net/remote_client.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "net/snapshot_store.h"
#include "net/socket.h"
#include "net/wire.h"
#include "pipeline/export_snapshot.h"
#include "serve/snapshot.h"
#include "shard/partitioner.h"
#include "synth/crossmodal.h"
#include "util/binary_io.h"
#include "util/cancellation.h"
#include "util/fault.h"

namespace snorkel {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A store directory that is guaranteed empty: gtest's TempDir is shared
/// across runs, and SnapshotStore versions are immutable by design, so a
/// leftover artifact from a previous run would poison Publish().
std::string FreshStoreDir(const std::string& name) {
  std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Same corpus shape as the shard tier's fixture: `n` one-sentence
/// documents alternating "causes" / "treats", per-document canonical ids.
/// The LF set is the CLI's built-in "cdr-demo" set (tools/shard_server.cc),
/// so in-process fixtures and spawned serving processes agree on
/// fingerprints.
struct NetFixture {
  Corpus corpus;
  std::vector<Candidate> candidates;

  explicit NetFixture(int num_docs = 120) {
    for (int d = 0; d < num_docs; ++d) {
      Document doc;
      Sentence s;
      if (d % 2 == 0) {
        s.words = {"magnesium", "causes", "quadriplegia"};
      } else {
        s.words = {"aspirin", "treats", "headache"};
      }
      const std::string id = std::to_string(d);
      s.mentions = {Mention{0, 1, "chemical", "C" + id},
                    Mention{2, 3, "disease", "D" + id}};
      doc.sentences = {s};
      corpus.AddDocument(std::move(doc));
    }
    candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  }

  LabelingFunctionSet MakeLfs() const {
    LabelingFunctionSet lfs;
    lfs.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));
    lfs.Add(MakeKeywordBetweenLF("lf_treats", {"treat"}, -1));
    lfs.Add(MakeDistanceLF("lf_far", 4, -1));
    return lfs;
  }

  ModelSnapshot MakeSnapshot(const LabelingFunctionSet& lfs,
                             int epochs = 60) const {
    auto matrix = LFApplier().Apply(lfs, corpus, candidates);
    EXPECT_TRUE(matrix.ok());
    GenerativeModelOptions options;
    options.epochs = epochs;
    GenerativeModel model(options);
    EXPECT_TRUE(model.Fit(*matrix).ok());
    auto snapshot =
        ModelSnapshot::Capture(model, lfs.Names(), lfs.Fingerprints());
    EXPECT_TRUE(snapshot.ok());
    return *snapshot;
  }

  /// Expected response from ONE unsharded in-process service.
  LabelResponse Expected(const ModelSnapshot& snapshot,
                         bool include_votes = true) const {
    auto service = LabelService::Create(snapshot, MakeLfs());
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    LabelRequest request;
    request.corpus = &corpus;
    request.candidates = &candidates;
    request.include_votes = include_votes;
    auto response = service->Label(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return *response;
  }
};

// -------------------------------------------------------------- wire ABI --

TEST(WireStatusTest, EveryStatusCodeRoundTripsAndValuesArePinned) {
  const StatusCode codes[] = {
      StatusCode::kOk,            StatusCode::kInvalidArgument,
      StatusCode::kNotFound,      StatusCode::kFailedPrecondition,
      StatusCode::kOutOfRange,    StatusCode::kAlreadyExists,
      StatusCode::kInternal,      StatusCode::kIOError,
      StatusCode::kResourceExhausted, StatusCode::kUnavailable,
      StatusCode::kDeadlineExceeded,
  };
  for (StatusCode code : codes) {
    EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(code)), code);
  }
  // Wire values are ABI — pinned, not derived from enum order. The two
  // serving-tier codes this PR adds get the next free slots.
  EXPECT_EQ(StatusCodeToWire(StatusCode::kOk), 0u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kResourceExhausted), 8u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kUnavailable), 9u);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kDeadlineExceeded), 10u);
  // A code minted by a newer peer maps to kInternal, not UB.
  EXPECT_EQ(StatusCodeFromWire(9999), StatusCode::kInternal);
}

TEST(WireStatusTest, ErrorFrameRoundTripsEveryCode) {
  const StatusCode codes[] = {
      StatusCode::kUnavailable, StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted, StatusCode::kInvalidArgument};
  for (StatusCode code : codes) {
    Status status(code, "shard 3 said no");
    Frame frame = EncodeErrorFrame(77, status);
    auto decoded = DecodeFrame(EncodeFrame(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, FrameType::kError);
    EXPECT_EQ(decoded->request_id, 77u);
    Status back = DecodeErrorFrame(*decoded);
    EXPECT_EQ(back.code(), code);
    EXPECT_EQ(back.message(), "shard 3 said no");
  }
}

TEST(WireStatusTest, ErrorFrameRetryAfterRoundTripsAndOldFormatReadsZero) {
  // The retry_after_ms hint is an APPENDED field of the ERRS payload: new
  // peers round-trip it, the 2-arg encode writes 0, and an OLD peer's
  // 2-field payload (code + message only) decodes with hint 0 — never an
  // error (trailing-bytes / short-payload tolerance, both directions).
  Status status = Status::ResourceExhausted("shard admission queue is full");
  auto hinted = DecodeFrame(EncodeFrame(EncodeErrorFrame(5, status, 40)));
  ASSERT_TRUE(hinted.ok());
  uint64_t retry_after_ms = 99;
  Status back = DecodeErrorFrame(*hinted, &retry_after_ms);
  EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(retry_after_ms, 40u);
  // The hint is optional for the caller: the 1-arg decode still works.
  EXPECT_EQ(DecodeErrorFrame(*hinted).code(), StatusCode::kResourceExhausted);

  // No hint supplied: encodes 0, decodes 0.
  auto unhinted = DecodeFrame(EncodeFrame(EncodeErrorFrame(6, status)));
  ASSERT_TRUE(unhinted.ok());
  retry_after_ms = 99;
  (void)DecodeErrorFrame(*unhinted, &retry_after_ms);
  EXPECT_EQ(retry_after_ms, 0u);

  // An OLD peer's ERRS payload stops after the message. Truncate the
  // trailing u64 and decode: hint reads 0, code and message intact.
  Frame old_peer = *hinted;
  for (FrameSection& section : old_peer.sections) {
    ASSERT_GE(section.payload.size(), sizeof(uint64_t));
    section.payload.resize(section.payload.size() - sizeof(uint64_t));
  }
  retry_after_ms = 99;
  Status compat = DecodeErrorFrame(old_peer, &retry_after_ms);
  EXPECT_EQ(compat.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(compat.message(), "shard admission queue is full");
  EXPECT_EQ(retry_after_ms, 0u);
}

TEST(WireFrameTest, RoundTripPreservesTypeIdAndSections) {
  Frame frame;
  frame.type = FrameType::kLabelResponse;
  frame.request_id = 0xDEADBEEFCAFEull;
  frame.sections.push_back(FrameSection{"ABCD", std::string("payload\0x", 9)});
  frame.sections.push_back(FrameSection{"WXYZ", ""});  // Empty payload legal.
  std::string bytes = EncodeFrame(frame);
  ASSERT_GE(bytes.size(), kWireHeaderBytes);
  EXPECT_EQ(bytes.substr(0, 4), "SNRP");

  auto header = DecodeFrameHeader(
      std::string_view(bytes).substr(0, kWireHeaderBytes));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->version, kWireVersion);
  EXPECT_EQ(header->body_size, bytes.size() - kWireHeaderBytes);

  auto decoded = DecodeFrame(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, frame.type);
  EXPECT_EQ(decoded->request_id, frame.request_id);
  ASSERT_EQ(decoded->sections.size(), 2u);
  EXPECT_EQ(decoded->sections[0].tag, "ABCD");
  EXPECT_EQ(decoded->sections[0].payload, frame.sections[0].payload);
  EXPECT_EQ(decoded->sections[1].tag, "WXYZ");
  EXPECT_TRUE(decoded->sections[1].payload.empty());
}

TEST(WireFrameTest, CorruptionTruncationAndVersionAreTypedErrors) {
  Frame frame;
  frame.type = FrameType::kLabelRequest;
  frame.request_id = 1;
  frame.sections.push_back(FrameSection{"CORP", "the corpus bytes"});
  std::string bytes = EncodeFrame(frame);

  // A flipped payload byte is a checksum mismatch NAMING the section.
  std::string corrupted = bytes;
  corrupted[bytes.size() - sizeof(uint64_t) - 3] ^= 0x40;
  auto bad = DecodeFrame(corrupted);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIOError);
  EXPECT_NE(bad.status().message().find("CORP"), std::string::npos)
      << bad.status().ToString();

  // Truncation at every boundary is typed, never UB.
  for (size_t len : {size_t{0}, size_t{3}, kWireHeaderBytes - 1,
                     kWireHeaderBytes + 2, bytes.size() - 1}) {
    auto truncated = DecodeFrame(bytes.substr(0, len));
    ASSERT_FALSE(truncated.ok()) << "prefix length " << len;
    EXPECT_EQ(truncated.status().code(), StatusCode::kIOError);
  }

  // Bad magic.
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  auto magic = DecodeFrame(wrong_magic);
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.status().code(), StatusCode::kInvalidArgument);

  // A newer wire version must be refused (the peer has to speak down).
  std::string newer = bytes;
  uint32_t v2 = kWireVersion + 1;
  std::memcpy(&newer[4], &v2, sizeof(v2));
  auto version = DecodeFrame(newer);
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(version.status().code(), StatusCode::kFailedPrecondition);

  // A hostile body-size prefix is rejected before any allocation.
  std::string huge = bytes;
  uint64_t bound = kMaxWireFrameBytes + 1;
  std::memcpy(&huge[8], &bound, sizeof(bound));
  auto oversized = DecodeFrameHeader(
      std::string_view(huge).substr(0, kWireHeaderBytes));
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kIOError);

  // Bytes after the last section are framing garbage.
  std::string trailing = bytes + "x";
  uint64_t body = bytes.size() - kWireHeaderBytes + 1;
  std::memcpy(&trailing[8], &body, sizeof(body));
  auto garbage = DecodeFrame(trailing);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kIOError);
}

TEST(WireFrameTest, UnknownSectionsAndAppendedFieldsAreSkippedNotFatal) {
  NetFixture fx(8);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  LabelResponse expected = fx.Expected(snapshot);

  // A response frame from a "newer server" that appended a section the
  // client does not know: decoding keeps working and ignores it.
  Frame frame = EncodeLabelResponse(9, expected);
  frame.sections.push_back(FrameSection{"XTRA", "future payload"});
  auto reencoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(reencoded.ok()) << reencoded.status().ToString();
  auto decoded = DecodeLabelResponse(*reencoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->posteriors, expected.posteriors);

  // A request frame from a "newer client" that appended fields to ROPT:
  // known fields decode, the tail is tolerated.
  Frame request = EncodeLabelRequest(11, fx.corpus,
                                     MakeCandidateRefs(fx.candidates),
                                     /*include_votes=*/true,
                                     /*apply_class_balance=*/false,
                                     /*deadline_ms=*/250);
  for (FrameSection& section : request.sections) {
    if (section.tag == "ROPT") section.payload += "appended future fields";
  }
  auto round = DecodeFrame(EncodeFrame(request));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  auto wire = DecodeLabelRequest(*round);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_TRUE(wire->include_votes);
  EXPECT_FALSE(wire->apply_class_balance);
  EXPECT_EQ(wire->deadline_ms, 250u);
}

TEST(WireRequestTest, CorpusSliceKeepsOriginalDocumentIndices) {
  NetFixture fx(60);
  // A sub-batch touching a sparse set of documents — exactly what a router
  // fans out to one shard.
  std::vector<CandidateRef> rows;
  for (size_t i : {size_t{5}, size_t{6}, size_t{41}, size_t{58}}) {
    rows.push_back(CandidateRef{&fx.candidates[i], i});
  }
  Frame frame = EncodeLabelRequest(21, fx.corpus, rows, false, true, 0);
  auto decoded_frame = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded_frame.ok()) << decoded_frame.status().ToString();
  auto wire = DecodeLabelRequest(*decoded_frame);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  ASSERT_EQ(wire->candidates.size(), rows.size());
  ASSERT_EQ(wire->indices.size(), rows.size());
  for (size_t t = 0; t < rows.size(); ++t) {
    const Candidate& original = *rows[t].candidate;
    const Candidate& shipped = wire->candidates[t];
    // The span coordinates — every LF observable — are byte-identical,
    // including the ORIGINAL document index.
    EXPECT_EQ(shipped.span1.doc, original.span1.doc);
    EXPECT_EQ(shipped.span2.doc, original.span2.doc);
    EXPECT_EQ(shipped.span1.canonical_id, original.span1.canonical_id);
    EXPECT_EQ(shipped.span2.canonical_id, original.span2.canonical_id);
    EXPECT_EQ(wire->indices[t], rows[t].index);
    // The sparse reconstruction put the full document at that index.
    const Document& doc = wire->corpus.document(shipped.span1.doc);
    const Document& expected = fx.corpus.document(original.span1.doc);
    ASSERT_EQ(doc.sentences.size(), expected.sentences.size());
    EXPECT_EQ(doc.sentences[0].words, expected.sentences[0].words);
    ASSERT_EQ(doc.sentences[0].mentions.size(),
              expected.sentences[0].mentions.size());
    EXPECT_EQ(doc.sentences[0].mentions[0].canonical_id,
              expected.sentences[0].mentions[0].canonical_id);
  }
  // Only referenced documents ship; the rest are empty filler.
  EXPECT_EQ(wire->corpus.num_documents(), 59u);  // Highest ref is doc 58.
  EXPECT_TRUE(wire->corpus.document(0).sentences.empty());

  // And the slice actually serves: identical posteriors to the in-process
  // ref path for the same rows.
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  auto direct = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(direct.ok());
  LabelRequest by_ref;
  by_ref.corpus = &fx.corpus;
  by_ref.candidate_refs = &rows;
  auto expected = direct->Label(by_ref);
  ASSERT_TRUE(expected.ok());

  auto sliced = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(sliced.ok());
  std::vector<CandidateRef> shipped_refs;
  for (size_t t = 0; t < wire->candidates.size(); ++t) {
    shipped_refs.push_back(CandidateRef{
        &wire->candidates[t], static_cast<size_t>(wire->indices[t])});
  }
  LabelRequest over_slice;
  over_slice.corpus = &wire->corpus;
  over_slice.candidate_refs = &shipped_refs;
  auto actual = sliced->Label(over_slice);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->posteriors, expected->posteriors);
}

TEST(WireRequestTest, DanglingDocumentReferenceIsTypedIOError) {
  NetFixture fx(6);
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
  // Rewrite the CAND section so one candidate points past the slice: the
  // server must reject the frame, not index out of bounds. The forged
  // payload mirrors the wire candidate layout (two spans + index).
  BinaryWriter forged;
  forged.WriteU64(1);
  for (int span = 0; span < 2; ++span) {
    forged.WriteU32(1000);  // doc — far beyond the 6-document slice.
    forged.WriteU32(0);
    forged.WriteU32(0);
    forged.WriteU32(1);
    forged.WriteString("chemical");
    forged.WriteString("C0");
  }
  forged.WriteU64(0);
  Frame forged_frame = EncodeLabelRequest(1, fx.corpus, rows, false, true, 0);
  for (FrameSection& section : forged_frame.sections) {
    if (section.tag == "CAND") section.payload = forged.TakeBuffer();
  }
  auto decoded = DecodeFrame(EncodeFrame(forged_frame));
  ASSERT_TRUE(decoded.ok());
  auto wire = DecodeLabelRequest(*decoded);
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), StatusCode::kIOError);
}

TEST(WireRequestTest, SmallDocumentAtHighOriginalIndexDecodes) {
  // A large corpus where the request references one SMALL document at a
  // HIGH original index: the CORP payload is a few hundred bytes while the
  // index is 100000. The decoder must accept this (the index is bounded by
  // the candidate range, not by the payload size) — rejecting it would
  // break parity with in-process serving for any large corpus.
  Corpus corpus;
  for (int d = 0; d < 100000; ++d) corpus.AddDocument(Document{});
  Document doc;
  Sentence s;
  s.words = {"magnesium", "causes", "quadriplegia"};
  s.mentions = {Mention{0, 1, "chemical", "C99k"},
                Mention{2, 3, "disease", "D99k"}};
  doc.sentences = {s};
  corpus.AddDocument(std::move(doc));

  std::vector<Candidate> candidates =
      CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_EQ(candidates.size(), 1u);
  ASSERT_EQ(candidates[0].span1.doc, 100000u);
  std::vector<CandidateRef> rows = MakeCandidateRefs(candidates);
  Frame frame = EncodeLabelRequest(5, corpus, rows, false, true, 0);
  std::string bytes = EncodeFrame(frame);
  // The regression this pins: the whole frame is far smaller than the
  // original document index it carries.
  ASSERT_LT(bytes.size(), 100000u);
  auto decoded = DecodeFrame(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto wire = DecodeLabelRequest(*decoded);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->corpus.num_documents(), 100001u);
  EXPECT_TRUE(wire->corpus.document(0).sentences.empty());
  ASSERT_EQ(wire->corpus.document(100000).sentences.size(), 1u);
  EXPECT_EQ(wire->corpus.document(100000).sentences[0].words, s.words);
}

TEST(WireRequestTest, OutOfRangeSentenceOrWordRangeIsTypedIOError) {
  NetFixture fx(6);
  // One candidate on document 0, so the slice ships exactly that document
  // (one sentence, three words) and the forged span coordinates below are
  // the only thing wrong with the request.
  std::vector<CandidateRef> rows = {CandidateRef{&fx.candidates[0], 0}};
  struct Case {
    uint32_t sentence;
    uint32_t word_start;
    uint32_t word_end;
  };
  for (const Case& c :
       {Case{7, 0, 1}, Case{0, 0, 999}, Case{0, 2, 1}}) {
    BinaryWriter forged;
    forged.WriteU64(1);
    for (int span = 0; span < 2; ++span) {
      forged.WriteU32(0);  // doc — valid, inside the slice.
      forged.WriteU32(c.sentence);
      forged.WriteU32(c.word_start);
      forged.WriteU32(c.word_end);
      forged.WriteString("chemical");
      forged.WriteString("C0");
    }
    forged.WriteU64(0);
    Frame forged_frame =
        EncodeLabelRequest(1, fx.corpus, rows, false, true, 0);
    for (FrameSection& section : forged_frame.sections) {
      if (section.tag == "CAND") section.payload = forged.TakeBuffer();
    }
    auto decoded = DecodeFrame(EncodeFrame(forged_frame));
    ASSERT_TRUE(decoded.ok());
    // A checksummed-but-hostile span must fail TYPED at decode, never reach
    // LF execution as an out-of-bounds sentence or word read.
    auto wire = DecodeLabelRequest(*decoded);
    ASSERT_FALSE(wire.ok())
        << "sentence=" << c.sentence << " words=[" << c.word_start << ","
        << c.word_end << ")";
    EXPECT_EQ(wire.status().code(), StatusCode::kIOError);
  }
}

TEST(SocketTest, FrameReaderResumesAcrossDeadlineMidFrame) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto client =
      Socket::Connect("127.0.0.1", listener->port(), DeadlineAfterMs(2000));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto served = listener->Accept(2000);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  Frame frame;
  frame.type = FrameType::kPing;
  frame.request_id = 123;
  frame.sections.push_back(FrameSection{"ABCD", std::string(4096, 'x')});
  std::string bytes = EncodeFrame(frame);

  // First half of the frame, then silence past the receive deadline: the
  // reader reports kDeadlineExceeded but KEEPS the partial bytes.
  size_t half = bytes.size() / 2;
  ASSERT_TRUE(client
                  ->SendAll(std::string_view(bytes).substr(0, half),
                            DeadlineAfterMs(2000))
                  .ok());
  FrameReader reader;
  auto partial = reader.Recv(*served, DeadlineAfterMs(50), /*eof_ok=*/true);
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.status().code(), StatusCode::kDeadlineExceeded);
  // Re-arming while the peer stays quiet changes nothing.
  partial = reader.Recv(*served, DeadlineAfterMs(50), /*eof_ok=*/true);
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.status().code(), StatusCode::kDeadlineExceeded);

  // The second half arrives: the SAME reader completes the frame losslessly
  // — no bad-magic desync, no dropped bytes.
  ASSERT_TRUE(client
                  ->SendAll(std::string_view(bytes).substr(half),
                            DeadlineAfterMs(2000))
                  .ok());
  auto full = reader.Recv(*served, DeadlineAfterMs(2000), /*eof_ok=*/true);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->type, FrameType::kPing);
  EXPECT_EQ(full->request_id, 123u);
  ASSERT_EQ(full->sections.size(), 1u);
  EXPECT_EQ(full->sections[0].payload, std::string(4096, 'x'));

  // A clean close between frames still surfaces as kNotFound (EOF).
  client->Close();
  auto eof = reader.Recv(*served, DeadlineAfterMs(2000), /*eof_ok=*/true);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
}

TEST(WireResponseTest, BinaryResponseRoundTripsBitwise) {
  NetFixture fx;
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  LabelResponse expected = fx.Expected(snapshot, /*include_votes=*/true);

  auto decoded_frame = DecodeFrame(
      EncodeFrame(EncodeLabelResponse(42, expected)));
  ASSERT_TRUE(decoded_frame.ok()) << decoded_frame.status().ToString();
  EXPECT_EQ(decoded_frame->request_id, 42u);
  auto actual = DecodeLabelResponse(*decoded_frame);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  EXPECT_EQ(actual->cardinality, 2);
  // Doubles cross the wire as raw IEEE-754 bytes: EXACT equality.
  EXPECT_EQ(actual->posteriors, expected.posteriors);
  EXPECT_EQ(actual->hard_labels, expected.hard_labels);
  ASSERT_EQ(actual->votes.num_rows(), expected.votes.num_rows());
  ASSERT_EQ(actual->votes.num_lfs(), expected.votes.num_lfs());
  for (size_t i = 0; i < expected.votes.num_rows(); ++i) {
    for (size_t j = 0; j < expected.votes.num_lfs(); ++j) {
      EXPECT_EQ(actual->votes.At(i, j), expected.votes.At(i, j));
    }
  }
}

TEST(WireResponseTest, KClassResponseRoundTripsShapeAndBits) {
  LabelResponse response;
  response.cardinality = 5;
  response.hard_labels = {1, 4, 2};
  response.class_posteriors = {0.1, 0.2, 0.3, 0.25, 0.15,  //
                               0.0, 0.0, 0.0, 0.0, 1.0,    //
                               0.2, 0.2, 0.2, 0.2, 0.2};
  auto decoded_frame =
      DecodeFrame(EncodeFrame(EncodeLabelResponse(7, response)));
  ASSERT_TRUE(decoded_frame.ok());
  auto actual = DecodeLabelResponse(*decoded_frame);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->cardinality, 5);
  EXPECT_EQ(actual->class_posteriors, response.class_posteriors);
  EXPECT_EQ(actual->hard_labels, response.hard_labels);
  EXPECT_TRUE(actual->posteriors.empty());
}

TEST(WireStatsTest, StatsResponseRoundTrips) {
  WireServerStats stats;
  stats.snapshot_version = 17;
  stats.snapshot_checksum = 0xABCDEF0123456789ull;
  stats.requests_served = 12345;
  stats.candidates_served = 678900;
  stats.queue_rejections = 7;
  stats.snapshot_swaps = 3;
  stats.cardinality = 5;
  auto decoded_frame =
      DecodeFrame(EncodeFrame(EncodeStatsResponse(88, stats)));
  ASSERT_TRUE(decoded_frame.ok());
  auto actual = DecodeStatsResponse(*decoded_frame);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->snapshot_version, 17u);
  EXPECT_EQ(actual->snapshot_checksum, 0xABCDEF0123456789ull);
  EXPECT_EQ(actual->requests_served, 12345u);
  EXPECT_EQ(actual->candidates_served, 678900u);
  EXPECT_EQ(actual->queue_rejections, 7u);
  EXPECT_EQ(actual->snapshot_swaps, 3u);
  EXPECT_EQ(actual->cardinality, 5);
}

// --------------------------------------------------------- SnapshotStore --

TEST(SnapshotStoreTest, PublishListCurrentAndImmutableVersions) {
  std::string dir = FreshStoreDir("store_basic");
  auto store = SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // Empty store: no current version.
  auto empty = store->CurrentVersion();
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
  auto none = store->ListVersions();
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  ASSERT_TRUE(store->Publish(1, "artifact one").ok());
  ASSERT_TRUE(store->Publish(3, "artifact three").ok());
  auto versions = store->ListVersions();
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<uint64_t>{1, 3}));
  auto current = store->CurrentVersion();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 3u);

  // Versions are immutable: republishing is AlreadyExists and the original
  // bytes survive.
  Status overwrite = store->Publish(1, "usurper");
  ASSERT_FALSE(overwrite.ok());
  EXPECT_EQ(overwrite.code(), StatusCode::kAlreadyExists);
  auto bytes = ReadFileBytes(store->PathFor(1));
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "artifact one");

  // Unrelated files (and in-progress publish temps) are not versions.
  ASSERT_TRUE(WriteFileBytes(dir + "/.publish-9-12345", "partial").ok());
  ASSERT_TRUE(WriteFileBytes(dir + "/README", "notes").ok());
  versions = store->ListVersions();
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<uint64_t>{1, 3}));
}

TEST(SnapshotStoreTest, PromoteFileCopiesWithoutDestroyingTheSource) {
  std::string dir = FreshStoreDir("store_promote");
  auto store = SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  std::string source = TempPath("candidate.snk");
  ASSERT_TRUE(WriteFileBytes(source, "candidate artifact bytes").ok());

  ASSERT_TRUE(store->PromoteFile(source, 1).ok());
  auto promoted = ReadFileBytes(store->PathFor(1));
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(*promoted, "candidate artifact bytes");
  // The candidate file is left in place for any later step.
  auto still_there = ReadFileBytes(source);
  ASSERT_TRUE(still_there.ok());
  EXPECT_EQ(*still_there, "candidate artifact bytes");

  Status again = store->PromoteFile(source, 1);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  std::remove(source.c_str());
}

// ------------------------------------------------------ loopback serving --

TEST(ShardServerTest, LoopbackBitwiseParityWithInProcessService) {
  NetFixture fx;
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("loopback_parity.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  LabelResponse expected = fx.Expected(snapshot, /*include_votes=*/true);

  ShardServer::Options options;
  options.num_workers = 2;
  auto server = ShardServer::Serve(path, fx.MakeLfs(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RemoteShardClient::Options client_options;
  client_options.port = server->port();
  RemoteShardClient client = RemoteShardClient::Create(client_options);
  EXPECT_TRUE(client.Ping(1000).ok());

  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
  for (int round = 0; round < 3; ++round) {
    auto actual = client.Label(fx.corpus, rows, /*include_votes=*/true,
                               /*apply_class_balance=*/true);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    // NOT ONE BIT may differ across the network hop.
    EXPECT_EQ(actual->posteriors, expected.posteriors);
    EXPECT_EQ(actual->hard_labels, expected.hard_labels);
    ASSERT_EQ(actual->votes.num_rows(), expected.votes.num_rows());
    for (size_t i = 0; i < expected.votes.num_rows(); ++i) {
      for (size_t j = 0; j < expected.votes.num_lfs(); ++j) {
        EXPECT_EQ(actual->votes.At(i, j), expected.votes.At(i, j));
      }
    }
  }

  // Rollout observability over the wire: version (0 = plain file mode) and
  // the artifact's canonical checksum.
  auto stats = client.GetStats(1000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->snapshot_version, 0u);
  EXPECT_EQ(stats->snapshot_checksum, snapshot.CanonicalChecksum());
  EXPECT_EQ(stats->requests_served, 3u);
  EXPECT_EQ(stats->candidates_served, 3u * fx.candidates.size());
  EXPECT_EQ(stats->cardinality, 2);

  // Client-side pool actually reused connections across the calls.
  EXPECT_GT(client.stats().pooled_reuses, 0u);
  EXPECT_TRUE(client.stats().healthy);
  std::remove(path.c_str());
}

/// Disarms every fault site on scope exit: the registry is process-wide,
/// and a schedule leaking out of one test would poison the next.
struct FaultGuard {
  ~FaultGuard() { fault::DisarmAll(); }
};

/// Arms "server.label" so every label request in the process sleeps
/// `delay_ms` before it is served: a slow replica, with unchanged results.
void DelayEveryLabel(uint64_t delay_ms) {
  fault::Schedule delay;
  delay.kind = fault::Schedule::Kind::kDelayNth;
  delay.n = 1;
  delay.delay_ms = delay_ms;
  ASSERT_TRUE(fault::Arm("server.label", delay).ok());
}

TEST(ShardServerTest, QueueBackpressureIsTypedResourceExhausted) {
  FaultGuard guard;
  NetFixture fx(32);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("backpressure.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  ShardServer::Options options;
  options.queue_capacity = 1;
  options.num_workers = 1;
  // Every request holds the worker long enough to fill the queue.
  DelayEveryLabel(50);
  auto server = ShardServer::Serve(path, fx.MakeLfs(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RemoteShardClient::Options client_options;
  client_options.port = server->port();
  RemoteShardClient client = RemoteShardClient::Create(client_options);

  constexpr int kCallers = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> rejected_count{0};
  std::atomic<int> other_count{0};
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&] {
      auto response = client.Label(fx.corpus, rows, false, true);
      if (response.ok()) {
        ok_count.fetch_add(1);
      } else if (response.status().code() == StatusCode::kResourceExhausted) {
        rejected_count.fetch_add(1);
      } else {
        other_count.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(rejected_count.load(), 1);
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_EQ(server->stats().queue_rejections,
            static_cast<uint64_t>(rejected_count.load()));
  // Backpressure is an ANSWER, not a transport failure: the endpoint stays
  // healthy and rejected callers' connections went back to the pool.
  EXPECT_TRUE(client.stats().healthy);
  EXPECT_EQ(client.stats().failures, 0u);
  std::remove(path.c_str());
}

TEST(ShardServerTest, SpentDeadlineFailsTypedWithoutDeadWork) {
  FaultGuard guard;
  NetFixture fx(32);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("deadline.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  ShardServer::Options options;
  options.queue_capacity = 8;
  options.num_workers = 1;
  DelayEveryLabel(300);  // The first job pins the only worker.
  auto server = ShardServer::Serve(path, fx.MakeLfs(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);

  // Raw wire, so the client-side transport deadline (generous) and the
  // request's own budget (tiny) are decoupled: the SERVER must be the one
  // to fail the queued request once its budget is spent.
  auto occupant = Socket::Connect("127.0.0.1", server->port(),
                                  DeadlineAfterMs(2000));
  ASSERT_TRUE(occupant.ok()) << occupant.status().ToString();
  ASSERT_TRUE(SendFrame(*occupant,
                        EncodeLabelRequest(1, fx.corpus, rows, false, true, 0),
                        DeadlineAfterMs(2000))
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  auto doomed = Socket::Connect("127.0.0.1", server->port(),
                                DeadlineAfterMs(2000));
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(SendFrame(*doomed,
                        EncodeLabelRequest(2, fx.corpus, rows, false, true,
                                           /*deadline_ms=*/50),
                        DeadlineAfterMs(2000))
                  .ok());
  auto reply = RecvFrame(*doomed, DeadlineAfterMs(5000));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->request_id, 2u);
  Status status = DecodeErrorFrame(*reply);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(server->stats().deadline_rejections, 1u);

  // The occupant request still completes (drain, not drop).
  auto first = RecvFrame(*occupant, DeadlineAfterMs(5000));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, FrameType::kLabelResponse);
  std::remove(path.c_str());
}

TEST(WireLabelRequestTest, PreEncodedBatchReframesWithFreshBudget) {
  // The client-side budget-leak fix: the EXPENSIVE payload (corpus +
  // candidates) is encoded once, while the cheap deadline framing happens
  // per attempt with the budget REMAINING at that instant. The regression
  // this pins: a retry/hedge that re-framed the original deadline_ms
  // verbatim would grant the server a fresh full budget after the client
  // already burned part of it queueing/backing off.
  NetFixture fx(6);
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
  const EncodedLabelBatch batch = EncodeLabelBatch(fx.corpus, rows);

  // Framing from the pre-encoded batch is byte-identical to the one-shot
  // encoder — the split cannot change what the server sees.
  EXPECT_EQ(EncodeFrame(EncodeLabelRequestFromBatch(9, batch, true, false,
                                                    /*deadline_ms=*/123)),
            EncodeFrame(EncodeLabelRequest(9, fx.corpus, rows, true, false,
                                           /*deadline_ms=*/123)));

  // Re-framing the SAME batch with a smaller remaining budget (what each
  // attempt computes at dispatch) reaches the server as the smaller value.
  auto early = DecodeFrame(
      EncodeFrame(EncodeLabelRequestFromBatch(9, batch, true, false, 30)));
  ASSERT_TRUE(early.ok());
  auto late = DecodeFrame(
      EncodeFrame(EncodeLabelRequestFromBatch(9, batch, true, false, 11)));
  ASSERT_TRUE(late.ok());
  auto wire_early = DecodeLabelRequest(*early);
  auto wire_late = DecodeLabelRequest(*late);
  ASSERT_TRUE(wire_early.ok());
  ASSERT_TRUE(wire_late.ok());
  EXPECT_EQ(wire_early->deadline_ms, 30u);
  EXPECT_EQ(wire_late->deadline_ms, 11u);
  EXPECT_LT(wire_late->deadline_ms, wire_early->deadline_ms);
  EXPECT_EQ(wire_late->candidates.size(), rows.size());
}

TEST(ShardServerTest, ExpiredBudgetCancelsComputeMidFlight) {
  // Cooperative cancellation end-to-end: the worker dequeues the job while
  // its budget is still live, the injected server.label delay outlives the
  // budget, and the replica's chunk-boundary token checks stop the LF
  // compute mid-flight — typed kDeadlineExceeded, counted as
  // expired_work_cancelled (NOT a pre-compute deadline_rejection).
  FaultGuard guard;
  NetFixture fx(128);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("cancel_midflight.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  ShardServer::Options options;
  options.num_workers = 1;
  DelayEveryLabel(80);  // Outlives the 30 ms budget below.
  auto server = ShardServer::Serve(path, fx.MakeLfs(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RemoteShardClient::Options client_options;
  client_options.port = server->port();
  RemoteShardClient client = RemoteShardClient::Create(client_options);
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);

  auto response = client.Label(fx.corpus, rows, false, true,
                               /*deadline_ms=*/30);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  // The client's socket deadline fires before the worker finishes
  // cancelling server-side; poll briefly for the counter.
  for (int i = 0; i < 100 && server->stats().expired_work_cancelled == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server->stats().expired_work_cancelled, 1u);

  // The counter is also served over the wire (rollout observability).
  auto wire_stats = client.GetStats(2000);
  ASSERT_TRUE(wire_stats.ok()) << wire_stats.status().ToString();
  EXPECT_GE(wire_stats->expired_work_cancelled, 1u);

  // The shard is NOT damaged: with the budget gone, the same request
  // (generous deadline) is served bit-exact against the in-process oracle.
  LabelResponse expected = fx.Expected(snapshot, /*include_votes=*/false);
  auto healthy = client.Label(fx.corpus, rows, false, true,
                              /*deadline_ms=*/10'000);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->posteriors, expected.posteriors);
  EXPECT_EQ(healthy->hard_labels, expected.hard_labels);
  std::remove(path.c_str());
}

TEST(ShardServerTest, OverloadRejectionsCarryRetryAfterHint) {
  // Every kResourceExhausted the server emits carries a non-zero
  // retry_after_ms hint priced off the queued backlog, surfaced through
  // the client's out-param and fed to its adaptive limiter.
  FaultGuard guard;
  NetFixture fx(32);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("retry_after.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  ShardServer::Options options;
  options.queue_capacity = 1;
  options.num_workers = 1;
  DelayEveryLabel(50);
  auto server = ShardServer::Serve(path, fx.MakeLfs(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RemoteShardClient::Options client_options;
  client_options.port = server->port();
  // Big enough that the limiter never rejects locally — this test wants
  // SERVER rejections, with hints.
  client_options.adaptive_initial_limit = 32.0;
  RemoteShardClient client = RemoteShardClient::Create(client_options);
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);

  constexpr int kCallers = 8;
  std::atomic<int> rejected_with_hint{0};
  std::atomic<int> rejected_without_hint{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&] {
      bool failed_fast = false;
      uint64_t retry_after_ms = 0;
      auto response = client.Label(fx.corpus, rows, false, true, 0,
                                   &failed_fast, &retry_after_ms);
      if (!response.ok() &&
          response.status().code() == StatusCode::kResourceExhausted &&
          !failed_fast) {
        (retry_after_ms > 0 ? rejected_with_hint : rejected_without_hint)
            .fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GE(rejected_with_hint.load(), 1);
  EXPECT_EQ(rejected_without_hint.load(), 0);
  // The overload signals shrank the client's AIMD limit below its start.
  EXPECT_LT(client.stats().adaptive_limit, 32.0);
  std::remove(path.c_str());
}

TEST(RemoteClientTest, ConsecutiveTransportFailuresTripFailFast) {
  // A server that existed and died: bind a port, then shut down.
  NetFixture fx(8);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("dead_shard.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  auto server = ShardServer::Serve(path, fx.MakeLfs(), {});
  ASSERT_TRUE(server.ok());
  uint16_t dead_port = server->port();
  server->Shutdown();

  RemoteShardClient::Options options;
  options.port = dead_port;
  options.connect_timeout_ms = 200;
  options.unhealthy_threshold = 2;
  options.unhealthy_cooldown_ms = 60'000;  // Stay in cooldown for the test.
  RemoteShardClient client = RemoteShardClient::Create(options);

  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
  for (int i = 0; i < 2; ++i) {
    auto response = client.Label(fx.corpus, rows, false, true, 500);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  }
  // Threshold reached: the next call fails FAST (no connect storm against a
  // dead shard) and says so in the counters.
  auto fast = client.Label(fx.corpus, rows, false, true, 500);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kUnavailable);
  RemoteShardClient::Stats stats = client.stats();
  EXPECT_FALSE(stats.healthy);
  EXPECT_GE(stats.fail_fast, 1u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.failures, 3u);
  std::remove(path.c_str());
}

TEST(RemoteClientTest, ProbeThatSpendsItsBudgetBeforeSendingReArmsTheBreaker) {
  // A dead endpoint: bind a port, then shut the server down.
  NetFixture fx(8);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("dead_probe.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  auto server = ShardServer::Serve(path, fx.MakeLfs(), {});
  ASSERT_TRUE(server.ok());
  uint16_t dead_port = server->port();
  server->Shutdown();

  RemoteShardClient::Options options;
  options.port = dead_port;
  options.connect_timeout_ms = 200;
  options.unhealthy_threshold = 1;
  options.unhealthy_cooldown_ms = 20;
  options.unhealthy_cooldown_jitter = 0.0;
  RemoteShardClient client = RemoteShardClient::Create(options);

  std::vector<CandidateRef> small = MakeCandidateRefs(fx.candidates);
  auto trip = client.Label(fx.corpus, small, false, true, 500);
  ASSERT_FALSE(trip.ok());
  EXPECT_FALSE(client.stats().healthy);

  // Past the cooldown the next call wins the half-open probe slot, but its
  // 1 ms budget is gone before the batch is encoded: it fails without ever
  // reaching the wire. Encoding 20k rows takes well over 1 ms.
  NetFixture big(20'000);
  std::vector<CandidateRef> rows = MakeCandidateRefs(big.candidates);
  ASSERT_GE(rows.size(), 20'000u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  bool failed_fast = true;
  auto spent = client.Label(big.corpus, rows, false, true, /*deadline_ms=*/1,
                            &failed_fast);
  ASSERT_FALSE(spent.ok());
  EXPECT_EQ(spent.status().code(), StatusCode::kDeadlineExceeded)
      << spent.status().ToString();
  EXPECT_FALSE(failed_fast);

  // The unsent probe re-armed the cooldown instead of holding the probe slot
  // forever: after the next cooldown a call is admitted again and gets the
  // real connect failure, not a fail-fast.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  failed_fast = true;
  auto probe = client.Label(fx.corpus, small, false, true, 500, &failed_fast);
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kUnavailable)
      << probe.status().ToString();
  EXPECT_FALSE(failed_fast) << probe.status().ToString();
  EXPECT_EQ(client.stats().fail_fast, 0u);
  std::remove(path.c_str());
}

TEST(ShardServerTest, HotSwapServesNewVersionWithZeroFailedRequests) {
  NetFixture fx(48);
  ModelSnapshot v1 = fx.MakeSnapshot(fx.MakeLfs(), /*epochs=*/60);
  ModelSnapshot v2 = fx.MakeSnapshot(fx.MakeLfs(), /*epochs=*/90);
  ASSERT_NE(v1.CanonicalChecksum(), v2.CanonicalChecksum());
  LabelResponse expected_v1 = fx.Expected(v1, false);
  LabelResponse expected_v2 = fx.Expected(v2, false);

  std::string dir = FreshStoreDir("store_hotswap");
  auto store = SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Publish(1, SerializeSnapshot(v1)).ok());

  ShardServer::Options options;
  options.num_workers = 2;
  options.watch_interval_ms = 25;
  auto server = ShardServer::ServeFromStore(dir, fx.MakeLfs(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(server->stats().snapshot_version, 1u);
  EXPECT_EQ(server->stats().snapshot_checksum, v1.CanonicalChecksum());

  // Continuous traffic across the swap: every response must be ok and must
  // be EXACTLY one of the two versions' outputs — never a blend, never an
  // error, never a hang.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&] {
      RemoteShardClient::Options client_options;
      client_options.port = server->port();
      RemoteShardClient client = RemoteShardClient::Create(client_options);
      std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
      while (!stop.load()) {
        auto response = client.Label(fx.corpus, rows, false, true, 5000);
        if (!response.ok() ||
            (response->posteriors != expected_v1.posteriors &&
             response->posteriors != expected_v2.posteriors)) {
          failures.fetch_add(1);
        } else {
          served.fetch_add(1);
        }
      }
    });
  }
  // Concurrent metrics scrapes during the swap: the version gauge reads
  // serving state under the registry lock while the watcher retires the old
  // generation — regression coverage for the state_mu/registry-lock
  // ordering (the swap must drop the old state outside state_mu).
  std::atomic<int> scrapes{0};
  traffic.emplace_back([&] {
    RemoteShardClient::Options client_options;
    client_options.port = server->port();
    client_options.request_timeout_ms = 5000;
    RemoteShardClient client = RemoteShardClient::Create(client_options);
    while (!stop.load()) {
      auto text = client.GetMetrics();
      if (!text.ok() ||
          text->find("snorkel_server_snapshot_version") == std::string::npos) {
        failures.fetch_add(1);
      } else {
        scrapes.fetch_add(1);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(store->Publish(2, SerializeSnapshot(v2)).ok());

  // The watcher observes version 2 and swaps without dropping traffic.
  bool swapped = false;
  for (int i = 0; i < 200 && !swapped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    swapped = server->stats().snapshot_version == 2;
  }
  ASSERT_TRUE(swapped) << "watcher never swapped to version 2";
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A corrupt later version must be rejected while the fabric keeps
  // serving version 2.
  ASSERT_TRUE(store->Publish(3, "not a snapshot at all").ok());
  bool rejected = false;
  for (int i = 0; i < 200 && !rejected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    rejected = server->stats().rejected_swaps >= 1;
  }
  EXPECT_TRUE(rejected) << "corrupt artifact was never rejected";
  EXPECT_EQ(server->stats().snapshot_version, 2u);

  stop.store(true);
  for (auto& th : traffic) th.join();
  EXPECT_EQ(failures.load(), 0) << "requests failed during the rollout";
  EXPECT_GT(served.load(), 0);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(server->stats().snapshot_swaps, 1u);
  EXPECT_EQ(server->stats().snapshot_checksum, v2.CanonicalChecksum());

  // Steady state after the swap serves v2's bits exactly.
  RemoteShardClient::Options client_options;
  client_options.port = server->port();
  RemoteShardClient client = RemoteShardClient::Create(client_options);
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
  auto final_response = client.Label(fx.corpus, rows, false, true, 5000);
  ASSERT_TRUE(final_response.ok());
  EXPECT_EQ(final_response->posteriors, expected_v2.posteriors);
  auto wire_stats = client.GetStats(1000);
  ASSERT_TRUE(wire_stats.ok());
  EXPECT_EQ(wire_stats->snapshot_version, 2u);
  EXPECT_EQ(wire_stats->snapshot_checksum, v2.CanonicalChecksum());
}

// ------------------------------------------------- remote router fabric --

struct TwoShardFleet {
  NetFixture fx;
  ModelSnapshot snapshot;
  std::string path;
  std::vector<ShardServer> servers;
  std::vector<std::pair<std::string, uint16_t>> endpoints;

  explicit TwoShardFleet(int num_docs = 120)
      : fx(num_docs), snapshot(fx.MakeSnapshot(fx.MakeLfs())) {
    path = TempPath("fleet_" + std::to_string(num_docs) + ".snk");
    EXPECT_TRUE(SaveSnapshot(snapshot, path).ok());
    for (int s = 0; s < 2; ++s) {
      ShardServer::Options options;
      options.num_workers = 2;
      auto server = ShardServer::Serve(path, fx.MakeLfs(), options);
      EXPECT_TRUE(server.ok()) << server.status().ToString();
      endpoints.emplace_back("127.0.0.1", server->port());
      servers.push_back(std::move(*server));
    }
  }
  ~TwoShardFleet() { std::remove(path.c_str()); }
};

TEST(RemoteRouterTest, BitwiseParityWithUnshardedUnderConcurrentCallers) {
  TwoShardFleet fleet(120);
  LabelResponse expected = fleet.fx.Expected(fleet.snapshot, true);

  auto router = RemoteShardRouter::Create(fleet.endpoints, {});
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  LabelRequest request;
  request.corpus = &fleet.fx.corpus;
  request.candidates = &fleet.fx.candidates;
  request.include_votes = true;
  auto actual = router->Label(request);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_FALSE(actual->is_partial);
  ASSERT_EQ(actual->posteriors.size(), expected.posteriors.size());
  EXPECT_EQ(actual->posteriors, expected.posteriors);
  EXPECT_EQ(actual->hard_labels, expected.hard_labels);
  ASSERT_EQ(actual->votes.num_rows(), expected.votes.num_rows());
  ASSERT_EQ(actual->votes.num_lfs(), expected.votes.num_lfs());
  for (size_t i = 0; i < expected.votes.num_rows(); ++i) {
    for (size_t j = 0; j < expected.votes.num_lfs(); ++j) {
      EXPECT_EQ(actual->votes.At(i, j), expected.votes.At(i, j))
          << "vote mismatch at (" << i << ", " << j << ")";
    }
  }

  // Concurrent callers over sub-batches: all bitwise.
  constexpr size_t kBatch = 30;
  std::vector<std::vector<Candidate>> batches;
  std::vector<std::vector<double>> expected_batches;
  auto unsharded = LabelService::Create(fleet.snapshot, fleet.fx.MakeLfs());
  ASSERT_TRUE(unsharded.ok());
  for (size_t b = 0; b < fleet.fx.candidates.size(); b += kBatch) {
    size_t e = std::min(b + kBatch, fleet.fx.candidates.size());
    batches.emplace_back(fleet.fx.candidates.begin() + b,
                         fleet.fx.candidates.begin() + e);
    LabelRequest batch_request;
    batch_request.corpus = &fleet.fx.corpus;
    batch_request.candidates = &batches.back();
    auto response = unsharded->Label(batch_request);
    ASSERT_TRUE(response.ok());
    expected_batches.push_back(response->posteriors);
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t b = static_cast<size_t>(t); b < batches.size();
             b += kThreads) {
          LabelRequest batch_request;
          batch_request.corpus = &fleet.fx.corpus;
          batch_request.candidates = &batches[b];
          auto response = router->Label(batch_request);
          if (!response.ok() ||
              response->posteriors != expected_batches[b]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  RemoteRouterStats stats = router->stats();
  EXPECT_EQ(stats.num_requests,
            1u + static_cast<uint64_t>(kRounds) * batches.size());
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.degraded_requests, 0u);
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_TRUE(stats.per_shard[0].healthy);
  EXPECT_TRUE(stats.per_shard[1].healthy);
}

TEST(RemoteRouterTest, DeadShardFailsWholeTypedOrDegradesWhenOptedIn) {
  TwoShardFleet fleet(64);
  LabelResponse expected = fleet.fx.Expected(fleet.snapshot, false);

  RemoteShardRouter::Options options;
  options.client.connect_timeout_ms = 300;
  options.request_timeout_ms = 2000;
  // Single-owner placement: this test pins the UNREPLICATED failure
  // contract (replication >= 2 would transparently fail the sub-batch over
  // to the surviving endpoint — covered by its own tests below).
  options.replication = 1;
  auto router = RemoteShardRouter::Create(fleet.endpoints, options);
  ASSERT_TRUE(router.ok());

  // Kill shard 1. Its rows are exactly the candidates whose stable content
  // hash lands on it — placement the client can compute locally.
  constexpr size_t kDead = 1;
  fleet.servers[kDead].Shutdown();

  // Default policy: the WHOLE request fails, typed, naming the shard.
  LabelRequest request;
  request.corpus = &fleet.fx.corpus;
  request.candidates = &fleet.fx.candidates;
  auto whole = router->Label(request);
  ASSERT_FALSE(whole.ok());
  EXPECT_EQ(whole.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(whole.status().message().find("shard 1/2"), std::string::npos)
      << whole.status().ToString();

  // allow_partial: typed degraded service. Covered rows bitwise, uncovered
  // rows flagged — never silent partial data.
  request.allow_partial = true;
  auto partial = router->Label(request);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->is_partial);
  ASSERT_EQ(partial->posteriors.size(), fleet.fx.candidates.size());
  ASSERT_FALSE(partial->covered.empty());
  size_t covered_rows = 0;
  for (size_t i = 0; i < fleet.fx.candidates.size(); ++i) {
    bool on_dead_shard =
        CandidateShardKey(fleet.fx.candidates[i]) % 2 == kDead;
    EXPECT_EQ(partial->RowCovered(i), !on_dead_shard) << "row " << i;
    if (!on_dead_shard) {
      ++covered_rows;
      EXPECT_EQ(partial->posteriors[i], expected.posteriors[i])
          << "covered row " << i << " drifted";
      EXPECT_EQ(partial->hard_labels[i], expected.hard_labels[i]);
    } else {
      // Placeholders, not model output.
      EXPECT_EQ(partial->posteriors[i], 0.0);
      EXPECT_EQ(partial->hard_labels[i], kAbstain);
    }
  }
  EXPECT_GT(covered_rows, 0u);
  EXPECT_LT(covered_rows, fleet.fx.candidates.size());
  ASSERT_EQ(partial->shard_outcomes.size(), 2u);
  EXPECT_EQ(partial->shard_outcomes[0].shard, 0u);
  EXPECT_EQ(partial->shard_outcomes[0].code, StatusCode::kOk);
  EXPECT_EQ(partial->shard_outcomes[1].shard, kDead);
  EXPECT_EQ(partial->shard_outcomes[1].code, StatusCode::kUnavailable);

  RemoteRouterStats stats = router->stats();
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_EQ(stats.degraded_requests, 1u);

  // With EVERY shard dead, allow_partial still fails typed — zero coverage
  // is a failure wearing a success type.
  fleet.servers[0].Shutdown();
  auto none = router->Label(request);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(none.status().message().find("no shard survived"),
            std::string::npos)
      << none.status().ToString();
}

// ---------------------------------------------------- replica placement --

TEST(PlacementTest, PreferenceListsAreDeterministicValidAndPrimaryFirst) {
  constexpr size_t kEndpoints = 5;
  constexpr size_t kReplication = 3;
  ShardPlacement placement(kEndpoints, kReplication);
  ShardPlacement again(kEndpoints, kReplication);
  EXPECT_EQ(placement.replication(), kReplication);

  for (size_t shard = 0; shard < kEndpoints; ++shard) {
    const std::vector<uint32_t>& prefs = placement.Preferences(shard);
    ASSERT_EQ(prefs.size(), kReplication);
    // Element 0 is the primary — the historic single-owner placement.
    EXPECT_EQ(prefs[0], shard);
    // All entries are distinct, in-range endpoints.
    std::set<uint32_t> distinct(prefs.begin(), prefs.end());
    EXPECT_EQ(distinct.size(), prefs.size());
    for (uint32_t e : prefs) EXPECT_LT(e, kEndpoints);
    // Placement is a pure function of (endpoints, replication): every
    // router computes the identical lists with zero coordination.
    EXPECT_EQ(prefs, again.Preferences(shard));
  }

  // HRW fallbacks spread across the fleet instead of all piling onto
  // (s + 1) % n — at least two distinct first-fallback targets.
  ShardPlacement wide(8, 2);
  std::set<uint32_t> first_fallbacks;
  for (size_t shard = 0; shard < 8; ++shard) {
    first_fallbacks.insert(wide.Preferences(shard)[1]);
  }
  EXPECT_GE(first_fallbacks.size(), 2u);

  // Replication clamps to the fleet size; 1 degenerates to single-owner.
  EXPECT_EQ(ShardPlacement(3, 99).replication(), 3u);
  ShardPlacement solo(4, 1);
  for (size_t shard = 0; shard < 4; ++shard) {
    ASSERT_EQ(solo.Preferences(shard).size(), 1u);
    EXPECT_EQ(solo.Preferences(shard)[0], shard);
  }
}

TEST(PlacementTest, PrimaryAgreesWithPartitionerAcrossTiers) {
  NetFixture fx(32);
  for (size_t n : {2u, 3u, 5u}) {
    CandidatePartitioner partitioner(n);
    ShardPlacement placement(n, 2);
    for (const Candidate& candidate : fx.candidates) {
      const uint64_t key = CandidateShardKey(candidate);
      const size_t primary = ShardPlacement::PrimaryOf(key, n);
      // Both tiers and the replica layer agree on the primary: the shard
      // tier's modulo placement IS the preference list's head.
      EXPECT_EQ(primary, key % n);
      EXPECT_EQ(partitioner.ShardOf(candidate), primary);
      EXPECT_EQ(placement.Preferences(primary)[0], primary);
    }
  }
}

// ------------------------------------------- failover primitives (health) --

TEST(BackoffTest, DelaysAreSeededDeterministicBoundedAndGrow) {
  BackoffOptions options;  // base 10, x2, max 1000, jitter 0.5, seed 42.
  EXPECT_EQ(BackoffDelayMs(options, 1, 0), 0u);

  for (uint32_t attempt = 1; attempt <= 8; ++attempt) {
    uint64_t unjittered = std::min<uint64_t>(
        static_cast<uint64_t>(10.0 * std::pow(2.0, attempt - 1)), 1000);
    uint64_t delay = BackoffDelayMs(options, 3, attempt);
    // Jitter scales by [1, 1.5]: never below the exponential floor, never
    // past 1.5x the (capped) base delay.
    EXPECT_GE(delay, unjittered) << "attempt " << attempt;
    EXPECT_LE(delay, unjittered + unjittered / 2) << "attempt " << attempt;
    // Pure function of (options, stream, attempt): reproducible.
    EXPECT_EQ(delay, BackoffDelayMs(options, 3, attempt));
  }

  // Distinct streams decorrelate (different shards never retry in
  // lockstep): the jittered sequences differ somewhere.
  bool streams_differ = false;
  for (uint32_t attempt = 1; attempt <= 8 && !streams_differ; ++attempt) {
    streams_differ =
        BackoffDelayMs(options, 1, attempt) != BackoffDelayMs(options, 2, attempt);
  }
  EXPECT_TRUE(streams_differ);

  // jitter 0 = the exact exponential schedule, capped.
  options.jitter = 0.0;
  EXPECT_EQ(BackoffDelayMs(options, 9, 1), 10u);
  EXPECT_EQ(BackoffDelayMs(options, 9, 2), 20u);
  EXPECT_EQ(BackoffDelayMs(options, 9, 3), 40u);
  EXPECT_EQ(BackoffDelayMs(options, 9, 20), 1000u);
}

TEST(RetryBudgetTest, TokenBucketRefillsCapsAndCountsExhaustion) {
  RetryBudget::Options options;
  options.initial = 2.0;
  options.max_tokens = 2.0;
  options.per_request_refill = 0.5;
  RetryBudget budget(options);

  EXPECT_TRUE(budget.TryConsume());
  EXPECT_TRUE(budget.TryConsume());
  // Dry: the retry is refused AND counted (the anti-storm valve engaging).
  EXPECT_FALSE(budget.TryConsume());
  EXPECT_EQ(budget.exhausted(), 1u);

  // Two first attempts deposit 2 * 0.5 = 1 token: one retry allowed again.
  budget.OnRequest();
  budget.OnRequest();
  EXPECT_TRUE(budget.TryConsume());
  EXPECT_FALSE(budget.TryConsume());
  EXPECT_EQ(budget.exhausted(), 2u);

  // Refill caps at max_tokens: a long quiet stretch buys at most 2 retries.
  for (int i = 0; i < 100; ++i) budget.OnRequest();
  EXPECT_EQ(budget.tokens(), 2.0);
  EXPECT_TRUE(budget.TryConsume());
  EXPECT_TRUE(budget.TryConsume());
  EXPECT_FALSE(budget.TryConsume());
}

TEST(CircuitBreakerTest, OpensProbesAndClosesDeterministically) {
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  options.cooldown_ms = 40;
  options.cooldown_jitter = 0.0;  // Fixed cooldown: the test can sleep past it.
  CircuitBreaker breaker(options);

  // A success between failures resets the consecutive count.
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Admission::kAllow);
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // Threshold consecutive failures open it; while open every caller is
  // rejected without I/O.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Admission::kReject);
  EXPECT_GE(breaker.open_rejections(), 1u);

  // Cooldown expires: exactly ONE caller wins the probe slot, everyone
  // else keeps failing fast until the probe reports.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Admission::kProbe);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Admission::kReject);

  // Probe fails: re-open with a fresh cooldown.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Admission::kReject);

  // Next probe succeeds: closed, and traffic flows again.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Admission::kProbe);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Admission::kAllow);
}

TEST(AdaptiveLimiterTest, AimdGrowsOnSuccessAndShrinksOnOverload) {
  AdaptiveLimiter::Options options;
  options.initial_limit = 4.0;
  options.min_limit = 1.0;
  options.max_limit = 8.0;
  options.decrease_factor = 0.5;
  AdaptiveLimiter limiter(options);
  const auto soon = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(5);
  const auto later = std::chrono::steady_clock::now() +
                     std::chrono::seconds(5);

  // Fill every slot; the next acquisition times out at its own deadline
  // and is counted — the local kResourceExhausted the client surfaces.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(limiter.Acquire(later));
  EXPECT_EQ(limiter.in_flight(), 4u);
  EXPECT_FALSE(limiter.Acquire(soon));
  EXPECT_EQ(limiter.rejections(), 1u);

  // Additive increase: ~ +increase/limit per success, TCP-style.
  for (int i = 0; i < 4; ++i) limiter.ReleaseSuccess();
  EXPECT_GT(limiter.limit(), 4.0);
  EXPECT_LE(limiter.limit(), 8.0);

  // Multiplicative decrease on an overload signal.
  ASSERT_TRUE(limiter.Acquire(later));
  const double before = limiter.limit();
  limiter.ReleaseOverload(/*retry_after_ms=*/0);
  EXPECT_LT(limiter.limit(), before);
  EXPECT_GE(limiter.limit(), 1.0);

  // A blocked acquirer wakes when a slot frees (no deadline needed).
  while (limiter.in_flight() < static_cast<size_t>(limiter.limit())) {
    ASSERT_TRUE(limiter.Acquire(later));
  }
  std::thread blocked([&] { EXPECT_TRUE(limiter.Acquire(later)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  limiter.ReleaseSuccess();
  blocked.join();
}

TEST(AdaptiveLimiterTest, RetryAfterHintGatesNewAcquisitions) {
  AdaptiveLimiter::Options options;
  options.initial_limit = 4.0;
  AdaptiveLimiter limiter(options);
  const auto later = std::chrono::steady_clock::now() +
                     std::chrono::seconds(5);

  ASSERT_TRUE(limiter.Acquire(later));
  limiter.ReleaseOverload(/*retry_after_ms=*/60);

  // Inside the gate window an acquisition with a shorter deadline fails —
  // the server said "come back later", and the limiter enforces it.
  EXPECT_FALSE(limiter.Acquire(std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(5)));

  // A caller whose deadline outlives the gate waits it out and succeeds.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(limiter.Acquire(later));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_GE(waited, 40);
  limiter.ReleaseNeutral();
}

// ------------------------------------------- fault sites in the transport --

TEST(RemoteClientTest, BudgetSpentBeforeSendingLeavesTheLimiterAlone) {
  // A request whose budget runs out on the client, before it is sent, never
  // reached the shard, so it says nothing about the shard's load: the AIMD
  // limit must not shrink. The "client.encode" site stalls every encode for
  // 20 ms against a 5 ms budget, so each call takes that exit.
  FaultGuard guard;
  NetFixture fx(8);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("unsent_limit.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  auto server = ShardServer::Serve(path, fx.MakeLfs(), {});
  ASSERT_TRUE(server.ok());
  const uint16_t dead_port = server->port();
  server->Shutdown();

  RemoteShardClient::Options options;
  options.port = dead_port;
  options.connect_timeout_ms = 200;
  RemoteShardClient client = RemoteShardClient::Create(options);
  const double initial_limit = client.stats().adaptive_limit;
  ASSERT_EQ(initial_limit, options.adaptive_initial_limit);

  fault::Schedule slow_encode;
  slow_encode.kind = fault::Schedule::Kind::kDelayNth;
  slow_encode.n = 1;
  slow_encode.delay_ms = 20;
  ASSERT_TRUE(fault::Arm("client.encode", slow_encode).ok());
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
  for (int call = 0; call < 5; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    bool failed_fast = true;
    auto spent = client.Label(fx.corpus, rows, false, true,
                              /*deadline_ms=*/5, &failed_fast);
    ASSERT_FALSE(spent.ok());
    EXPECT_EQ(spent.status().code(), StatusCode::kDeadlineExceeded)
        << spent.status().ToString();
    EXPECT_FALSE(failed_fast);
    EXPECT_EQ(client.stats().adaptive_limit, initial_limit);
  }
  EXPECT_EQ(fault::SiteInjected("client.encode"), 5u);
  std::remove(path.c_str());
}

TEST(SocketTest, ArmedFaultSitesInjectTypedTransportErrors) {
  FaultGuard guard;
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto client =
      Socket::Connect("127.0.0.1", listener->port(), DeadlineAfterMs(2000));
  ASSERT_TRUE(client.ok());
  auto served = listener->Accept(2000);
  ASSERT_TRUE(served.ok());

  // Every send faults, but only once (max_hits auto-disarm).
  fault::Schedule send_fault;
  send_fault.kind = fault::Schedule::Kind::kFailNth;
  send_fault.n = 1;
  send_fault.max_hits = 1;
  ASSERT_TRUE(fault::Arm("net.send", send_fault).ok());
  Status broken = client->SendAll("hello", DeadlineAfterMs(2000));
  ASSERT_FALSE(broken.ok());
  // Same typed error a real mid-send break produces: downstream cannot
  // (and must not) tell an injected fault from a real one.
  EXPECT_EQ(broken.code(), StatusCode::kUnavailable);
  EXPECT_NE(broken.message().find("injected fault"), std::string::npos);
  EXPECT_EQ(fault::SiteInjected("net.send"), 1u);

  // Auto-disarmed: the retry goes through and the bytes arrive intact.
  ASSERT_TRUE(client->SendAll("hello", DeadlineAfterMs(2000)).ok());
  char buffer[5];
  ASSERT_TRUE(
      served->RecvExact(buffer, sizeof(buffer), DeadlineAfterMs(2000)).ok());
  EXPECT_EQ(std::string(buffer, sizeof(buffer)), "hello");

  // Same discipline on the receive side.
  fault::Schedule recv_fault;
  recv_fault.kind = fault::Schedule::Kind::kFailNth;
  recv_fault.n = 1;
  recv_fault.max_hits = 1;
  ASSERT_TRUE(fault::Arm("net.recv", recv_fault).ok());
  ASSERT_TRUE(client->SendAll("world", DeadlineAfterMs(2000)).ok());
  Status injected = served->RecvExact(buffer, sizeof(buffer),
                                      DeadlineAfterMs(2000));
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fault::SiteInjected("net.recv"), 1u);
  ASSERT_TRUE(
      served->RecvExact(buffer, sizeof(buffer), DeadlineAfterMs(2000)).ok());
  EXPECT_EQ(std::string(buffer, sizeof(buffer)), "world");
}

std::atomic<int> g_signals_caught{0};

void CountSignal(int) { g_signals_caught.fetch_add(1, std::memory_order_relaxed); }

TEST(SocketTest, TransferSurvivesSignalStormAndPeerDeathIsTypedNotFatal) {
  // SA_RESTART deliberately OFF: every poll/send/recv in flight when a
  // signal lands returns EINTR, which the socket layer must absorb without
  // losing bytes or surfacing a spurious transport error.
  struct sigaction storm_action;
  struct sigaction old_action;
  std::memset(&storm_action, 0, sizeof(storm_action));
  storm_action.sa_handler = CountSignal;
  ASSERT_EQ(sigaction(SIGUSR1, &storm_action, &old_action), 0);
  g_signals_caught.store(0);

  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto client =
      Socket::Connect("127.0.0.1", listener->port(), DeadlineAfterMs(2000));
  ASSERT_TRUE(client.ok());
  auto served = listener->Accept(2000);
  ASSERT_TRUE(served.ok());

  // 8 MB — far past the socket buffers, so both sides block mid-transfer
  // (where EINTR actually bites) many times.
  const size_t kTotal = 8u << 20;
  std::string payload(kTotal, '\0');
  for (size_t i = 0; i < kTotal; ++i) {
    payload[i] = static_cast<char>((i * 131u) ^ (i >> 7));
  }

  std::string received(kTotal, '\0');
  std::atomic<bool> storm_stop{false};
  std::atomic<bool> recv_ok{false};
  std::thread receiver([&] {
    size_t got = 0;
    for (;;) {
      // Short deadlines on purpose: expiry must preserve the cursor, so
      // re-arming resumes mid-stream instead of discarding consumed bytes.
      Status status = served->RecvSome(received.data(), kTotal, &got,
                                       DeadlineAfterMs(250));
      if (status.ok()) {
        recv_ok.store(true);
        break;
      }
      if (status.code() != StatusCode::kDeadlineExceeded) break;
    }
    // Stay alive until the storm stops: pthread_kill against a finished
    // thread is undefined.
    while (!storm_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  pthread_t sender_handle = pthread_self();
  pthread_t receiver_handle = receiver.native_handle();
  std::thread storm([&] {
    while (!storm_stop.load()) {
      pthread_kill(sender_handle, SIGUSR1);
      pthread_kill(receiver_handle, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  Status sent = client->SendAll(payload, DeadlineAfterMs(30'000));
  for (int i = 0; i < 3000 && !recv_ok.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  storm_stop.store(true);
  storm.join();
  receiver.join();

  ASSERT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(recv_ok.load());
  EXPECT_GT(g_signals_caught.load(), 0) << "the storm never landed a signal";
  // NOT ONE BIT lost or reordered across the interruptions.
  EXPECT_EQ(received, payload);

  // Peer death: the server side hangs up; the client must see TYPED errors
  // — kNotFound for the clean EOF, kUnavailable once the send-side breaks
  // (EPIPE suppressed per-send; the process surviving IS the assertion).
  served->Close();
  char byte;
  size_t got = 0;
  Status eof = client->RecvSome(&byte, 1, &got, DeadlineAfterMs(2000),
                                /*eof_ok=*/true);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.code(), StatusCode::kNotFound);

  const std::string chunk = payload.substr(0, 64 * 1024);
  Status dead = Status::OK();
  for (int i = 0; i < 200 && dead.ok(); ++i) {
    dead = client->SendAll(chunk, DeadlineAfterMs(2000));
  }
  ASSERT_FALSE(dead.ok()) << "send into a closed peer never failed";
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable);

  ASSERT_EQ(sigaction(SIGUSR1, &old_action, nullptr), 0);
}

// -------------------------------------------- fault control-plane payloads --

TEST(WireFaultTest, FaultCommandRoundTripsAndRejectsGarbage) {
  WireFaultCommand command;
  command.disarm_all = true;
  fault::Schedule prob;
  prob.kind = fault::Schedule::Kind::kFailProbability;
  prob.probability = 0.25;
  prob.seed = 7;
  prob.max_hits = 3;
  command.arm.emplace_back("net.send", prob);
  fault::Schedule delay;
  delay.kind = fault::Schedule::Kind::kDelayNth;
  delay.n = 2;
  delay.delay_ms = 400;
  delay.seed = 9;
  command.arm.emplace_back("server.label", delay);

  auto frame = DecodeFrame(EncodeFrame(EncodeFaultRequest(21, command)));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kFaultRequest);
  EXPECT_EQ(frame->request_id, 21u);
  auto decoded = DecodeFaultRequest(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->disarm_all);
  ASSERT_EQ(decoded->arm.size(), 2u);
  EXPECT_EQ(decoded->arm[0].first, "net.send");
  EXPECT_EQ(decoded->arm[0].second.kind,
            fault::Schedule::Kind::kFailProbability);
  EXPECT_EQ(decoded->arm[0].second.probability, 0.25);
  EXPECT_EQ(decoded->arm[0].second.seed, 7u);
  EXPECT_EQ(decoded->arm[0].second.max_hits, 3u);
  EXPECT_EQ(decoded->arm[1].first, "server.label");
  EXPECT_EQ(decoded->arm[1].second.kind, fault::Schedule::Kind::kDelayNth);
  EXPECT_EQ(decoded->arm[1].second.n, 2u);
  EXPECT_EQ(decoded->arm[1].second.delay_ms, 400u);

  // The ack is a bare correlated frame.
  auto ack = DecodeFrame(EncodeFrame(EncodeFaultResponse(21)));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, FrameType::kFaultResponse);
  EXPECT_EQ(ack->request_id, 21u);

  // Wrong frame type fails typed.
  Frame ping;
  ping.type = FrameType::kPing;
  EXPECT_FALSE(DecodeFaultRequest(ping).ok());

  // A truncated FLTI section fails typed, never reads past the payload.
  Frame torn = *frame;
  for (FrameSection& section : torn.sections) {
    if (section.tag == std::string(kSectionFaults, 4)) {
      section.payload.resize(section.payload.size() / 2);
    }
  }
  auto rejected = DecodeFaultRequest(torn);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kIOError);
}

TEST(WireStatsTest, FaultsInjectedRoundTripsAndOldPeerPayloadDecodesToZero) {
  WireServerStats stats;
  stats.snapshot_version = 4;
  stats.requests_served = 99;
  stats.faults_injected = 31337;
  stats.expired_work_cancelled = 17;
  stats.shed_total = 23;
  auto frame = DecodeFrame(EncodeFrame(EncodeStatsResponse(88, stats)));
  ASSERT_TRUE(frame.ok());
  auto actual = DecodeStatsResponse(*frame);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(actual->faults_injected, 31337u);
  EXPECT_EQ(actual->requests_served, 99u);
  EXPECT_EQ(actual->expired_work_cancelled, 17u);
  EXPECT_EQ(actual->shed_total, 23u);

  // An OLD peer's SVST section stops before the appended counters. Four
  // generations: a PR-10 peer has everything; a PR-8/9 peer (two trailing
  // u64s shorter) lacks expired_work_cancelled / shed_total; a PR-7 peer
  // (four shorter) also lacks deadline_rejections / rejected_swaps; a
  // pre-faults peer (five shorter) has none of the appended fields. Every
  // truncation decodes, missing fields read 0, and every older field still
  // reads correctly.
  auto truncated = [&](size_t dropped_u64s) {
    Frame old_peer = *frame;
    for (FrameSection& section : old_peer.sections) {
      if (section.tag == std::string(kSectionServerStats, 4)) {
        ASSERT_GE(section.payload.size(), dropped_u64s * sizeof(uint64_t));
        section.payload.resize(section.payload.size() -
                               dropped_u64s * sizeof(uint64_t));
      }
    }
    auto compat = DecodeStatsResponse(old_peer);
    ASSERT_TRUE(compat.ok()) << compat.status().ToString();
    EXPECT_EQ(compat->snapshot_version, 4u);
    EXPECT_EQ(compat->requests_served, 99u);
    EXPECT_EQ(compat->expired_work_cancelled, 0u);
    EXPECT_EQ(compat->shed_total, 0u);
    EXPECT_EQ(compat->deadline_rejections, 0u);
    EXPECT_EQ(compat->rejected_swaps, 0u);
    EXPECT_EQ(compat->faults_injected, dropped_u64s >= 5 ? 0u : 31337u);
  };
  truncated(2);
  truncated(4);
  truncated(5);
}

// -------------------------------------------- trace + metrics wire compat --

TEST(WireTraceTest, TraceContextRoundTripsAndOldOrUntracedPeersReadZero) {
  NetFixture fx(6);
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);

  obs::TraceContext trace;
  trace.trace_id = 0xdeadbeefcafeULL;
  trace.parent_span = 0x1234;
  auto traced = DecodeFrame(
      EncodeFrame(EncodeLabelRequest(7, fx.corpus, rows, true, true, 250,
                                     trace)));
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  auto wire = DecodeLabelRequest(*traced);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->trace.trace_id, 0xdeadbeefcafeULL);
  EXPECT_EQ(wire->trace.parent_span, 0x1234u);
  EXPECT_EQ(wire->deadline_ms, 250u);

  // An untraced (or old, pre-tracing) client writes NO TRAC section at
  // all, and the server decodes a zero context — not an error.
  auto untraced = DecodeFrame(
      EncodeFrame(EncodeLabelRequest(8, fx.corpus, rows, true, true, 0)));
  ASSERT_TRUE(untraced.ok());
  for (const FrameSection& section : untraced->sections) {
    EXPECT_NE(section.tag, std::string(kSectionTrace, 4));
  }
  auto plain = DecodeLabelRequest(*untraced);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->trace.valid());
  EXPECT_EQ(plain->trace.parent_span, 0u);

  // An OLD server treats TRAC as an unknown tag and skips it wholesale
  // (the skip-unknown rule): the rest of the traced frame must be
  // self-sufficient. Dropping TRAC loses only the trace identity.
  Frame old_server_view = *traced;
  old_server_view.sections.erase(
      std::remove_if(old_server_view.sections.begin(),
                     old_server_view.sections.end(),
                     [](const FrameSection& section) {
                       return section.tag == std::string(kSectionTrace, 4);
                     }),
      old_server_view.sections.end());
  auto skipped = DecodeLabelRequest(old_server_view);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_FALSE(skipped->trace.valid());
  EXPECT_EQ(skipped->candidates.size(), wire->candidates.size());
  EXPECT_EQ(skipped->deadline_ms, 250u);

  // A torn TRAC section is a typed error, never an OOB read.
  Frame torn = *traced;
  for (FrameSection& section : torn.sections) {
    if (section.tag == std::string(kSectionTrace, 4)) {
      section.payload.resize(4);
    }
  }
  auto rejected = DecodeLabelRequest(torn);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kIOError);
}

TEST(WireTraceTest, TraceRequestAndResponseRoundTripWire) {
  WireTraceRequest request;
  EXPECT_EQ(request.trace_id, 0u);  // Defaults: every span, draining.
  EXPECT_TRUE(request.drain);
  request.trace_id = 0xfeed;
  request.drain = false;
  auto frame = DecodeFrame(EncodeFrame(EncodeTraceRequest(31, request)));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kTraceRequest);
  auto decoded = DecodeTraceRequest(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_id, 0xfeedu);
  EXPECT_FALSE(decoded->drain);

  obs::SpanBatch batch;
  batch.process = "shard-9";
  obs::Span span;
  span.trace_id = 0xfeed;
  span.span_id = 2;
  span.parent_id = 1;
  span.name = "server.label";
  span.start_ns = 10;
  span.end_ns = 90;
  span.annotation = "rows=6";
  batch.spans.push_back(span);
  auto reply = DecodeFrame(EncodeFrame(EncodeTraceResponse(31, batch)));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kTraceResponse);
  auto spans = DecodeTraceResponse(*reply);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  EXPECT_EQ(spans->process, "shard-9");
  ASSERT_EQ(spans->spans.size(), 1u);
  EXPECT_EQ(spans->spans[0].name, "server.label");
  EXPECT_EQ(spans->spans[0].annotation, "rows=6");

  // A torn TSPN payload is a typed error.
  Frame torn = *reply;
  for (FrameSection& section : torn.sections) {
    if (section.tag == std::string(kSectionTraceSpans, 4)) {
      section.payload.resize(section.payload.size() / 2);
    }
  }
  EXPECT_FALSE(DecodeTraceResponse(torn).ok());

  // Wrong frame types fail typed.
  Frame ping;
  ping.type = FrameType::kPing;
  EXPECT_FALSE(DecodeTraceRequest(ping).ok());
  EXPECT_FALSE(DecodeTraceResponse(ping).ok());
}

TEST(WireMetricsTest, MetricsScrapeRoundTripsPrometheusTextVerbatim) {
  const std::string text =
      "# TYPE snorkel_server_requests_total counter\n"
      "snorkel_server_requests_total 12\n"
      "# TYPE snorkel_serve_latency_ms histogram\n"
      "snorkel_serve_latency_ms_bucket{le=\"+Inf\"} 12\n"
      "snorkel_serve_latency_ms_count 12\n";
  auto request = DecodeFrame(EncodeFrame(EncodeMetricsRequest(55)));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, FrameType::kMetricsRequest);
  EXPECT_EQ(request->request_id, 55u);

  auto reply = DecodeFrame(EncodeFrame(EncodeMetricsResponse(55, text)));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kMetricsResponse);
  auto decoded = DecodeMetricsResponse(*reply);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, text);  // Byte-exact: the payload IS the exposition.

  Frame ping;
  ping.type = FrameType::kPing;
  EXPECT_FALSE(DecodeMetricsResponse(ping).ok());
}

// ----------------------------------------- server-side fault control plane --

TEST(ShardServerTest, WireFaultControlInjectsCountsAndAutoDisarms) {
  FaultGuard guard;
  NetFixture fx(32);
  ModelSnapshot snapshot = fx.MakeSnapshot(fx.MakeLfs());
  std::string path = TempPath("fault_control.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  LabelResponse expected = fx.Expected(snapshot, /*include_votes=*/false);

  ShardServer::Options options;
  options.num_workers = 2;
  auto server = ShardServer::Serve(path, fx.MakeLfs(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RemoteShardClient::Options client_options;
  client_options.port = server->port();
  RemoteShardClient client = RemoteShardClient::Create(client_options);

  // Arm the server's labeling site over the wire: exactly one injected
  // failure, then auto-disarm.
  WireFaultCommand command;
  fault::Schedule once;
  once.kind = fault::Schedule::Kind::kFailNth;
  once.n = 1;
  once.max_hits = 1;
  command.arm.emplace_back("server.label", once);
  ASSERT_TRUE(client.ConfigureFaults(command, 2000).ok());

  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);
  auto faulted = client.Label(fx.corpus, rows, false, true, 5000);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(faulted.status().message().find("injected fault"),
            std::string::npos);
  // An injected error is an ANSWER (error frame over a live connection),
  // not a transport failure: the endpoint must stay healthy.
  EXPECT_TRUE(client.stats().healthy);

  // The counter crosses the wire in the stats RPC.
  auto wire_stats = client.GetStats(2000);
  ASSERT_TRUE(wire_stats.ok());
  EXPECT_GE(wire_stats->faults_injected, 1u);

  // max_hits spent: the schedule disarmed itself and service resumed,
  // bitwise.
  auto recovered = client.Label(fx.corpus, rows, false, true, 5000);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->posteriors, expected.posteriors);

  // disarm_all over the wire is accepted too.
  WireFaultCommand off;
  off.disarm_all = true;
  EXPECT_TRUE(client.ConfigureFaults(off, 2000).ok());
  std::remove(path.c_str());
}

// ----------------------------------------------------- replicated failover --

TEST(RemoteRouterTest, DeadReplicaFailsOverBitwiseWithAttemptChains) {
  TwoShardFleet fleet(64);
  LabelResponse expected = fleet.fx.Expected(fleet.snapshot, false);

  RemoteShardRouter::Options options;  // replication defaults to 2.
  options.client.connect_timeout_ms = 300;
  options.client.unhealthy_cooldown_ms = 60'000;  // Stay open once tripped.
  options.request_timeout_ms = 10'000;
  auto router = RemoteShardRouter::Create(fleet.endpoints, options);
  ASSERT_TRUE(router.ok());

  // Kill endpoint 1. Shard 1's preference list is [1, 0], so every one of
  // its sub-batches fails over to endpoint 0 — same snapshot, same bits.
  fleet.servers[1].Shutdown();

  LabelRequest request;
  request.corpus = &fleet.fx.corpus;
  request.candidates = &fleet.fx.candidates;
  for (int round = 0; round < 6; ++round) {
    auto response = router->Label(request);
    ASSERT_TRUE(response.ok()) << "round " << round << ": "
                               << response.status().ToString();
    // Failover is TRANSPARENT: complete response, full coverage, and
    // bit-identical to the unsharded service.
    EXPECT_FALSE(response->is_partial);
    EXPECT_TRUE(response->covered.empty());
    EXPECT_EQ(response->posteriors, expected.posteriors);
    EXPECT_EQ(response->hard_labels, expected.hard_labels);

    // ...but not SILENT: the attempt chain names every endpoint tried.
    bool found_failover = false;
    for (const ShardOutcome& outcome : response->shard_outcomes) {
      if (outcome.shard != 1) continue;
      found_failover = true;
      EXPECT_EQ(outcome.code, StatusCode::kOk);
      ASSERT_GE(outcome.attempts.size(), 2u);
      EXPECT_EQ(outcome.attempts.front().endpoint, 1u);
      EXPECT_NE(outcome.attempts.front().code, StatusCode::kOk);
      EXPECT_EQ(outcome.attempts.back().endpoint, 0u);
      EXPECT_EQ(outcome.attempts.back().code, StatusCode::kOk);
    }
    EXPECT_TRUE(found_failover) << "round " << round;
  }

  RemoteRouterStats stats = router->stats();
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.degraded_requests, 0u);
  EXPECT_GE(stats.failovers, 6u);
  EXPECT_EQ(stats.retry_budget_exhausted, 0u);
  // After unhealthy_threshold (3) dispatched failures the breaker opened:
  // later rounds failed over WITHOUT paying the connect timeout.
  EXPECT_GE(stats.breaker_open_rejections, 1u);
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_FALSE(stats.per_shard[1].healthy);
}

TEST(RemoteRouterTest, RetryBudgetExhaustionFailsTypedAndIsCounted) {
  TwoShardFleet fleet(64);
  LabelResponse expected = fleet.fx.Expected(fleet.snapshot, false);

  RemoteShardRouter::Options options;
  options.client.connect_timeout_ms = 300;
  // Keep the breaker out of the picture: every attempt dispatches, so
  // every failover NEEDS a token — and the bucket is bone dry.
  options.client.unhealthy_threshold = 100;
  options.request_timeout_ms = 5000;
  options.retry_budget.initial = 0.0;
  options.retry_budget.max_tokens = 0.0;
  options.retry_budget.per_request_refill = 0.0;
  auto router = RemoteShardRouter::Create(fleet.endpoints, options);
  ASSERT_TRUE(router.ok());
  fleet.servers[1].Shutdown();

  LabelRequest request;
  request.corpus = &fleet.fx.corpus;
  request.candidates = &fleet.fx.candidates;
  auto whole = router->Label(request);
  ASSERT_FALSE(whole.ok());
  EXPECT_EQ(whole.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(whole.status().message().find("shard 1/2"), std::string::npos)
      << whole.status().ToString();
  EXPECT_NE(whole.status().message().find("retry budget exhausted"),
            std::string::npos)
      << whole.status().ToString();

  // allow_partial still degrades instead of failing: covered rows bitwise,
  // and the failed outcome's chain shows ONE dispatched attempt (the
  // refused retry never ran).
  request.allow_partial = true;
  auto partial = router->Label(request);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->is_partial);
  for (size_t i = 0; i < fleet.fx.candidates.size(); ++i) {
    if (partial->RowCovered(i)) {
      EXPECT_EQ(partial->posteriors[i], expected.posteriors[i]);
    }
  }
  bool found_exhausted = false;
  for (const ShardOutcome& outcome : partial->shard_outcomes) {
    if (outcome.shard != 1) continue;
    found_exhausted = true;
    EXPECT_NE(outcome.code, StatusCode::kOk);
    EXPECT_EQ(outcome.attempts.size(), 1u);
    EXPECT_EQ(outcome.attempts[0].endpoint, 1u);
  }
  EXPECT_TRUE(found_exhausted);

  RemoteRouterStats stats = router->stats();
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_EQ(stats.degraded_requests, 1u);
  EXPECT_GE(stats.retry_budget_exhausted, 2u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.breaker_open_rejections, 0u);
}

TEST(RemoteRouterTest, BreakerOpenFailoverIsFreeWithZeroBudget) {
  TwoShardFleet fleet(64);
  LabelResponse expected = fleet.fx.Expected(fleet.snapshot, false);

  RemoteShardRouter::Options options;
  options.client.connect_timeout_ms = 300;
  options.client.unhealthy_threshold = 1;  // One failure opens the breaker.
  options.client.unhealthy_cooldown_ms = 60'000;
  options.request_timeout_ms = 5000;
  // ZERO retry budget: only fail-fast (undispatched) failovers can succeed.
  options.retry_budget.initial = 0.0;
  options.retry_budget.max_tokens = 0.0;
  options.retry_budget.per_request_refill = 0.0;
  auto router = RemoteShardRouter::Create(fleet.endpoints, options);
  ASSERT_TRUE(router.ok());
  fleet.servers[1].Shutdown();

  LabelRequest request;
  request.corpus = &fleet.fx.corpus;
  request.candidates = &fleet.fx.candidates;

  // Request 1 DISPATCHES to the dead endpoint (breaker still closed), so
  // the failover is a real retry — refused by the dry bucket.
  auto first = router->Label(request);
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.status().message().find("retry budget exhausted"),
            std::string::npos)
      << first.status().ToString();

  // From now on the open breaker rejects WITHOUT dispatching: failover is
  // free, needs no token, and the fleet answers every request completely —
  // the steady-outage invariant the chaos harness rests on.
  for (int round = 0; round < 3; ++round) {
    auto response = router->Label(request);
    ASSERT_TRUE(response.ok()) << "round " << round << ": "
                               << response.status().ToString();
    EXPECT_FALSE(response->is_partial);
    EXPECT_EQ(response->posteriors, expected.posteriors);
    EXPECT_EQ(response->hard_labels, expected.hard_labels);
  }

  RemoteRouterStats stats = router->stats();
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_GE(stats.failovers, 3u);
  EXPECT_GE(stats.breaker_open_rejections, 3u);
  EXPECT_GE(stats.retry_budget_exhausted, 1u);
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_FALSE(stats.per_shard[1].healthy);
}

TEST(RemoteRouterTest, CancelledTokenFailsTypedDeadlineExceeded) {
  FaultGuard guard;
  TwoShardFleet fleet(64);
  LabelResponse expected = fleet.fx.Expected(fleet.snapshot, false);
  auto router = RemoteShardRouter::Create(fleet.endpoints, {});
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Already-expired tokens (cancelled by hand, deadline passed) fail typed
  // before any sub-batch crosses the wire.
  CancelToken cancelled;
  cancelled.Cancel();
  CancelToken past(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  for (const CancelToken* token : {&cancelled, &past}) {
    LabelRequest request;
    request.corpus = &fleet.fx.corpus;
    request.candidates = &fleet.fx.candidates;
    request.cancel = token;
    auto response = router->Label(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
        << response.status().ToString();
  }
  RemoteRouterStats stats = router->stats();
  EXPECT_EQ(stats.failed_requests, 2u);
  EXPECT_EQ(stats.num_requests, 0u);
  for (const RemoteShardClient::Stats& shard : stats.per_shard) {
    EXPECT_EQ(shard.requests, 0u);
  }

  // A live token serves bitwise.
  CancelToken live(std::chrono::steady_clock::now() + std::chrono::hours(1));
  LabelRequest request;
  request.corpus = &fleet.fx.corpus;
  request.candidates = &fleet.fx.candidates;
  request.cancel = &live;
  auto served = router->Label(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->posteriors, expected.posteriors);

  // The token's deadline caps each sub-batch's budget even when the router
  // sets none: every replica now stalls far past it, and the request fails
  // typed instead of waiting the stall out (or failing over on a spent
  // budget).
  fault::Schedule stall;
  stall.kind = fault::Schedule::Kind::kDelayNth;
  stall.n = 1;
  stall.delay_ms = 600;
  ASSERT_TRUE(fault::Arm("server.label", stall).ok());
  CancelToken soon(std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(100));
  request.cancel = &soon;
  auto capped = router->Label(request);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kDeadlineExceeded)
      << capped.status().ToString();
}

TEST(RemoteRouterTest, KClassMergeWithVotesBitwiseIdenticalToUnsharded) {
  // The crowd-shaped K-class snapshot (5 classes, index-dependent worker
  // LFs) served by two loopback ShardServers behind an R=2 router.
  CrowdServingOptions crowd;
  crowd.num_items = 120;
  crowd.num_workers = 10;
  auto task = MakeCrowdServingTask(crowd);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  auto snapshot = TrainKClassSnapshot(task->lfs, task->corpus,
                                      task->candidates, task->cardinality);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const std::string path = TempPath("kclass_fleet.snk");
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());

  auto unsharded = LabelService::Create(*snapshot, task->lfs);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  LabelRequest request;
  request.corpus = &task->corpus;
  request.candidates = &task->candidates;
  request.include_votes = true;
  auto expected = unsharded->Label(request);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->cardinality, 5);

  std::vector<ShardServer> servers;
  std::vector<std::pair<std::string, uint16_t>> endpoints;
  for (int s = 0; s < 2; ++s) {
    auto server = ShardServer::Serve(path, task->lfs, {});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    endpoints.emplace_back("127.0.0.1", server->port());
    servers.push_back(std::move(*server));
  }
  RemoteShardRouter::Options options;
  options.replication = 2;
  auto router = RemoteShardRouter::Create(endpoints, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  auto actual = router->Label(request);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->cardinality, 5);
  EXPECT_FALSE(actual->is_partial);
  EXPECT_TRUE(actual->posteriors.empty());
  ASSERT_EQ(actual->class_posteriors.size(),
            expected->class_posteriors.size());
  for (size_t t = 0; t < expected->class_posteriors.size(); ++t) {
    EXPECT_EQ(actual->class_posteriors[t], expected->class_posteriors[t])
        << "class-posterior bits drifted at flat index " << t;
  }
  EXPECT_EQ(actual->hard_labels, expected->hard_labels);
  ASSERT_EQ(actual->votes.num_rows(), expected->votes.num_rows());
  ASSERT_EQ(actual->votes.num_lfs(), expected->votes.num_lfs());
  for (size_t i = 0; i < expected->votes.num_rows(); ++i) {
    for (size_t j = 0; j < expected->votes.num_lfs(); ++j) {
      EXPECT_EQ(actual->votes.At(i, j), expected->votes.At(i, j))
          << "vote mismatch at (" << i << ", " << j << ")";
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------- store crash consistency (S3) --

TEST(ShardServerTest, WatcherIgnoresTornRejectsCorruptAndPromotesNextGood) {
  FaultGuard guard;
  NetFixture fx(48);
  ModelSnapshot v1 = fx.MakeSnapshot(fx.MakeLfs(), /*epochs=*/60);
  ModelSnapshot v_new = fx.MakeSnapshot(fx.MakeLfs(), /*epochs=*/90);
  ASSERT_NE(v1.CanonicalChecksum(), v_new.CanonicalChecksum());
  LabelResponse expected_v1 = fx.Expected(v1, false);
  LabelResponse expected_new = fx.Expected(v_new, false);

  std::string dir = FreshStoreDir("store_crash");
  auto store = SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Publish(1, SerializeSnapshot(v1)).ok());

  ShardServer::Options options;
  options.num_workers = 2;
  options.watch_interval_ms = 25;
  auto server = ShardServer::ServeFromStore(dir, fx.MakeLfs(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RemoteShardClient::Options client_options;
  client_options.port = server->port();
  RemoteShardClient client = RemoteShardClient::Create(client_options);
  std::vector<CandidateRef> rows = MakeCandidateRefs(fx.candidates);

  // A TORN publish (writer crashed mid-temp-file) is not a version: the
  // watcher never even considers it — no rejection, no wedge, no swap.
  std::string torn_bytes = SerializeSnapshot(v_new);
  torn_bytes.resize(torn_bytes.size() / 2);
  ASSERT_TRUE(WriteFileBytes(dir + "/.publish-2-31337", torn_bytes).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(server->stats().snapshot_version, 1u);
  EXPECT_EQ(server->stats().rejected_swaps, 0u);
  auto during_torn = client.Label(fx.corpus, rows, false, true, 5000);
  ASSERT_TRUE(during_torn.ok());
  EXPECT_EQ(during_torn->posteriors, expected_v1.posteriors);

  // A fully published but CORRUPT artifact is rejected; v1 keeps serving.
  ASSERT_TRUE(store->Publish(2, "definitely not a snapshot").ok());
  bool rejected = false;
  for (int i = 0; i < 200 && !rejected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    rejected = server->stats().rejected_swaps >= 1;
  }
  ASSERT_TRUE(rejected);
  EXPECT_EQ(server->stats().snapshot_version, 1u);

  // A GOOD artifact whose load I/O fails (injected once at store.load) is
  // also rejected — a crash mid-read must behave like a bad artifact, not
  // take the shard down.
  fault::Schedule load_fault;
  load_fault.kind = fault::Schedule::Kind::kFailNth;
  load_fault.n = 1;
  load_fault.max_hits = 1;
  ASSERT_TRUE(fault::Arm("store.load", load_fault).ok());
  ASSERT_TRUE(store->Publish(3, SerializeSnapshot(v_new)).ok());
  bool rejected_again = false;
  for (int i = 0; i < 200 && !rejected_again; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    rejected_again = server->stats().rejected_swaps >= 2;
  }
  ASSERT_TRUE(rejected_again);
  EXPECT_EQ(server->stats().snapshot_version, 1u);

  // The watcher is NOT wedged: the next good version promotes and serves
  // its exact bits.
  ASSERT_TRUE(store->Publish(4, SerializeSnapshot(v_new)).ok());
  bool swapped = false;
  for (int i = 0; i < 200 && !swapped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    swapped = server->stats().snapshot_version == 4;
  }
  ASSERT_TRUE(swapped) << "watcher never recovered to version 4";
  EXPECT_EQ(server->stats().snapshot_checksum, v_new.CanonicalChecksum());
  auto after = client.Label(fx.corpus, rows, false, true, 5000);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->posteriors, expected_new.posteriors);
  EXPECT_EQ(after->hard_labels, expected_new.hard_labels);
}

}  // namespace
}  // namespace snorkel
