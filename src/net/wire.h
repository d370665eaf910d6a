#ifndef SNORKEL_NET_WIRE_H_
#define SNORKEL_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/candidate.h"
#include "data/context.h"
#include "lf/applier.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/label_service.h"
#include "util/fault.h"
#include "util/status.h"

namespace snorkel {

/// The RPC wire format of the networked shard fabric: length-prefixed,
/// checksummed binary frames over a byte stream, built from the same
/// named-section idiom as the snapshot v2 artifact (serve/snapshot.h) so the
/// two formats evolve the same way.
///
/// Stream layout of one frame:
///
///   magic "SNRP" | u32 wire_version | u64 body_size | body
///
/// and the body:
///
///   u32 frame_type | u64 request_id | u32 section_count |
///   section_count × ( tag[4] | u64 payload_size | payload
///                     | u64 fnv1a64(payload) )
///
/// Sections carry SKIP-UNKNOWN semantics exactly like snapshot sections: a
/// decoder verifies every section's checksum but ignores tags it does not
/// recognize, and known sections tolerate trailing payload bytes (field
/// appends). A new server therefore understands old clients, and an old
/// client keeps working against a new server that appends sections or
/// fields — the forward/backward-compat contract the rollout story needs.
/// Corruption or truncation anywhere is a typed IOError naming the section,
/// never UB; frames above kMaxWireFrameBytes are rejected before allocation.
inline constexpr char kWireMagic[4] = {'S', 'N', 'R', 'P'};
inline constexpr uint32_t kWireVersion = 1;
/// Fixed bytes before the body: magic + u32 version + u64 body size.
inline constexpr size_t kWireHeaderBytes = 4 + 4 + 8;
/// Upper bound on one frame's body (defends against corrupt/hostile length
/// prefixes — a request this size is a bug, not traffic).
inline constexpr uint64_t kMaxWireFrameBytes = 1ull << 30;

/// Frame types. Values are wire ABI — append, never renumber.
enum class FrameType : uint32_t {
  kLabelRequest = 1,
  kLabelResponse = 2,
  /// Typed failure: an ERRS section carrying a wire status code + message.
  kError = 3,
  /// Liveness probe; the server answers kPong with the same request id.
  kPing = 4,
  kPong = 5,
  /// Server observability: stats incl. snapshot version/checksum (rollout
  /// progress per shard is observable over the wire).
  kStatsRequest = 6,
  kStatsResponse = 7,
  /// Test/chaos control: arms or disarms fault-injection sites in the
  /// server process (util/fault.h registry) via an FLTI section. An old
  /// server answers kError/kInvalidArgument — harnesses must tolerate that.
  kFaultRequest = 8,
  kFaultResponse = 9,
  /// Unified metrics export: the server answers with its MetricsRegistry
  /// rendered as Prometheus text in an MTRC section (tools/metrics_scrape).
  /// An old server answers kError — scrapers must tolerate that.
  kMetricsRequest = 10,
  kMetricsResponse = 11,
  /// Trace-span drain: the server returns (and by default removes) the
  /// spans in its bounded ring, optionally filtered to one trace id, as a
  /// TSPN section (tools/trace_dump stitches batches across processes).
  kTraceRequest = 12,
  kTraceResponse = 13,
};

// Section tags.
inline constexpr char kSectionCorpus[4] = {'C', 'O', 'R', 'P'};
inline constexpr char kSectionCandidates[4] = {'C', 'A', 'N', 'D'};
inline constexpr char kSectionRequestOptions[4] = {'R', 'O', 'P', 'T'};
inline constexpr char kSectionResponseMeta[4] = {'R', 'M', 'E', 'T'};
inline constexpr char kSectionPosteriors[4] = {'P', 'O', 'S', 'T'};
inline constexpr char kSectionClassPosteriors[4] = {'K', 'P', 'S', 'T'};
inline constexpr char kSectionHardLabels[4] = {'H', 'A', 'R', 'D'};
inline constexpr char kSectionVotes[4] = {'V', 'O', 'T', 'E'};
inline constexpr char kSectionError[4] = {'E', 'R', 'R', 'S'};
inline constexpr char kSectionServerStats[4] = {'S', 'V', 'S', 'T'};
inline constexpr char kSectionFaults[4] = {'F', 'L', 'T', 'I'};
/// Trace context on label requests / drain filter on trace requests. Old
/// peers skip it (unknown tag), so traced clients interoperate with
/// untraced servers and vice versa.
inline constexpr char kSectionTrace[4] = {'T', 'R', 'A', 'C'};
/// Prometheus-text metrics payload (kMetricsResponse).
inline constexpr char kSectionMetrics[4] = {'M', 'T', 'R', 'C'};
/// Encoded span batch (kTraceResponse; obs::EncodeSpansPayload bytes).
inline constexpr char kSectionTraceSpans[4] = {'T', 'S', 'P', 'N'};

/// StatusCode <-> stable wire value. The enum's numeric values are NOT wire
/// ABI (reordering the enum must not change what old peers decode), so the
/// mapping is an explicit table. Unknown wire values decode as kInternal.
uint32_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint32_t wire);

/// One named, checksummed section of a frame body.
struct FrameSection {
  std::string tag;      // Exactly 4 bytes.
  std::string payload;  // Raw section bytes (checksum-verified on decode).
};

/// A decoded frame: type, correlation id, and its sections (known AND
/// unknown — payload-level decoders pick the tags they understand).
struct Frame {
  FrameType type = FrameType::kError;
  /// Client-assigned correlation id, echoed verbatim by the server; a
  /// response whose id does not match its request is a framing bug and the
  /// connection is discarded.
  uint64_t request_id = 0;
  std::vector<FrameSection> sections;

  /// Pointer to the first section named `tag`, or nullptr.
  const FrameSection* Find(const char tag[4]) const;
};

/// Encodes a complete frame (header + body).
std::string EncodeFrame(const Frame& frame);

/// Decoded fixed header of one frame.
struct FrameHeader {
  uint32_t version = 0;
  uint64_t body_size = 0;
};

/// Validates magic, version (> kWireVersion is FailedPrecondition — the
/// peer must speak down), and body size bound. `bytes` must hold exactly
/// kWireHeaderBytes.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

/// Decodes a frame body (everything after the header): frame type,
/// request id, and checksum-verified sections. Unknown tags are kept (the
/// skip-unknown contract lives in payload decoding, which ignores them).
Result<Frame> DecodeFrameBody(std::string_view body);

/// Decodes one whole frame (header + body), for tests and tooling; the
/// streaming path reads the header first to size the body read.
Result<Frame> DecodeFrame(std::string_view bytes);

// ---------------------------------------------------------------------------
// LabelRequest / LabelResponse payloads.
// ---------------------------------------------------------------------------

/// A label request as it crosses the wire: the referenced corpus slice
/// (documents the candidates live in, at their ORIGINAL indices — so every
/// LF observable, including raw span coordinates, is bit-identical to the
/// client's view), the candidate rows with their LF-visible indices, and the
/// request flags.
struct WireLabelRequest {
  Corpus corpus;
  std::vector<Candidate> candidates;
  /// LF-visible index per row (CandidateView::index()), preserved across
  /// the wire exactly like the in-process ref fan-out preserves it.
  std::vector<uint64_t> indices;
  bool include_votes = false;
  bool apply_class_balance = true;
  /// Remaining request budget in milliseconds when the client sent the
  /// frame; 0 = no deadline. A server that dequeues the job after this
  /// budget fails it kDeadlineExceeded instead of doing dead work.
  uint64_t deadline_ms = 0;
  /// Distributed-tracing identity from the request's TRAC section: the
  /// router-minted trace id and the client-side span the server's spans
  /// hang under. Zero (untraced) when the client is old or tracing is off.
  obs::TraceContext trace;
};

/// Encodes a request over borrowed rows (the router's zero-copy fan-out
/// form). Only documents referenced by `rows` are shipped; their indices are
/// preserved via a sparse corpus reconstruction on the server. A valid
/// `trace` context adds a TRAC section (old servers skip it unread).
Frame EncodeLabelRequest(uint64_t request_id, const Corpus& corpus,
                         const std::vector<CandidateRef>& rows,
                         bool include_votes, bool apply_class_balance,
                         uint64_t deadline_ms,
                         const obs::TraceContext& trace = {});

/// The expensive, deadline-INDEPENDENT part of a label request: the encoded
/// corpus slice + candidate rows. The client encodes the batch first and
/// frames it afterwards with a freshly computed deadline_ms
/// (EncodeLabelRequestFromBatch), so the budget the request advertises
/// reflects the time encoding already burned client-side.
struct EncodedLabelBatch {
  std::string corpus;      // EncodeCorpusSlice bytes (CORP payload).
  std::string candidates;  // EncodeCandidates bytes (CAND payload).
};

EncodedLabelBatch EncodeLabelBatch(const Corpus& corpus,
                                   const std::vector<CandidateRef>& rows);

/// Assembles a label-request frame around a pre-encoded batch. `deadline_ms`
/// is the REMAINING budget at assembly time; callers compute it immediately
/// before each wire attempt.
Frame EncodeLabelRequestFromBatch(uint64_t request_id,
                                  const EncodedLabelBatch& batch,
                                  bool include_votes, bool apply_class_balance,
                                  uint64_t deadline_ms,
                                  const obs::TraceContext& trace = {});

Result<WireLabelRequest> DecodeLabelRequest(const Frame& frame);

Frame EncodeLabelResponse(uint64_t request_id, const LabelResponse& response);

Result<LabelResponse> DecodeLabelResponse(const Frame& frame);

// ---------------------------------------------------------------------------
// Error + stats payloads.
// ---------------------------------------------------------------------------

Frame EncodeErrorFrame(uint64_t request_id, const Status& status);

/// Error frame with a backoff hint: `retry_after_ms` (how long the server
/// estimates the rejected caller should wait before retrying) is APPENDED to
/// the ERRS payload after the message. Old decoders stop after the message
/// and never see it (trailing-bytes tolerance); old encoders' frames decode
/// with retry_after_ms = 0 ("no hint").
Frame EncodeErrorFrame(uint64_t request_id, const Status& status,
                       uint64_t retry_after_ms);

/// The typed status carried by a kError frame (IOError when the frame is
/// not a well-formed error frame).
Status DecodeErrorFrame(const Frame& frame);

/// Same, also extracting the appended retry_after_ms hint (0 when the peer
/// is old or sent no hint). `retry_after_ms` may be null.
Status DecodeErrorFrame(const Frame& frame, uint64_t* retry_after_ms);

/// A ShardServer's counters: ShardServer::stats() returns them in-process
/// and the stats RPC (kStatsResponse) serves them over the wire. Fields
/// after `cardinality` were appended to the payload over time: an old
/// peer's frame lacks them and they decode as 0.
struct WireServerStats {
  uint64_t snapshot_version = 0;
  uint64_t snapshot_checksum = 0;
  uint64_t requests_served = 0;
  uint64_t candidates_served = 0;
  /// Admission failures: queue at capacity (wire kResourceExhausted).
  uint64_t queue_rejections = 0;
  /// Successful hot-swaps onto a newer store version.
  uint64_t snapshot_swaps = 0;
  int32_t cardinality = 2;
  /// Faults and delays injected in the server process (util/fault.h).
  uint64_t faults_injected = 0;
  /// Jobs dequeued after their deadline budget was spent.
  uint64_t deadline_rejections = 0;
  /// Newer store versions that failed validation and were NOT swapped in.
  uint64_t rejected_swaps = 0;
  /// Requests whose compute was cooperatively cancelled mid-flight after
  /// their deadline expired (LF application / inference stopped at a chunk
  /// boundary instead of running to completion).
  uint64_t expired_work_cancelled = 0;
  /// Jobs shed from the admission queue: displaced by an interactive
  /// arrival, or CoDel-dropped at pop for over-target sojourn.
  uint64_t shed_total = 0;
};

Frame EncodeStatsResponse(uint64_t request_id, const WireServerStats& stats);

Result<WireServerStats> DecodeStatsResponse(const Frame& frame);

// ---------------------------------------------------------------------------
// Fault-injection control payloads (kFaultRequest / kFaultResponse).
// ---------------------------------------------------------------------------

/// A fault-injection command for a server process: optionally disarm every
/// site, then arm the listed (site, schedule) pairs. The wire surface of
/// the util/fault.h registry, used by chaos tests to inject server-side
/// transport faults and latency spikes mid-stream.
struct WireFaultCommand {
  bool disarm_all = false;
  std::vector<std::pair<std::string, fault::Schedule>> arm;
};

Frame EncodeFaultRequest(uint64_t request_id, const WireFaultCommand& command);

Result<WireFaultCommand> DecodeFaultRequest(const Frame& frame);

/// Acknowledgement (no payload beyond the echoed request id).
Frame EncodeFaultResponse(uint64_t request_id);

// ---------------------------------------------------------------------------
// Metrics + trace-drain payloads (kMetricsRequest/.. kTraceResponse).
// ---------------------------------------------------------------------------

/// Metrics scrape: the request carries no payload; the response's MTRC
/// section is the server's registry rendered as Prometheus text.
Frame EncodeMetricsRequest(uint64_t request_id);
Frame EncodeMetricsResponse(uint64_t request_id,
                            const std::string& prometheus_text);
Result<std::string> DecodeMetricsResponse(const Frame& frame);

/// Trace drain parameters: which trace to return (0 = every span) and
/// whether the server should remove returned spans from its ring (the
/// default; a monitoring peek passes drain = false).
struct WireTraceRequest {
  uint64_t trace_id = 0;
  bool drain = true;
};

Frame EncodeTraceRequest(uint64_t request_id, const WireTraceRequest& request);
Result<WireTraceRequest> DecodeTraceRequest(const Frame& frame);

/// The drained spans, tagged with the server's process label (TSPN
/// section; obs::EncodeSpansPayload bytes).
Frame EncodeTraceResponse(uint64_t request_id, const obs::SpanBatch& batch);
Result<obs::SpanBatch> DecodeTraceResponse(const Frame& frame);

}  // namespace snorkel

#endif  // SNORKEL_NET_WIRE_H_
