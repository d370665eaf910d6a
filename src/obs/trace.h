#ifndef SNORKEL_OBS_TRACE_H_
#define SNORKEL_OBS_TRACE_H_

// Distributed request tracing for the serving fabric.
//
// A 64-bit trace id is minted at the router when tracing is enabled and
// propagated over the wire in the `TRAC` request section; each process
// records named stage spans (placement, backoff, socket send/recv, decode,
// corpus intern, queue wait, LF apply, inference, encode) against that id.
// Spans accumulate in a per-thread buffer — no locks on the hot path — and
// are flushed into one bounded process-global ring when the root span of a
// request completes (or explicitly, by fan-out and worker threads). The ring
// is drained over the kTraceRequest RPC and stitched across processes by
// tools/trace_dump.
//
// All timestamps come from NowNanos(), a CLOCK_MONOTONIC read behind one
// settable seam (SetClockForTest) so tests and the chaos harness can pin
// time. CLOCK_MONOTONIC is system-wide on Linux, so spans recorded by a
// client and a server process on the same host stitch directly.

#include <cstdint>
#include <string>
#include <vector>

namespace snorkel {
namespace obs {

// -------------------------------------------------------------- clock seam

/// Monotonic nanoseconds since an arbitrary (boot-time) epoch.
uint64_t NowNanos();

/// Replaces the clock used by NowNanos / spans. Pass nullptr to restore the
/// real CLOCK_MONOTONIC. Test-only; not synchronized with in-flight spans.
void SetClockForTest(uint64_t (*clock_fn)());

// ------------------------------------------------------------ trace switch

/// When disabled (the default) routers mint no trace ids, so TraceSpan
/// construction on every downstream hot path reduces to one thread-local
/// load and a branch. Servers honor an incoming TRAC section regardless —
/// enabling tracing is purely a client/router-side decision.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// Non-zero random 64-bit id (trace ids and span ids share the generator).
uint64_t MintId();

// ------------------------------------------------------------ span records

/// One completed stage. `parent_id == 0` marks a root span.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::string annotation;  // free-form "key=value key=value" detail
};

// ------------------------------------------------------------ propagation

/// The ambient trace identity of the current thread. `parent_span` is the
/// innermost open TraceSpan's id; new spans attach under it.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
};

/// Thread-local ambient context (zero => untraced).
TraceContext CurrentTraceContext();

/// Installs `ctx` as the current thread's context for the scope's lifetime
/// and restores the previous one after — used to carry a request's identity
/// onto worker / fan-out threads.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// RAII stage span. Inert (near-zero cost) when the current thread has no
/// trace context. While open it becomes the parent of nested spans on this
/// thread; on destruction it records [start, now] into the thread buffer
/// and, if it was the outermost span on the thread, flushes to the ring.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }
  uint64_t span_id() const { return span_.span_id; }
  /// Appends detail text (space-separated) to the span's annotation.
  void Annotate(const std::string& text);

 private:
  bool active_ = false;
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// Records an already-timed span (used where the trace id is only known
/// after the work happened, e.g. the server-side decode of the very frame
/// that carries the TRAC section, or queue wait measured at dequeue).
/// Returns the minted span id (0 when `ctx` is invalid).
uint64_t EmitSpan(const TraceContext& ctx, const char* name,
                  uint64_t start_ns, uint64_t end_ns,
                  const std::string& annotation = std::string());

// -------------------------------------------------------- buffers / export

/// Moves this thread's completed spans into the process-global ring. Called
/// automatically when a root span closes; call explicitly before a fan-out
/// or worker thread signals completion so the drain sees its spans.
void FlushThreadSpans();

/// Returns ring spans with the given trace id (0 matches all), oldest
/// first. `drain` removes the returned spans from the ring (the
/// kTraceRequest RPC drains).
std::vector<Span> CollectSpans(uint64_t trace_id, bool drain);

/// Spans discarded because the ring was full (oldest-first eviction).
uint64_t DroppedSpans();

/// Resizes the global ring (test hook; default 16384 spans). Clears it.
void SetSpanRingCapacityForTest(size_t capacity);

/// Label identifying this process in exported spans / stitched traces
/// (e.g. "router", "shard-0"). Defaults to "pid-<pid>".
void SetProcessLabel(const std::string& label);
std::string ProcessLabel();

}  // namespace obs
}  // namespace snorkel

#endif  // SNORKEL_OBS_TRACE_H_
