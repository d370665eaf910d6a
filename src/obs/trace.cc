#include "obs/trace.h"

#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <random>
#include <utility>

namespace snorkel {
namespace obs {

namespace {

// -------------------------------------------------------------- clock seam

std::atomic<uint64_t (*)()> g_clock_override{nullptr};

uint64_t RealNowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// ------------------------------------------------------------------- state

std::atomic<bool> g_tracing_enabled{false};

thread_local TraceContext t_context;

// Completed spans buffered per thread; flushed into the global ring when
// the outermost span on the thread closes. `depth` counts open TraceSpans.
struct ThreadSpanBuffer {
  std::vector<Span> spans;
  int depth = 0;
};
thread_local ThreadSpanBuffer t_buffer;

// Process-global bounded ring of completed spans.
struct SpanRing {
  std::mutex mu;
  std::deque<Span> spans;
  size_t capacity = 16384;
  std::atomic<uint64_t> dropped{0};
};

SpanRing& Ring() {
  static SpanRing* ring = new SpanRing();
  return *ring;
}

std::mutex g_label_mu;
std::string g_process_label;  // empty => "pid-<pid>"

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void AppendToThreadBuffer(Span span) {
  t_buffer.spans.push_back(std::move(span));
  if (t_buffer.depth == 0 || t_buffer.spans.size() >= 256) {
    FlushThreadSpans();
  }
}

}  // namespace

uint64_t NowNanos() {
  uint64_t (*fn)() = g_clock_override.load(std::memory_order_acquire);
  return fn ? fn() : RealNowNanos();
}

void SetClockForTest(uint64_t (*clock_fn)()) {
  g_clock_override.store(clock_fn, std::memory_order_release);
}

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t MintId() {
  static std::atomic<uint64_t> counter{[]() {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }()};
  uint64_t id = 0;
  while (id == 0) {
    id = SplitMix64(counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

TraceContext CurrentTraceContext() { return t_context; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) : saved_(t_context) {
  t_context = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { t_context = saved_; }

TraceSpan::TraceSpan(const char* name) {
  if (!t_context.valid()) return;
  active_ = true;
  span_.trace_id = t_context.trace_id;
  span_.span_id = MintId();
  span_.parent_id = t_context.parent_span;
  span_.name = name;
  span_.start_ns = NowNanos();
  saved_parent_ = t_context.parent_span;
  t_context.parent_span = span_.span_id;
  ++t_buffer.depth;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  span_.end_ns = NowNanos();
  t_context.parent_span = saved_parent_;
  --t_buffer.depth;
  AppendToThreadBuffer(std::move(span_));
}

void TraceSpan::Annotate(const std::string& text) {
  if (!active_) return;
  if (!span_.annotation.empty()) span_.annotation += ' ';
  span_.annotation += text;
}

uint64_t EmitSpan(const TraceContext& ctx, const char* name,
                  uint64_t start_ns, uint64_t end_ns,
                  const std::string& annotation) {
  if (!ctx.valid()) return 0;
  Span span;
  span.trace_id = ctx.trace_id;
  span.span_id = MintId();
  span.parent_id = ctx.parent_span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.annotation = annotation;
  const uint64_t id = span.span_id;
  AppendToThreadBuffer(std::move(span));
  return id;
}

void FlushThreadSpans() {
  if (t_buffer.spans.empty()) return;
  SpanRing& ring = Ring();
  std::lock_guard<std::mutex> lock(ring.mu);
  for (Span& span : t_buffer.spans) {
    if (ring.spans.size() >= ring.capacity) {
      ring.spans.pop_front();
      ring.dropped.fetch_add(1, std::memory_order_relaxed);
    }
    ring.spans.push_back(std::move(span));
  }
  t_buffer.spans.clear();
}

std::vector<Span> CollectSpans(uint64_t trace_id, bool drain) {
  FlushThreadSpans();
  SpanRing& ring = Ring();
  std::lock_guard<std::mutex> lock(ring.mu);
  std::vector<Span> out;
  if (drain) {
    std::deque<Span> kept;
    for (Span& span : ring.spans) {
      if (trace_id == 0 || span.trace_id == trace_id) {
        out.push_back(std::move(span));
      } else {
        kept.push_back(std::move(span));
      }
    }
    ring.spans.swap(kept);
  } else {
    for (const Span& span : ring.spans) {
      if (trace_id == 0 || span.trace_id == trace_id) out.push_back(span);
    }
  }
  return out;
}

uint64_t DroppedSpans() {
  return Ring().dropped.load(std::memory_order_relaxed);
}

void SetSpanRingCapacityForTest(size_t capacity) {
  SpanRing& ring = Ring();
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.capacity = capacity == 0 ? 1 : capacity;
  ring.spans.clear();
}

void SetProcessLabel(const std::string& label) {
  std::lock_guard<std::mutex> lock(g_label_mu);
  g_process_label = label;
}

std::string ProcessLabel() {
  std::lock_guard<std::mutex> lock(g_label_mu);
  if (!g_process_label.empty()) return g_process_label;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pid-%d", static_cast<int>(getpid()));
  return buf;
}

}  // namespace obs
}  // namespace snorkel
