// Unit tests for the observability subsystem (src/obs): metrics instruments
// and registry, histogram quantile edge cases, the Prometheus renderer, the
// tracing runtime (context propagation, span buffers, the bounded ring),
// and the span wire codec + Chrome trace-event export.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace snorkel {
namespace obs {
namespace {

// ------------------------------------------------------- histogram edges --

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h("h", LatencyBucketsMs());
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Quantile(0.99), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
  EXPECT_EQ(snap.max, 0.0);
}

TEST(HistogramTest, SingleObservationPinsEveryQuantileNearIt) {
  Histogram h("h", LatencyBucketsMs());
  h.Observe(3.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, 3.0);
  EXPECT_EQ(snap.Mean(), 3.0);
  // One sample: every quantile interpolates inside its bucket (2, 4] and is
  // clamped to the observed max.
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GT(snap.Quantile(q), 2.0) << "q=" << q;
    EXPECT_LE(snap.Quantile(q), 3.0) << "q=" << q;
  }
}

TEST(HistogramTest, AllSamplesInOneBucketInterpolateWithinItsEdges) {
  Histogram h("h", {1.0, 10.0, 100.0});
  for (int i = 0; i < 1000; ++i) h.Observe(5.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.counts[1], 1000u);
  double p50 = snap.Quantile(0.5);
  double p99 = snap.Quantile(0.99);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 5.0);  // Clamped by max, never past it.
  EXPECT_LE(p99, 5.0);
  EXPECT_LE(p50, p99);
  EXPECT_EQ(snap.max, 5.0);
}

TEST(HistogramTest, OverflowBucketInterpolatesTowardMaxAndStaysFinite) {
  Histogram h("h", {1.0, 2.0});
  for (int i = 0; i < 100; ++i) h.Observe(1000.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.counts[2], 100u);
  double p99 = snap.Quantile(0.99);
  EXPECT_GT(p99, 2.0);
  EXPECT_LE(p99, 1000.0);
}

TEST(HistogramTest, BoundsAreSortedAndDeduplicated) {
  Histogram h("h", {10.0, 1.0, 10.0, 5.0});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 5.0, 10.0}));
}

TEST(HistogramTest, MergeSumsPopulationsAndRejectsMismatchedBounds) {
  Histogram a("a", {1.0, 2.0});
  Histogram b("b", {1.0, 2.0});
  a.Observe(0.5);
  a.Observe(5.0);
  b.Observe(1.5);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[1], 1u);
  EXPECT_EQ(merged.counts[2], 1u);
  EXPECT_DOUBLE_EQ(merged.sum, 7.0);
  EXPECT_EQ(merged.max, 5.0);

  // An empty snapshot adopts the other's bounds wholesale.
  HistogramSnapshot empty;
  empty.Merge(b.Snapshot());
  EXPECT_EQ(empty.count, 1u);
  EXPECT_EQ(empty.bounds, b.Snapshot().bounds);

  // Mismatched bounds must NOT merge wrong — the merge is a no-op.
  Histogram c("c", {10.0, 20.0});
  c.Observe(15.0);
  HistogramSnapshot guarded = a.Snapshot();
  guarded.Merge(c.Snapshot());
  EXPECT_EQ(guarded.count, 2u);
}

TEST(HistogramTest, ConcurrentObserveLosesNothing) {
  Histogram h("h", LatencyBucketsMs());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(1.5);
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, 1.5 * kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

// ---------------------------------------------------------------- registry --

TEST(MetricsRegistryTest, SameNameInstrumentsSumAndExpiredOnesPrune) {
  MetricsRegistry registry;
  auto c1 = registry.CreateCounter("requests_total");
  auto c2 = registry.CreateCounter("requests_total");
  c1->Increment(3);
  c2->Increment(4);
  auto samples = registry.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "requests_total");
  EXPECT_EQ(samples[0].value, 7.0);

  // Dropping an owner removes its contribution at the next Collect — the
  // registry holds weak_ptrs only.
  c2.reset();
  samples = registry.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].value, 3.0);
}

TEST(MetricsRegistryTest, CounterAndGaugeSharingANameStayDistinct) {
  MetricsRegistry registry;
  auto c = registry.CreateCounter("x");
  auto g = registry.CreateGauge("x");
  c->Increment(1);
  g->Set(9.0);
  auto samples = registry.Collect();
  EXPECT_EQ(samples.size(), 2u);
}

TEST(MetricsRegistryTest, CallbacksExportForeignValuesUntilUnregistered) {
  MetricsRegistry registry;
  std::atomic<uint64_t> foreign{41};
  uint64_t token = registry.RegisterCallback(
      "foreign_total", MetricType::kCounter,
      [&foreign] { return static_cast<double>(foreign.load()); });
  foreign.store(42);
  auto samples = registry.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].value, 42.0);
  registry.UnregisterCallback(token);
  EXPECT_TRUE(registry.Collect().empty());
}

TEST(MetricsRegistryTest, HistogramsWithSameNameMergeInCollect) {
  MetricsRegistry registry;
  auto h1 = registry.CreateHistogram("latency_ms", LatencyBucketsMs());
  auto h2 = registry.CreateHistogram("latency_ms", LatencyBucketsMs());
  h1->Observe(1.0);
  h2->Observe(100.0);
  auto samples = registry.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].histogram.count, 2u);
  EXPECT_EQ(samples[0].histogram.max, 100.0);
}

TEST(MetricsRegistryTest, PrometheusTextHasTypesBucketsSumAndCount) {
  MetricsRegistry registry;
  auto c = registry.CreateCounter("snorkel_test_requests_total");
  auto g = registry.CreateGauge("snorkel_test_depth");
  auto h = registry.CreateHistogram("snorkel_test_latency_ms", {1.0, 2.0});
  c->Increment(5);
  g->Set(2.5);
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(99.0);
  std::string text = RenderPrometheusText(registry.Collect());
  EXPECT_NE(text.find("# TYPE snorkel_test_requests_total counter\n"
                      "snorkel_test_requests_total 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("snorkel_test_depth 2.500000\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE snorkel_test_latency_ms histogram"),
            std::string::npos);
  // Bucket counts are CUMULATIVE and +Inf equals _count.
  EXPECT_NE(text.find("snorkel_test_latency_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("snorkel_test_latency_ms_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("snorkel_test_latency_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  // 101.0 is integral, so it renders without a mantissa.
  EXPECT_NE(text.find("snorkel_test_latency_ms_sum 101\n"),
            std::string::npos);
  EXPECT_NE(text.find("snorkel_test_latency_ms_count 3\n"),
            std::string::npos);
}

// ----------------------------------------------------------------- tracing --

/// Deterministic clock for span timing; SetClockForTest(nullptr) restores.
uint64_t g_fake_now = 0;
uint64_t FakeClock() { return g_fake_now; }

struct TraceFixture : ::testing::Test {
  void SetUp() override {
    SetTracingEnabled(false);
    SetSpanRingCapacityForTest(16384);  // Also clears the ring.
    g_fake_now = 1'000'000'000;
    SetClockForTest(&FakeClock);
  }
  void TearDown() override {
    SetClockForTest(nullptr);
    SetTracingEnabled(false);
    SetSpanRingCapacityForTest(16384);
  }
};

TEST_F(TraceFixture, UntracedThreadRecordsNothing) {
  {
    TraceSpan span("stage");
    EXPECT_FALSE(span.active());
    g_fake_now += 1000;
  }
  FlushThreadSpans();
  EXPECT_TRUE(CollectSpans(0, /*drain=*/true).empty());
}

TEST_F(TraceFixture, NestedSpansRecordParentChainAndFakeClockTimes) {
  TraceContext ctx;
  ctx.trace_id = 77;
  ScopedTraceContext scope(ctx);
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    TraceSpan outer("outer");
    ASSERT_TRUE(outer.active());
    outer_id = outer.span_id();
    g_fake_now += 5'000'000;  // 5 ms.
    {
      TraceSpan inner("inner");
      inner_id = inner.span_id();
      inner.Annotate("rows=3");
      inner.Annotate("cache=hit");
      g_fake_now += 2'000'000;  // 2 ms.
    }
  }
  std::vector<Span> spans = CollectSpans(77, /*drain=*/true);
  ASSERT_EQ(spans.size(), 2u);
  // Inner closed first; both carry the ambient trace id.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[0].span_id, inner_id);
  EXPECT_EQ(spans[0].annotation, "rows=3 cache=hit");
  EXPECT_EQ(spans[0].end_ns - spans[0].start_ns, 2'000'000u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[1].end_ns - spans[1].start_ns, 7'000'000u);
}

TEST_F(TraceFixture, ScopedContextRestoresOnExit) {
  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    TraceContext ctx;
    ctx.trace_id = 5;
    ctx.parent_span = 6;
    ScopedTraceContext scope(ctx);
    EXPECT_EQ(CurrentTraceContext().trace_id, 5u);
    EXPECT_EQ(CurrentTraceContext().parent_span, 6u);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST_F(TraceFixture, EmitSpanRecordsRetroactivelyAndIgnoresInvalidContext) {
  TraceContext none;
  EXPECT_EQ(EmitSpan(none, "dead", 1, 2), 0u);
  TraceContext ctx;
  ctx.trace_id = 9;
  ctx.parent_span = 4;
  uint64_t id = EmitSpan(ctx, "queue_wait", 100, 250, "depth=7");
  EXPECT_NE(id, 0u);
  std::vector<Span> spans = CollectSpans(9, /*drain=*/true);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, id);
  EXPECT_EQ(spans[0].parent_id, 4u);
  EXPECT_EQ(spans[0].start_ns, 100u);
  EXPECT_EQ(spans[0].end_ns, 250u);
  EXPECT_EQ(spans[0].annotation, "depth=7");
}

TEST_F(TraceFixture, CollectFiltersByTraceIdAndPeekKeepsSpans) {
  TraceContext a;
  a.trace_id = 1;
  TraceContext b;
  b.trace_id = 2;
  EmitSpan(a, "a1", 10, 20);
  EmitSpan(b, "b1", 10, 20);
  EmitSpan(a, "a2", 30, 40);

  std::vector<Span> peeked = CollectSpans(1, /*drain=*/false);
  ASSERT_EQ(peeked.size(), 2u);
  EXPECT_EQ(peeked[0].name, "a1");
  EXPECT_EQ(peeked[1].name, "a2");
  // Peek left them in place; drain removes ONLY trace 1.
  EXPECT_EQ(CollectSpans(1, /*drain=*/true).size(), 2u);
  EXPECT_TRUE(CollectSpans(1, /*drain=*/true).empty());
  EXPECT_EQ(CollectSpans(0, /*drain=*/true).size(), 1u);  // b1 survives.
}

TEST_F(TraceFixture, RingEvictsOldestAndCountsDrops) {
  SetSpanRingCapacityForTest(4);
  const uint64_t dropped_before = DroppedSpans();
  TraceContext ctx;
  ctx.trace_id = 3;
  for (int i = 0; i < 10; ++i) {
    EmitSpan(ctx, ("s" + std::to_string(i)).c_str(), i, i + 1);
  }
  std::vector<Span> spans = CollectSpans(3, /*drain=*/true);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "s6");  // Oldest six evicted.
  EXPECT_EQ(spans.back().name, "s9");
  EXPECT_EQ(DroppedSpans() - dropped_before, 6u);
}

TEST_F(TraceFixture, MintedIdsAreNonZeroAndTracingFlagGatesRoots) {
  EXPECT_NE(MintId(), 0u);
  EXPECT_NE(MintId(), MintId());
  EXPECT_FALSE(TracingEnabled());
  SetTracingEnabled(true);
  EXPECT_TRUE(TracingEnabled());
}

// ------------------------------------------------------------- span codec --

TEST_F(TraceFixture, SpanBatchRoundTripsAndToleratesTrailingBytes) {
  SpanBatch batch;
  batch.process = "shard-1234";
  Span span;
  span.trace_id = 42;
  span.span_id = 7;
  span.parent_id = 3;
  span.name = "server.label";
  span.start_ns = 100;
  span.end_ns = 900;
  span.annotation = "rows=12";
  batch.spans.push_back(span);
  batch.spans.push_back(Span{41, 8, 0, "other", 50, 60, ""});

  std::string payload = EncodeSpansPayload(batch);
  auto decoded = DecodeSpansPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->process, "shard-1234");
  ASSERT_EQ(decoded->spans.size(), 2u);
  EXPECT_EQ(decoded->spans[0].trace_id, 42u);
  EXPECT_EQ(decoded->spans[0].name, "server.label");
  EXPECT_EQ(decoded->spans[0].annotation, "rows=12");
  EXPECT_EQ(decoded->spans[1].span_id, 8u);

  // Appended fields from a future peer must not break this decoder.
  auto extended = DecodeSpansPayload(payload + "future-bytes");
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->spans.size(), 2u);

  // Truncation is a typed error, not UB.
  auto truncated = DecodeSpansPayload(
      std::string_view(payload).substr(0, payload.size() / 2));
  EXPECT_FALSE(truncated.ok());
}

TEST_F(TraceFixture, ChromeTraceJsonEmitsProcessesLanesAndEscapes) {
  SpanBatch router;
  router.process = "router \"r1\"";  // Quote must be escaped in JSON.
  uint64_t root = 90;
  router.spans.push_back(
      Span{5, root, 0, "router.request", 1'000'000, 9'000'000, ""});
  SpanBatch shard;
  shard.process = "shard-1";
  shard.spans.push_back(
      Span{5, 91, root, "server.label", 2'000'000, 8'000'000, "rows=3"});
  // A different trace id filtered out when trace_id is pinned.
  shard.spans.push_back(Span{6, 92, 0, "noise", 0, 1, ""});
  // Span names pass through the same JSON escaping as process names and
  // survive past the event formatter's scratch buffer without truncation.
  std::string long_name = "hop \"x\"\\" + std::string(300, 'y');
  shard.spans.push_back(Span{5, 93, root, long_name, 3'000'000, 4'000'000,
                             ""});

  std::string json = ChromeTraceJson({router, shard}, /*trace_id=*/5);
  EXPECT_NE(json.find("\"router \\\"r1\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hop \\\"x\\\"\\\\" + std::string(300, 'y') + "\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shard-1\""), std::string::npos);
  EXPECT_NE(json.find("\"router.request\""), std::string::npos);
  EXPECT_NE(json.find("\"server.label\""), std::string::npos);
  EXPECT_EQ(json.find("\"noise\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Microsecond conversion: 1'000'000 ns start -> ts 1000.
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos) << json;
}

TEST_F(TraceFixture, ProcessLabelDefaultsToPidAndIsSettable) {
  std::string original = ProcessLabel();
  EXPECT_FALSE(original.empty());
  SetProcessLabel("test-proc");
  EXPECT_EQ(ProcessLabel(), "test-proc");
  SetProcessLabel(original);
}

}  // namespace
}  // namespace obs
}  // namespace snorkel
