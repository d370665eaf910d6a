#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <regex>
#include <set>
#include <thread>

#include "util/adam.h"
#include "util/bounded_queue.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace snorkel {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad n");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad n");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad n");
}

TEST(StatusTest, AllFactoryMethodsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(3), 3);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

Status FailsThrough() {
  SNORKEL_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------ Math --

TEST(MathTest, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(1.0) + Sigmoid(-1.0), 1.0, 1e-12);
}

TEST(MathTest, SigmoidNoOverflowAtExtremes) {
  EXPECT_TRUE(std::isfinite(Sigmoid(1e6)));
  EXPECT_TRUE(std::isfinite(Sigmoid(-1e6)));
}

TEST(MathTest, LogAddExp) {
  EXPECT_NEAR(LogAddExp(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-12);
  EXPECT_NEAR(LogAddExp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogAddExp(-1000.0, 0.0), 0.0, 1e-9);
}

TEST(MathTest, LogSumExpMatchesDirectForSmallValues) {
  std::vector<double> v = {0.1, 0.2, 0.3};
  double direct = std::log(std::exp(0.1) + std::exp(0.2) + std::exp(0.3));
  EXPECT_NEAR(LogSumExp(v), direct, 1e-12);
}

TEST(MathTest, SoftmaxSumsToOneAndIsShiftInvariant) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {1001.0, 1002.0, 1003.0};
  SoftmaxInPlace(&a);
  SoftmaxInPlace(&b);
  double sum = a[0] + a[1] + a[2];
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  EXPECT_LT(a[0], a[1]);
  EXPECT_LT(a[1], a[2]);
}

TEST(MathTest, LogitInvertsSigmoid) {
  for (double p : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(Sigmoid(Logit(p)), p, 1e-9);
  }
}

TEST(MathTest, LogitClipsBoundaries) {
  EXPECT_TRUE(std::isfinite(Logit(0.0)));
  EXPECT_TRUE(std::isfinite(Logit(1.0)));
}

TEST(MathTest, SoftThreshold) {
  EXPECT_DOUBLE_EQ(SoftThreshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-0.5, 1.0), 0.0);
}

TEST(MathTest, MeanVarianceDotAxpyNorm) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(Variance(v), 5.0 / 3.0, 1e-12);
  std::vector<double> a = {1.0, 0.0};
  std::vector<double> b = {2.0, 5.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 2.0);
  Axpy(2.0, a, &b);
  EXPECT_DOUBLE_EQ(b[0], 4.0);
  EXPECT_DOUBLE_EQ(b[1], 5.0);
  EXPECT_DOUBLE_EQ(Norm2(std::vector<double>{3.0, 4.0}), 5.0);
}

TEST(MathTest, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({1.0}), 0.0);
}

// ---------------------------------------------------------------- Random --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(3);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(4);
  std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    size_t c = rng.Categorical(w);
    ASSERT_LT(c, 2u);
    ones += c == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kTrials, 0.75, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::multiset<int> ms(v.begin(), v.end());
  EXPECT_EQ(ms, (std::multiset<int>{1, 2, 3, 4, 5}));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng child = a.Fork();
  // The child stream should not be identical to a fresh parent-seeded one.
  Rng b(7);
  (void)b.Uniform();  // Advance once as Fork() did.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (child.Uniform() != b.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------- String --

TEST(StringTest, SplitBasic) {
  auto pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
}

TEST(StringTest, SplitEmptyInput) {
  auto pieces = Split("", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "");
}

TEST(StringTest, SplitWhitespaceDiscardsEmpties) {
  auto pieces = SplitWhitespace("  hello   world \t x\n");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "hello");
  EXPECT_EQ(pieces[2], "x");
}

TEST(StringTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringTest, ToLowerAndTrimAndContains) {
  EXPECT_EQ(ToLower("AbC9!"), "abc9!");
  EXPECT_EQ(Trim("  x y \n"), "x y");
  EXPECT_TRUE(Contains("magnesium causes paralysis", "causes"));
  EXPECT_FALSE(Contains("abc", "z"));
}

TEST(StringTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, Fnv1aIsStableAndDistinguishes) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ----------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

// ---------------------------------------------------------- BoundedQueue --

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> queue(BoundedQueueOptions{4, 0, 0});
  using PushResult = BoundedQueue<int>::PushResult;
  constexpr auto kLane = BoundedQueue<int>::Lane::kInteractive;
  std::vector<int> shed;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(queue.Push(std::move(i), 0, kLane), PushResult::kOk);
  }
  EXPECT_EQ(queue.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto item = queue.Pop(&shed);
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(queue.TryPop(), std::nullopt);
}

TEST(BoundedQueueTest, TryPushRejectsWhenFullWithoutConsuming) {
  BoundedQueue<std::unique_ptr<int>> queue(BoundedQueueOptions{1, 0, 0});
  using PushResult = BoundedQueue<std::unique_ptr<int>>::PushResult;
  constexpr auto kLane =
      BoundedQueue<std::unique_ptr<int>>::Lane::kInteractive;
  std::vector<std::unique_ptr<int>> shed;
  auto first = std::make_unique<int>(1);
  EXPECT_EQ(queue.TryPush(std::move(first), 0, kLane, &shed), PushResult::kOk);

  // kQueueFull — the typed backpressure rejection — must leave the item
  // with the caller, who still owns the associated work.
  auto second = std::make_unique<int>(2);
  EXPECT_EQ(queue.TryPush(std::move(second), 0, kLane, &shed),
            PushResult::kQueueFull);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, 2);

  queue.Close();
  EXPECT_EQ(queue.TryPush(std::move(second), 0, kLane, &shed),
            PushResult::kClosed);
  ASSERT_NE(second, nullptr);
}

TEST(BoundedQueueTest, CloseUnblocksProducerAndDrainsConsumers) {
  BoundedQueue<int> queue(BoundedQueueOptions{1, 0, 0});
  using PushResult = BoundedQueue<int>::PushResult;
  constexpr auto kLane = BoundedQueue<int>::Lane::kInteractive;
  std::vector<int> shed;
  EXPECT_EQ(queue.Push(1, 0, kLane), PushResult::kOk);

  // A producer blocked on the full queue must wake with kClosed.
  std::atomic<int> blocked_result{-1};
  std::thread producer([&] {
    int item = 2;
    blocked_result.store(
        static_cast<int>(queue.Push(std::move(item), 0, kLane)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  producer.join();
  EXPECT_EQ(blocked_result.load(), static_cast<int>(PushResult::kClosed));

  // Items admitted before Close still drain; then Pop signals exit.
  auto drained = queue.Pop(&shed);
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(*drained, 1);
  EXPECT_EQ(queue.Pop(&shed), std::nullopt);
}

TEST(BoundedQueueTest, CloseWakesConsumersBlockedOnEmptyQueue) {
  // The shutdown path the ShardServer relies on: workers blocked in Pop()
  // on an EMPTY queue must wake with nullopt when the acceptor closes the
  // queue — no item ever arrives to nudge them.
  BoundedQueue<int> queue(BoundedQueueOptions{4, 0, 0});
  constexpr int kWaiters = 3;
  std::atomic<int> woken{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      std::vector<int> shed;
      auto item = queue.Pop(&shed);
      if (!item.has_value()) woken.fetch_add(1);
    });
  }
  // Give every waiter time to actually block inside Pop.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  queue.Close();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woken.load(), kWaiters);
  EXPECT_TRUE(queue.closed());

  // Push after close is the typed kClosed, never a silent enqueue.
  using PushResult = BoundedQueue<int>::PushResult;
  constexpr auto kLane = BoundedQueue<int>::Lane::kInteractive;
  std::vector<int> shed;
  int late = 9;
  EXPECT_EQ(queue.Push(std::move(late), 0, kLane), PushResult::kClosed);
  EXPECT_EQ(queue.TryPush(std::move(late), 0, kLane, &shed),
            PushResult::kClosed);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, ConcurrentProducersConsumersDeliverExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> queue(BoundedQueueOptions{8, 0, 0});
  using PushResult = BoundedQueue<int>::PushResult;
  constexpr auto kLane = BoundedQueue<int>::Lane::kInteractive;

  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        ASSERT_EQ(queue.Push(std::move(item), 0, kLane), PushResult::kOk);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> shed;
      while (auto item = queue.Pop(&shed)) seen[*item]++;
    });
  }
  for (auto& t : threads) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(BoundedQueueTest, CostBudgetBoundsAdmission) {
  using Queue = BoundedQueue<int>;
  using PushResult = Queue::PushResult;
  Queue queue(BoundedQueueOptions{/*capacity=*/8, /*cost_budget=*/10,
                                  /*sojourn_target_ms=*/0});
  std::vector<int> shed;

  // An empty queue admits even an over-budget item (otherwise a single
  // large request could never be served at all).
  int big = 1;
  EXPECT_EQ(queue.TryPush(std::move(big), /*cost=*/12, Queue::Lane::kBulk,
                          &shed),
            PushResult::kOk);
  EXPECT_EQ(queue.cost_used(), 12u);
  ASSERT_TRUE(queue.Pop(&shed).has_value());
  EXPECT_EQ(queue.cost_used(), 0u);

  // Within budget admits; the push that would exceed it is rejected typed,
  // and a BULK arrival never displaces anything.
  int a = 2, b = 3;
  EXPECT_EQ(queue.TryPush(std::move(a), 6, Queue::Lane::kBulk, &shed),
            PushResult::kOk);
  EXPECT_EQ(queue.TryPush(std::move(b), 6, Queue::Lane::kBulk, &shed),
            PushResult::kQueueFull);
  EXPECT_EQ(b, 3);  // Not consumed.
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(queue.cost_used(), 6u);
}

TEST(BoundedQueueTest, InteractiveDisplacesBulkOldestFirst) {
  using Queue = BoundedQueue<int>;
  using PushResult = Queue::PushResult;
  Queue queue(BoundedQueueOptions{8, /*cost_budget=*/10, 0});
  std::vector<int> shed;

  int bulk1 = 10, bulk2 = 11, interactive = 20;
  EXPECT_EQ(queue.TryPush(std::move(bulk1), 4, Queue::Lane::kBulk, &shed),
            PushResult::kOk);
  EXPECT_EQ(queue.TryPush(std::move(bulk2), 4, Queue::Lane::kBulk, &shed),
            PushResult::kOk);
  // 8 + 8 > 10: the interactive arrival displaces queued bulk work,
  // oldest first, until it fits — and only as much as needed.
  EXPECT_EQ(
      queue.TryPush(std::move(interactive), 8, Queue::Lane::kInteractive,
                    &shed),
      PushResult::kOk);
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0], 10);
  EXPECT_EQ(shed[1], 11);
  // The interactive item is served (it is the only one left).
  auto popped = queue.Pop(&shed);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 20);
}

TEST(BoundedQueueTest, NoVainSheddingWhenDisplacementCannotHelp) {
  using Queue = BoundedQueue<int>;
  using PushResult = Queue::PushResult;
  Queue queue(BoundedQueueOptions{8, /*cost_budget=*/10, 0});
  std::vector<int> shed;

  // Queue holds interactive cost 8 and bulk cost 1. A new interactive
  // arrival of cost 8 cannot fit even if ALL bulk is displaced
  // (8 + 8 > 10) — it must be rejected WITHOUT shedding the bulk item.
  int i1 = 1, b1 = 2, i2 = 3;
  EXPECT_EQ(queue.TryPush(std::move(i1), 8, Queue::Lane::kInteractive, &shed),
            PushResult::kOk);
  EXPECT_EQ(queue.TryPush(std::move(b1), 1, Queue::Lane::kBulk, &shed),
            PushResult::kOk);
  EXPECT_EQ(queue.TryPush(std::move(i2), 8, Queue::Lane::kInteractive, &shed),
            PushResult::kQueueFull);
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(queue.cost_used(), 9u);
  // Interactive never displaces interactive: same rejection with no bulk.
  ASSERT_TRUE(queue.Pop(&shed).has_value());  // bulk? no — interactive first.
}

TEST(BoundedQueueTest, InteractiveLaneServedBeforeBulk) {
  using Queue = BoundedQueue<int>;
  using PushResult = Queue::PushResult;
  Queue queue(BoundedQueueOptions{8, 0, 0});
  std::vector<int> shed;
  int bulk = 1, interactive = 2;
  EXPECT_EQ(queue.TryPush(std::move(bulk), 1, Queue::Lane::kBulk, &shed),
            PushResult::kOk);
  EXPECT_EQ(
      queue.TryPush(std::move(interactive), 1, Queue::Lane::kInteractive,
                    &shed),
      PushResult::kOk);
  auto first = queue.Pop(&shed);
  auto second = queue.Pop(&shed);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, 2);  // Interactive jumps the earlier bulk item.
  EXPECT_EQ(*second, 1);
}

TEST(BoundedQueueTest, CoDelShedsStaleBulkOnCloseDrainButNeverInteractive) {
  using Queue = BoundedQueue<int>;
  using PushResult = Queue::PushResult;
  Queue queue(BoundedQueueOptions{8, 0, /*sojourn_target_ms=*/5});
  std::vector<int> shed;
  int bulk = 1, interactive = 2;
  EXPECT_EQ(queue.TryPush(std::move(bulk), 1, Queue::Lane::kBulk, &shed),
            PushResult::kOk);
  EXPECT_EQ(
      queue.TryPush(std::move(interactive), 1, Queue::Lane::kInteractive,
                    &shed),
      PushResult::kOk);
  // Both items age past 2× the sojourn target.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  // Interactive is served despite its age (its own deadline bounds it) —
  // CoDel only sheds bulk.
  auto popped = queue.Pop(&shed);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 2);
  EXPECT_TRUE(shed.empty());
  // Close-then-drain: the stale bulk item is handed back via `shed`, not
  // silently dropped, and the drained queue reports exit.
  queue.Close();
  EXPECT_EQ(queue.Pop(&shed), std::nullopt);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], 1);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, RetryAfterEstimatePricesBacklogByCalibratedEwma) {
  using Queue = BoundedQueue<int>;
  Queue queue(BoundedQueueOptions{8, /*cost_budget=*/100, 0});
  // Empty queue: the hint is still >= 1 ms so rejections never carry 0.
  EXPECT_GE(queue.EstimateRetryAfterMs(), 1u);
  std::vector<int> shed;
  int item = 1;
  ASSERT_EQ(queue.TryPush(std::move(item), 10, Queue::Lane::kBulk, &shed),
            Queue::PushResult::kOk);
  // First calibration sample: 10 cost units took 50 ms => 5 ms/unit.
  queue.OnServiced(/*cost=*/10, /*elapsed_us=*/50'000);
  // Backlog of 10 units at 5 ms/unit = 50 ms; halved by 2-way parallelism.
  EXPECT_EQ(queue.EstimateRetryAfterMs(/*divisor=*/1), 50u);
  EXPECT_EQ(queue.EstimateRetryAfterMs(/*divisor=*/2), 25u);
}

TEST(BoundedQueueTest, ConcurrentCostedProducersNeverExceedBudget) {
  using Queue = BoundedQueue<int>;
  using PushResult = Queue::PushResult;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  constexpr uint64_t kCost = 3;
  constexpr uint64_t kBudget = 9;
  Queue queue(BoundedQueueOptions{/*capacity=*/64, kBudget, 0});

  std::atomic<bool> over_budget{false};
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<int> shed;
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        // Bulk lane: rejected pushes retry, so every item is eventually
        // admitted exactly once and nothing is displaced.
        while (queue.TryPush(std::move(item), kCost, Queue::Lane::kBulk,
                             &shed) != PushResult::kOk) {
          std::this_thread::yield();
        }
        ASSERT_TRUE(shed.empty());
      }
    });
  }
  std::thread consumer([&] {
    std::vector<int> shed;
    while (auto item = queue.Pop(&shed)) {
      // The admitted cost may transiently hold ONE over-budget item (the
      // empty-queue admission rule) but never stacks two over-budget
      // admissions: with every item costing 3 against budget 9, used cost
      // must stay <= 9.
      if (queue.cost_used() > kBudget) over_budget.store(true);
      seen[*item]++;
    }
  });
  for (auto& t : producers) t.join();
  queue.Close();
  consumer.join();
  EXPECT_FALSE(over_budget.load());
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

// ------------------------------------------------------------ MappedFile --

TEST(MappedFileTest, MapsFileContentsReadOnly) {
  std::string path = ::testing::TempDir() + "/mapped_util.bin";
  const std::string payload("snorkel mapped bytes\0with nul", 29);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(payload.data(), 1, payload.size(), f),
              payload.size());
    std::fclose(f);
  }
  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->view(), std::string_view(payload));
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(file->is_mapped());
#endif
  // Move keeps the view alive and empties the source.
  MappedFile moved = std::move(*file);
  EXPECT_EQ(moved.view(), std::string_view(payload));
  std::remove(path.c_str());
}

TEST(MappedFileTest, MappingOutlivesFileReplacementOnDisk) {
  // The hot-swap guarantee in miniature: a request pinned to the OLD
  // serving generation holds its MappedFile alive while the rollout
  // replaces (and even deletes) the artifact on disk. POSIX keeps the
  // mapped pages valid until the last mapping goes away, so the in-flight
  // request reads the exact old bytes to completion.
  std::string path = ::testing::TempDir() + "/swapped_artifact.bin";
  const std::string v1(1024, 'a');
  const std::string v2(2048, 'b');
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(v1.data(), 1, v1.size(), f), v1.size());
    std::fclose(f);
  }
  auto pinned = MappedFile::Open(path);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();

  // The "store" swaps versions: atomic-rename replacement, as
  // SnapshotStore::Publish does, then the old path even disappears.
  std::string temp = path + ".publish";
  {
    std::FILE* f = std::fopen(temp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(v2.data(), 1, v2.size(), f), v2.size());
    std::fclose(f);
  }
  ASSERT_EQ(std::rename(temp.c_str(), path.c_str()), 0);

  // The pinned mapping still sees v1 bit-for-bit...
  EXPECT_EQ(pinned->view(), std::string_view(v1));
  // ...while a fresh open sees v2.
  auto fresh = MappedFile::Open(path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->view(), std::string_view(v2));

  std::remove(path.c_str());
  EXPECT_EQ(pinned->view(), std::string_view(v1));
  EXPECT_EQ(pinned->size(), v1.size());
}

TEST(MappedFileTest, MissingFileIsNotFoundAndEmptyFileIsEmptyView) {
  auto missing = MappedFile::Open("/nonexistent/snorkel/file.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  std::string path = ::testing::TempDir() + "/empty_util.bin";
  std::fclose(std::fopen(path.c_str(), "wb"));
  auto empty = MappedFile::Open(path);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->size(), 0u);
  std::remove(path.c_str());
}

// -------------------------------------------------------- TablePrinter --

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"Task", "F1"});
  table.AddRow({"Chem", "17.6"});
  table.AddRow({"Radiology", "72.0"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("Task"), std::string::npos);
  EXPECT_NE(out.find("Radiology | 72.0"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("-+-"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table({"A", "B", "C"});
  table.AddRow({"x"});
  EXPECT_NO_FATAL_FAILURE(table.ToString());
}

TEST(TablePrinterTest, CellFormatters) {
  EXPECT_EQ(TablePrinter::Cell(3.14159, 1), "3.1");
  EXPECT_EQ(TablePrinter::Cell(static_cast<int64_t>(42)), "42");
}

// ------------------------------------------------------------------ Adam --

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 + (y + 1)^2.
  std::vector<double> params = {0.0, 0.0};
  AdamOptimizer adam(2, {.learning_rate = 0.1});
  for (int i = 0; i < 500; ++i) {
    std::vector<double> grads = {2.0 * (params[0] - 3.0),
                                 2.0 * (params[1] + 1.0)};
    adam.Step(&params, grads);
  }
  EXPECT_NEAR(params[0], 3.0, 1e-3);
  EXPECT_NEAR(params[1], -1.0, 1e-3);
}

TEST(AdamTest, ResetClearsState) {
  std::vector<double> params = {0.0};
  AdamOptimizer adam(1, {.learning_rate = 0.5});
  adam.Step(&params, {1.0});
  double after_one = params[0];
  adam.Reset();
  params[0] = 0.0;
  adam.Step(&params, {1.0});
  EXPECT_DOUBLE_EQ(params[0], after_one);
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, MeasuresNonNegativeTime) {
  WallTimer timer;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  timer.Restart();
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

// ------------------------------------------------------ fault injection --

/// The registry is process-wide; every test leaves it clean.
struct FaultGuard {
  ~FaultGuard() { fault::DisarmAll(); }
};

TEST(FaultTest, DisarmedSiteIsFreeAndNeverFires) {
  FaultGuard guard;
  EXPECT_FALSE(fault::Armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::Point("never.armed"));
  }
  EXPECT_EQ(fault::SiteInjected("never.armed"), 0u);
}

TEST(FaultTest, FailNthFiresExactlyEveryNth) {
  FaultGuard guard;
  fault::Schedule schedule;
  schedule.kind = fault::Schedule::Kind::kFailNth;
  schedule.n = 3;
  ASSERT_TRUE(fault::Arm("t.nth", schedule).ok());
  EXPECT_TRUE(fault::Armed());
  int fired = 0;
  for (int hit = 1; hit <= 12; ++hit) {
    bool fail = fault::Point("t.nth");
    EXPECT_EQ(fail, hit % 3 == 0) << "hit " << hit;
    if (fail) ++fired;
  }
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(fault::SiteInjected("t.nth"), 4u);
  EXPECT_TRUE(fault::Disarm("t.nth"));
  // Injected counts survive disarm; the schedule does not.
  EXPECT_EQ(fault::SiteInjected("t.nth"), 4u);
  EXPECT_FALSE(fault::Point("t.nth"));
}

TEST(FaultTest, ProbabilityScheduleIsSeededDeterministic) {
  FaultGuard guard;
  fault::Schedule schedule;
  schedule.kind = fault::Schedule::Kind::kFailProbability;
  schedule.probability = 0.3;
  schedule.seed = 7;
  auto run = [&]() -> std::string {
    EXPECT_TRUE(fault::Arm("t.prob", schedule).ok());
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += fault::Point("t.prob") ? '1' : '0';
    }
    fault::Disarm("t.prob");
    return pattern;
  };
  std::string first = run();
  std::string second = run();
  EXPECT_EQ(first, second) << "same seed must reproduce the same faults";
  EXPECT_NE(first.find('1'), std::string::npos);
  EXPECT_NE(first.find('0'), std::string::npos);
}

TEST(FaultTest, MaxHitsAutoDisarmsAndKeepsCounts) {
  FaultGuard guard;
  fault::Schedule schedule;
  schedule.kind = fault::Schedule::Kind::kFailNth;
  schedule.n = 1;
  schedule.max_hits = 2;
  ASSERT_TRUE(fault::Arm("t.max", schedule).ok());
  EXPECT_TRUE(fault::Point("t.max"));
  EXPECT_TRUE(fault::Point("t.max"));
  // Auto-disarmed after 2 injections.
  EXPECT_FALSE(fault::Armed());
  EXPECT_FALSE(fault::Point("t.max"));
  EXPECT_EQ(fault::SiteInjected("t.max"), 2u);
}

TEST(FaultTest, DelayScheduleSleepsButDoesNotFail) {
  FaultGuard guard;
  fault::Schedule schedule;
  schedule.kind = fault::Schedule::Kind::kDelayNth;
  schedule.n = 1;
  schedule.delay_ms = 30;
  ASSERT_TRUE(fault::Arm("t.delay", schedule).ok());
  WallTimer timer;
  EXPECT_FALSE(fault::Point("t.delay"));  // Delays, never fails.
  EXPECT_GE(timer.ElapsedMillis(), 25.0);
  EXPECT_EQ(fault::SiteInjected("t.delay"), 1u);
}

TEST(FaultTest, ParseSpecRoundTripsAndRejectsMalformed) {
  auto nth = fault::ParseSpec("net.send=fail-nth:3");
  ASSERT_TRUE(nth.ok());
  EXPECT_EQ(nth->first, "net.send");
  EXPECT_EQ(nth->second.kind, fault::Schedule::Kind::kFailNth);
  EXPECT_EQ(nth->second.n, 3u);

  auto prob = fault::ParseSpec("x=fail-prob:0.25:7");
  ASSERT_TRUE(prob.ok());
  EXPECT_EQ(prob->second.kind, fault::Schedule::Kind::kFailProbability);
  EXPECT_DOUBLE_EQ(prob->second.probability, 0.25);
  EXPECT_EQ(prob->second.seed, 7u);

  auto delay = fault::ParseSpec("y=delay-nth:2:400");
  ASSERT_TRUE(delay.ok());
  EXPECT_EQ(delay->second.kind, fault::Schedule::Kind::kDelayNth);
  EXPECT_EQ(delay->second.n, 2u);
  EXPECT_EQ(delay->second.delay_ms, 400u);

  auto dprob = fault::ParseSpec("z=delay-prob:0.1:50:9");
  ASSERT_TRUE(dprob.ok());
  EXPECT_EQ(dprob->second.kind, fault::Schedule::Kind::kDelayProbability);
  EXPECT_EQ(dprob->second.delay_ms, 50u);
  EXPECT_EQ(dprob->second.seed, 9u);

  // FormatSpec parses back to the same schedule.
  auto reparsed = fault::ParseSpec(fault::FormatSpec(dprob->first,
                                                     dprob->second));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->second.kind, dprob->second.kind);
  EXPECT_EQ(reparsed->second.delay_ms, dprob->second.delay_ms);

  EXPECT_FALSE(fault::ParseSpec("no-equals").ok());
  EXPECT_FALSE(fault::ParseSpec("=fail-nth:1").ok());
  EXPECT_FALSE(fault::ParseSpec("s=bogus-kind:1").ok());
  EXPECT_FALSE(fault::ParseSpec("s=fail-nth:0").ok());      // n >= 1.
  EXPECT_FALSE(fault::ParseSpec("s=fail-prob:1.5").ok());   // p in [0,1].
}

TEST(FaultTest, BoundedQueueAdmissionSiteInjectsTypedBackpressure) {
  FaultGuard guard;
  BoundedQueue<std::unique_ptr<int>> queue(BoundedQueueOptions{8, 0, 0});
  using PushResult = BoundedQueue<std::unique_ptr<int>>::PushResult;
  constexpr auto kLane =
      BoundedQueue<std::unique_ptr<int>>::Lane::kInteractive;
  std::vector<std::unique_ptr<int>> shed;
  fault::Schedule schedule;
  schedule.kind = fault::Schedule::Kind::kFailNth;
  schedule.n = 2;
  ASSERT_TRUE(fault::Arm("queue.admit", schedule).ok());
  auto one = std::make_unique<int>(1);
  EXPECT_EQ(queue.TryPush(std::move(one), 0, kLane, &shed), PushResult::kOk);
  auto two = std::make_unique<int>(2);
  // 2nd admission: injected kQueueFull — and the item is NOT consumed,
  // exactly like a genuinely full queue.
  EXPECT_EQ(queue.TryPush(std::move(two), 0, kLane, &shed),
            PushResult::kQueueFull);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(*two, 2);
  EXPECT_EQ(queue.TryPush(std::move(two), 0, kLane, &shed), PushResult::kOk);
  EXPECT_EQ(queue.size(), 2u);
}

// --------------------------------------------------------------- logging --

namespace {

// Runs `emit` with stderr redirected into a temp file and returns what was
// written (the log sink writes straight to stderr via fputs).
std::string CaptureStderr(const std::function<void()>& emit) {
  FILE* tmp = std::tmpfile();
  EXPECT_NE(tmp, nullptr);
  std::fflush(stderr);
  int saved_fd = dup(2);
  EXPECT_GE(saved_fd, 0);
  EXPECT_GE(dup2(fileno(tmp), 2), 0);
  emit();
  std::fflush(stderr);
  dup2(saved_fd, 2);
  close(saved_fd);
  std::rewind(tmp);
  char buf[1024] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
  std::fclose(tmp);
  return std::string(buf, n);
}

}  // namespace

TEST(LoggingTest, LineCarriesTimestampTidAndLocation) {
  const std::string line = CaptureStderr(
      []() { SNORKEL_LOG(Warning) << "format probe " << 42; });
  // [2026-08-08 12:34:56.789 WARN <tid> util_test.cc:NN] format probe 42
  const std::regex shape(
      R"(^\[\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}\.\d{3} WARN <\d+> )"
      R"(util_test\.cc:\d+\] format probe 42\n$)");
  EXPECT_TRUE(std::regex_match(line, shape)) << "unexpected format: " << line;
}

TEST(LoggingTest, TidIsStablePerThreadAndDiffersAcrossThreads) {
  const std::regex tid_re(R"( <(\d+)> )");
  auto logged_tid = [&](const std::string& line) {
    std::smatch m;
    EXPECT_TRUE(std::regex_search(line, m, tid_re)) << line;
    return m.size() > 1 ? m[1].str() : std::string();
  };
  const std::string first =
      logged_tid(CaptureStderr([]() { SNORKEL_LOG(Info) << "a"; }));
  const std::string second =
      logged_tid(CaptureStderr([]() { SNORKEL_LOG(Info) << "b"; }));
  EXPECT_EQ(first, second);
  std::string other;
  const std::string from_thread = logged_tid(CaptureStderr([&]() {
    std::thread t([]() { SNORKEL_LOG(Info) << "c"; });
    t.join();
  }));
  EXPECT_NE(from_thread, first);
}

TEST(LoggingTest, BelowMinLevelEmitsNothing) {
  const std::string line =
      CaptureStderr([]() { SNORKEL_LOG(Debug) << "invisible"; });
  EXPECT_TRUE(line.empty()) << "suppressed level leaked: " << line;
}

}  // namespace
}  // namespace snorkel
