// Saturation harness for the overload-control stack: a REAL shard_server
// process (tools/shard_server.cc over loopback TCP), deliberately capacity-
// constrained (1 worker, every label sleeps an injected 5 ms, small cost
// budget), driven PAST its capacity. The invariants under test:
//
//   - GOODPUT HOLDS: at 2x the closed-loop load that saturates the shard,
//     successful-response throughput stays within a constant factor of
//     single-load capacity — overload degrades into typed rejections, not
//     congestion collapse;
//   - EXPIRED WORK IS CANCELLED: a request whose budget dies mid-service is
//     stopped cooperatively (the expired_work_cancelled counter moves), not
//     run to completion for a caller that already gave up;
//   - EVERY REJECTION IS TYPED AND ACTIONABLE: failures under overload are
//     kResourceExhausted / kDeadlineExceeded / kUnavailable with messages,
//     and every server-side kResourceExhausted carries a retry_after_ms
//     hint priced off the queued backlog;
//   - PRIORITY HOLDS: interactive (small) requests displace queued bulk
//     work, bulk is shed first and handed back typed (shed_total moves);
//   - RECOVERY IS COMPLETE: after the overload drains, a response is
//     bitwise-identical to an unsharded in-process LabelService — overload
//     leaves no residue in the model path.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "lf/applier.h"
#include "lf/declarative.h"
#include "net/remote_client.h"
#include "serve/snapshot.h"
#include "util/binary_io.h"

#ifndef SNORKEL_SHARD_SERVER_BIN
#define SNORKEL_SHARD_SERVER_BIN ""
#endif

namespace snorkel {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Same corpus and LF set as tools/shard_server.cc's "cdr-demo" built-in.
struct OverloadFixture {
  Corpus corpus;
  std::vector<Candidate> candidates;

  explicit OverloadFixture(int num_docs = 64) {
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

  ModelSnapshot MakeSnapshot() const {
    LabelingFunctionSet lfs = MakeLfs();
    auto matrix = LFApplier().Apply(lfs, corpus, candidates);
    EXPECT_TRUE(matrix.ok());
    GenerativeModelOptions options;
    options.epochs = 60;
    GenerativeModel model(options);
    EXPECT_TRUE(model.Fit(*matrix).ok());
    auto snapshot =
        ModelSnapshot::Capture(model, lfs.Names(), lfs.Fingerprints());
    EXPECT_TRUE(snapshot.ok());
    return *snapshot;
  }

  LabelResponse Expected(const ModelSnapshot& snapshot) const {
    auto service = LabelService::Create(snapshot, MakeLfs());
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    LabelRequest request;
    request.corpus = &corpus;
    request.candidates = &candidates;
    auto response = service->Label(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return *response;
  }
};

/// One spawned shard_server process with caller-chosen extra flags.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  bool Start(const std::string& snapshot_path,
             const std::vector<std::string>& extra_args) {
    port_file_ = TempPath("overload_port_" + std::to_string(getpid()));
    std::remove(port_file_.c_str());
    std::vector<std::string> full = {SNORKEL_SHARD_SERVER_BIN, "--snapshot",
                                     snapshot_path, "--port-file", port_file_};
    full.insert(full.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    argv.reserve(full.size() + 1);
    for (std::string& arg : full) argv.push_back(arg.data());
    argv.push_back(nullptr);

    pid_ = fork();
    if (pid_ == 0) {
      std::freopen("/dev/null", "w", stderr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    if (pid_ < 0) {
      ADD_FAILURE() << "fork failed";
      return false;
    }
    for (int i = 0; i < 500; ++i) {
      auto bytes = ReadFileBytes(port_file_);
      if (bytes.ok() && !bytes->empty() && bytes->back() == '\n') {
        port_ = static_cast<uint16_t>(std::atoi(bytes->c_str()));
        return port_ != 0;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        ADD_FAILURE() << "shard_server exited during startup, status "
                      << status;
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "shard_server never wrote its port file";
    return false;
  }

  uint16_t port() const { return port_; }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    std::remove(port_file_.c_str());
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  std::string port_file_;
};

bool IsTypedOverloadFailure(const Status& status) {
  return (status.code() == StatusCode::kResourceExhausted ||
          status.code() == StatusCode::kDeadlineExceeded ||
          status.code() == StatusCode::kUnavailable) &&
         !status.message().empty();
}

/// Closed-loop phase: `callers` threads issue back-to-back small
/// (interactive-lane) requests for `duration`; returns successes completed.
uint64_t ClosedLoopGoodput(uint16_t port, const OverloadFixture& fx,
                           const std::vector<CandidateRef>& rows, int callers,
                           std::chrono::milliseconds duration) {
  RemoteShardClient::Options options;
  options.port = port;
  options.adaptive_initial_limit = 64.0;  // Measure the SERVER, not the stub.
  RemoteShardClient client = RemoteShardClient::Create(options);
  std::atomic<uint64_t> successes{0};
  std::atomic<int> untyped{0};
  const auto stop_at = std::chrono::steady_clock::now() + duration;
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t) {
    threads.emplace_back([&] {
      while (std::chrono::steady_clock::now() < stop_at) {
        auto response = client.Label(fx.corpus, rows, false, true,
                                     /*deadline_ms=*/2000);
        if (response.ok()) {
          successes.fetch_add(1);
        } else if (!IsTypedOverloadFailure(response.status())) {
          untyped.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(untyped.load(), 0);
  return successes.load();
}

TEST(OverloadTest, SaturationHoldsGoodputCancelsExpiredWorkAndRecovers) {
  ASSERT_NE(std::string(SNORKEL_SHARD_SERVER_BIN), "");
  OverloadFixture fx;
  ModelSnapshot snapshot = fx.MakeSnapshot();
  std::string path = TempPath("overload.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  LabelResponse expected = fx.Expected(snapshot);

  // Capacity-constrained on purpose: 1 worker, every request sleeps an
  // injected 5 ms (deterministic ~200 req/s ceiling), cost budget 200
  // (one queued 64-row bulk job at cost 64 rows x 3 LFs = 192 nearly
  // fills it), 16-row interactive lane split, CoDel target 25 ms.
  ServerProcess server;
  ASSERT_TRUE(server.Start(
      path, {"--workers", "1", "--queue-capacity", "8", "--queue-cost-budget",
             "200", "--interactive-rows", "16", "--sojourn-target-ms", "25",
             "--fault", "server.label=delay-nth:1:5"}));

  std::vector<CandidateRef> all_rows = MakeCandidateRefs(fx.candidates);
  std::vector<CandidateRef> small_rows(all_rows.begin(), all_rows.begin() + 4);
  std::vector<CandidateRef> mid_rows(all_rows.begin(), all_rows.begin() + 16);

  // ---- Phase 1+2: goodput at saturating load, then at 2x that load. The
  // shard must shed the excess, not collapse: overload control's core
  // promise is that goodput at 2x stays within a constant factor of
  // capacity. ----
  const auto phase = std::chrono::milliseconds(1200);
  const uint64_t goodput_1x =
      ClosedLoopGoodput(server.port(), fx, small_rows, /*callers=*/2, phase);
  ASSERT_GT(goodput_1x, 0u);
  const uint64_t goodput_2x =
      ClosedLoopGoodput(server.port(), fx, small_rows, /*callers=*/4, phase);
  EXPECT_GE(static_cast<double>(goodput_2x),
            0.7 * static_cast<double>(goodput_1x))
      << "goodput collapsed under 2x load: " << goodput_1x << " -> "
      << goodput_2x;

  // ---- Phase 3: burst far past capacity with BULK requests while a
  // trickle of interactive requests runs. Every failure must be typed;
  // every server-side kResourceExhausted must carry a retry_after hint;
  // interactive arrivals displace queued bulk (shed_total moves). ----
  RemoteShardClient::Options burst_options;
  burst_options.port = server.port();
  burst_options.adaptive_initial_limit = 64.0;
  RemoteShardClient burst_client = RemoteShardClient::Create(burst_options);

  constexpr int kBulkCallers = 12;
  constexpr int kBulkRounds = 4;
  std::atomic<int> bulk_ok{0};
  std::atomic<int> typed_failures{0};
  std::atomic<int> untyped_failures{0};
  std::atomic<int> exhausted_without_hint{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kBulkCallers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kBulkRounds; ++i) {
        bool failed_fast = false;
        uint64_t retry_after_ms = 0;
        auto response =
            burst_client.Label(fx.corpus, all_rows, false, true,
                               /*deadline_ms=*/500, &failed_fast,
                               &retry_after_ms);
        if (response.ok()) {
          bulk_ok.fetch_add(1);
          continue;
        }
        if (!IsTypedOverloadFailure(response.status())) {
          ADD_FAILURE() << "untyped overload failure: "
                        << response.status().ToString();
          untyped_failures.fetch_add(1);
          continue;
        }
        typed_failures.fetch_add(1);
        if (response.status().code() == StatusCode::kResourceExhausted &&
            !failed_fast && retry_after_ms == 0) {
          exhausted_without_hint.fetch_add(1);
        }
      }
    });
  }
  // The interactive trickle: small enough for the interactive lane, big
  // enough (16 rows x 3 LFs = 48 cost) that it cannot fit next to a queued
  // 192-cost bulk job under the 200 budget — displacement must fire.
  std::thread interactive([&] {
    RemoteShardClient::Options options;
    options.port = server.port();
    options.adaptive_initial_limit = 64.0;
    RemoteShardClient client = RemoteShardClient::Create(options);
    for (int i = 0; i < 30; ++i) {
      auto response = client.Label(fx.corpus, mid_rows, false, true,
                                   /*deadline_ms=*/500);
      if (!response.ok()) {
        EXPECT_TRUE(IsTypedOverloadFailure(response.status()))
            << response.status().ToString();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  for (auto& th : threads) th.join();
  interactive.join();

  EXPECT_GE(typed_failures.load(), 1)
      << "a 12-caller bulk burst against a ~200-cost budget must overload";
  EXPECT_EQ(untyped_failures.load(), 0);
  EXPECT_EQ(exhausted_without_hint.load(), 0)
      << "server-side kResourceExhausted without a retry_after_ms hint";

  // ---- Phase 4: expired work is cancelled mid-service. A 3 ms budget is
  // admitted and dequeued live, then dies inside the injected 5 ms sleep;
  // the replica's cancellation token stops the compute. ----
  RemoteShardClient::Options cancel_options;
  cancel_options.port = server.port();
  RemoteShardClient cancel_client = RemoteShardClient::Create(cancel_options);
  for (int i = 0; i < 10; ++i) {
    auto response = cancel_client.Label(fx.corpus, all_rows, false, true,
                                        /*deadline_ms=*/3);
    ASSERT_FALSE(response.ok());
    EXPECT_TRUE(IsTypedOverloadFailure(response.status()))
        << response.status().ToString();
  }

  // Wire-visible proof of the overload story: work was shed (displacement),
  // admission rejected over budget, and expired work was cancelled
  // mid-service — the saturation harness's counters, over the stats RPC.
  RemoteShardClient::Options stats_options;
  stats_options.port = server.port();
  RemoteShardClient stats_client = RemoteShardClient::Create(stats_options);
  Result<WireServerStats> stats = Status::Internal("unset");
  for (int i = 0; i < 100; ++i) {
    stats = stats_client.GetStats(2000);
    if (stats.ok() && stats->expired_work_cancelled > 0 &&
        stats->shed_total > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->expired_work_cancelled, 1u)
      << "no expired work was ever cancelled mid-flight";
  EXPECT_GE(stats->shed_total, 1u)
      << "interactive traffic never displaced queued bulk work";
  EXPECT_GE(stats->queue_rejections + stats->shed_total +
                stats->deadline_rejections,
            1u);

  // ---- Phase 5: prompt, bitwise recovery. The tiny-deadline jobs the
  // clients abandoned are still draining server-side (cancellation stops
  // the compute, not the queue slots already admitted), so a well-behaved
  // client honors the retry_after hint until admission reopens; it must
  // reopen within a couple hundred ms, and the response must match the
  // in-process oracle bit for bit. ----
  Result<LabelResponse> recovered = Status::Internal("never attempted");
  for (int i = 0; i < 100; ++i) {
    bool failed_fast = false;
    uint64_t retry_after_ms = 0;
    recovered = stats_client.Label(fx.corpus, all_rows, false, true,
                                   /*deadline_ms=*/10'000, &failed_fast,
                                   &retry_after_ms);
    if (recovered.ok()) break;
    ASSERT_TRUE(IsTypedOverloadFailure(recovered.status()))
        << recovered.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(
        retry_after_ms > 0 ? std::min<uint64_t>(retry_after_ms, 100) : 20));
  }
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->posteriors, expected.posteriors);
  EXPECT_EQ(recovered->hard_labels, expected.hard_labels);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace snorkel
