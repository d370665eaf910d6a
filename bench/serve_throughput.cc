// Label-serving benchmark for the serve/ subsystem: trains one relation
// task offline, exports a versioned snapshot, then measures
//   (1) batched serving throughput (candidates/sec, p50/p99 request latency)
//     through LabelService over fresh candidate batches,
//   (2) concurrent-caller throughput: N threads sharing one service — the
//     posterior path is lock-free, so callers overlap compute instead of
//     serializing on a service-wide mutex, and
//   (3) the incremental-applier speedup for the §4.1 iterate loop: editing
//     1 of k LFs should re-label in roughly 1/k of the full Apply time, and
//   (4) the sharded tier: ShardRouter (hash partition → bounded queues →
//     per-shard workers with burst fusion) vs. direct unsharded Label()
//     under the same bursty concurrent-caller workload, at 1/2/4 shards.
//
//   (5) the K-class (Crowd-shaped, §4.1.2) serving path: a 5-class,
//     102-worker Dawid-Skene snapshot served through LabelService and the
//     ShardRouter — the vector-posterior hot path (DAWD snapshot v2
//     section + batched row-softmax E-step kernel),
//
//   (6) alternating-set serving (A/B/A/B under 4 concurrent callers): the
//     multi-set column cache must hit every request after the first cycle
//     (the old single-set cache thrashed to zero reuse and serialized
//     callers behind an apply mutex), and
//
//   (7) append-only stream serving: requests are growing prefixes of one
//     candidate log; the cache extends cached columns by computing only
//     the appended tail rows, and
//
//   (8) compiled LF execution: the shared Aho-Corasick batch engine
//     (lf/compiled/) vs per-row interpreted lambdas on the same LF set —
//     bitwise-identical output, so the ratio is pure execution speedup.
//
// Pass --json <path> to also write the headline numbers as JSON (consumed
// by scripts/bench.sh for the benchmark trajectory).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/csr_kernels.h"
#include "lf/applier.h"
#include "lf/compiled/program.h"
#include "pipeline/export_snapshot.h"
#include "serve/incremental_applier.h"
#include "serve/label_service.h"
#include "shard/shard_router.h"
#include "synth/crossmodal.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace snorkel;

  std::string json_path;
  for (int a = 1; a + 1 < argc; ++a) {
    if (std::string(argv[a]) == "--json") json_path = argv[a + 1];
  }

  auto task = MakeCdrTask(/*seed=*/42, /*scale=*/bench::kScale);
  if (!task.ok()) {
    std::fprintf(stderr, "task generation failed: %s\n",
                 task.status().ToString().c_str());
    return 1;
  }
  std::printf("Task %s: %zu candidates, %zu LFs (posterior kernels: %s)\n\n",
              task->name.c_str(), task->candidates.size(), task->lfs.size(),
              CsrKernelIsa());

  // ---- Offline: train and export the servable snapshot. ----
  ExportSnapshotOptions export_options;
  export_options.gen.epochs = 100;
  export_options.disc.epochs = 5;
  WallTimer train_timer;
  auto snapshot = TrainSnapshot(*task, export_options);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::string wire = SerializeSnapshot(*snapshot);
  std::printf("Trained + captured snapshot in %.2fs (%zu bytes on the wire)\n",
              train_timer.ElapsedSeconds(), wire.size());

  // ---- Online: batched serving over fresh candidate batches. ----
  // Distinct batches get no column reuse (each is a new candidate set), so
  // serving runs through the plain sharded applier.
  LabelService::Options serve_options;
  serve_options.use_incremental_cache = false;
  auto service = LabelService::Create(*snapshot, task->lfs, serve_options);
  if (!service.ok()) {
    std::fprintf(stderr, "service creation failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  constexpr size_t kBatchSize = 512;
  constexpr int kRounds = 5;
  std::vector<std::vector<Candidate>> batches;
  for (size_t begin = 0; begin < task->candidates.size();
       begin += kBatchSize) {
    size_t end = std::min(begin + kBatchSize, task->candidates.size());
    batches.emplace_back(task->candidates.begin() + begin,
                         task->candidates.begin() + end);
  }
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& batch : batches) {
      LabelRequest request;
      request.corpus = &task->corpus;
      request.candidates = &batch;
      auto response = service->Label(request);
      if (!response.ok()) {
        std::fprintf(stderr, "serving failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
    }
  }
  ServiceStats stats = service->stats();
  TablePrinter serving({"Requests", "Candidates", "cand/s", "p50 ms",
                        "p99 ms", "max ms"});
  serving.AddRow({TablePrinter::Cell(static_cast<int64_t>(stats.num_requests)),
                  TablePrinter::Cell(static_cast<int64_t>(stats.num_candidates)),
                  TablePrinter::Cell(stats.throughput_cps, 0),
                  TablePrinter::Cell(stats.p50_latency_ms, 3),
                  TablePrinter::Cell(stats.p99_latency_ms, 3),
                  TablePrinter::Cell(stats.max_latency_ms, 3)});
  std::printf("\nBatched serving (batch=%zu, %d rounds):\n%s", kBatchSize,
              kRounds, serving.ToString().c_str());

  // ---- Concurrent callers sharing one service. Each caller applies LFs
  // serially (num_threads = 1) so the measurement isolates request overlap
  // — the narrow-critical-section win — from intra-request sharding. ----
  std::vector<std::pair<int, double>> concurrent_cps;
  for (int callers : {1, 2, 4}) {
    LabelService::Options cc_options;
    cc_options.use_incremental_cache = false;
    cc_options.num_threads = 1;
    auto cc_service = LabelService::Create(*snapshot, task->lfs, cc_options);
    if (!cc_service.ok()) {
      std::fprintf(stderr, "service creation failed: %s\n",
                   cc_service.status().ToString().c_str());
      return 1;
    }
    constexpr int kConcurrentRounds = 3;
    WallTimer cc_timer;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(callers));
    for (int t = 0; t < callers; ++t) {
      threads.emplace_back([&, t] {
        // Callers stride over the batch list so each batch is served
        // exactly kConcurrentRounds times in total regardless of T.
        for (int round = 0; round < kConcurrentRounds; ++round) {
          for (size_t b = static_cast<size_t>(t); b < batches.size();
               b += static_cast<size_t>(callers)) {
            LabelRequest request;
            request.corpus = &task->corpus;
            request.candidates = &batches[b];
            auto response = cc_service->Label(request);
            if (!response.ok()) {
              std::fprintf(stderr, "concurrent serving failed: %s\n",
                           response.status().ToString().c_str());
              std::abort();
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    double wall = cc_timer.ElapsedSeconds();
    double served = static_cast<double>(cc_service->stats().num_candidates);
    concurrent_cps.emplace_back(callers, served / wall);
  }
  TablePrinter concurrent({"Callers", "cand/s (wall)", "Vs 1 caller"});
  for (auto& [callers, cps] : concurrent_cps) {
    concurrent.AddRow({TablePrinter::Cell(static_cast<int64_t>(callers)),
                       TablePrinter::Cell(cps, 0),
                       TablePrinter::Cell(cps / concurrent_cps[0].second, 2)});
  }
  std::printf("\nConcurrent callers (shared service, serial per-request "
              "apply):\n%s",
              concurrent.ToString().c_str());

  // ---- Sharded tier vs. direct unsharded serving, bursty concurrent
  // callers. Small requests make per-request fixed costs visible — exactly
  // the regime the per-shard queues pipeline and fuse away. Both paths use
  // identical serve options (cache off, serial per-request apply) so the
  // comparison isolates the tier itself. Trials are INTERLEAVED across
  // configs (unsharded, 1/2/4 shards, unsharded, ...) and each config takes
  // its best trial, so ambient machine noise cannot bias one whole config's
  // block of measurements. ----
  constexpr size_t kShardBatchSize = 128;
  constexpr int kShardCallers = 4;
  constexpr int kShardRounds = 6;
  // Trial 0 is a discarded warmup (page faults, allocator growth, branch
  // history); the remaining trials are recorded best-of.
  constexpr int kTrials = 6;
  std::vector<std::vector<Candidate>> small_batches;
  for (size_t begin = 0; begin < task->candidates.size();
       begin += kShardBatchSize) {
    size_t end = std::min(begin + kShardBatchSize, task->candidates.size());
    small_batches.emplace_back(task->candidates.begin() + begin,
                               task->candidates.begin() + end);
  }

  // One workload for every config: kShardCallers threads striding the batch
  // list for kShardRounds rounds; `label` maps a batch to a response.
  auto run_callers = [&](const std::function<bool(const std::vector<Candidate>&)>&
                             label) -> double {
    WallTimer wall;
    std::vector<std::thread> callers;
    std::atomic<bool> failed{false};
    size_t served = 0;
    for (int t = 0; t < kShardCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int round = 0; round < kShardRounds; ++round) {
          for (size_t b = static_cast<size_t>(t); b < small_batches.size();
               b += static_cast<size_t>(kShardCallers)) {
            if (!label(small_batches[b])) failed.store(true);
          }
        }
      });
    }
    for (auto& th : callers) th.join();
    if (failed.load()) {
      std::fprintf(stderr, "sharded-section serving failed\n");
      std::abort();
    }
    for (const auto& batch : small_batches) served += batch.size();
    return static_cast<double>(served) * kShardRounds / wall.ElapsedSeconds();
  };

  const std::vector<size_t> kShardCounts = {1, 2, 4};
  // Two unsharded baselines: the default service configuration (column
  // cache ON — concurrent callers serialize the whole LF application behind
  // the cache mutex, and alternating candidate sets thrash the cache), and
  // a hand-tuned one with the cache disabled (lock-free apply). The tier is
  // built to replace the former; the latter shows the residual cost of the
  // queue/merge indirection at equal per-candidate work.
  double unsharded_cps = 0.0;          // Default config (cached).
  double unsharded_nocache_cps = 0.0;  // Tuned (cache off).
  std::vector<std::pair<size_t, double>> sharded_cps;
  for (size_t shards : kShardCounts) sharded_cps.emplace_back(shards, 0.0);
  uint64_t last_fused = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Unsharded direct calls, default and tuned configs.
    for (bool cached : {true, false}) {
      LabelService::Options direct_options;
      direct_options.use_incremental_cache = cached;
      // Default config keeps num_threads = 0 (the process-wide shared
      // pool); the tuned config pins serial in-thread apply.
      direct_options.num_threads = cached ? 0 : 1;
      auto direct = LabelService::Create(*snapshot, task->lfs, direct_options);
      if (!direct.ok()) {
        std::fprintf(stderr, "service creation failed: %s\n",
                     direct.status().ToString().c_str());
        return 1;
      }
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &batch;
        return direct->Label(request).ok();
      });
      if (trial == 0) continue;  // Warmup.
      double& slot = cached ? unsharded_cps : unsharded_nocache_cps;
      slot = std::max(slot, cps);
    }

    // Router at each shard count.
    for (size_t c = 0; c < kShardCounts.size(); ++c) {
      ShardRouter::Options router_options;
      router_options.num_shards = kShardCounts[c];
      router_options.queue_capacity = 256;
      router_options.workers_per_shard = 1;
      router_options.max_fuse = 8;
      router_options.service.num_threads = 1;
      auto router = ShardRouter::Create(*snapshot, task->lfs, router_options);
      if (!router.ok()) {
        std::fprintf(stderr, "router creation failed: %s\n",
                     router.status().ToString().c_str());
        return 1;
      }
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &batch;
        return router->Label(request).ok();
      });
      if (trial > 0 && cps > sharded_cps[c].second) {
        sharded_cps[c].second = cps;
        last_fused = router->stats().fused_jobs;
      }
      router->Shutdown();
    }
  }

  TablePrinter sharded({"Config", "cand/s (wall)", "Vs unsharded"});
  sharded.AddRow({"unsharded direct (default, cached)",
                  TablePrinter::Cell(unsharded_cps, 0), "1.00"});
  sharded.AddRow({"unsharded direct (cache off)",
                  TablePrinter::Cell(unsharded_nocache_cps, 0),
                  TablePrinter::Cell(unsharded_nocache_cps / unsharded_cps,
                                     2)});
  for (auto& [shards, cps] : sharded_cps) {
    sharded.AddRow({"router, " + std::to_string(shards) + " shard" +
                        (shards == 1 ? "" : "s"),
                    TablePrinter::Cell(cps, 0),
                    TablePrinter::Cell(cps / unsharded_cps, 2)});
  }
  std::printf("\nSharded tier (%d concurrent callers, batch=%zu, best of %d "
              "trials after warmup; last router fused %llu sub-batches):\n%s",
              kShardCallers, kShardBatchSize, kTrials - 1,
              static_cast<unsigned long long>(last_fused),
              sharded.ToString().c_str());

  // ---- K-class (Crowd-shaped) serving: 5 sentiment classes, one LF per
  // crowd worker (paper Table 2 shape: 505 items × 102 workers), served
  // from a DAWD snapshot through the vector-posterior path. Same
  // interleaved best-of methodology as the binary sharded section. ----
  CrowdServingOptions crowd_options;
  crowd_options.num_items = 505;
  crowd_options.num_workers = 102;
  auto crowd = MakeCrowdServingTask(crowd_options);
  if (!crowd.ok()) {
    std::fprintf(stderr, "crowd task generation failed: %s\n",
                 crowd.status().ToString().c_str());
    return 1;
  }
  WallTimer crowd_train_timer;
  auto crowd_snapshot = TrainKClassSnapshot(
      crowd->lfs, crowd->corpus, crowd->candidates, crowd->cardinality);
  if (!crowd_snapshot.ok()) {
    std::fprintf(stderr, "crowd training failed: %s\n",
                 crowd_snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("\nCrowd task: %zu items, %zu workers, K = %d "
              "(Dawid-Skene fit + DAWD capture in %.2fs, %zu wire bytes)\n",
              crowd->candidates.size(), crowd->lfs.size(),
              crowd->cardinality, crowd_train_timer.ElapsedSeconds(),
              SerializeSnapshot(*crowd_snapshot).size());

  constexpr size_t kCrowdBatchSize = 128;
  constexpr int kCrowdCallers = 4;
  constexpr int kCrowdRounds = 6;
  constexpr int kCrowdTrials = 4;  // Trial 0 is a discarded warmup.
  std::vector<std::vector<Candidate>> crowd_batches;
  for (size_t begin = 0; begin < crowd->candidates.size();
       begin += kCrowdBatchSize) {
    size_t end = std::min(begin + kCrowdBatchSize, crowd->candidates.size());
    crowd_batches.emplace_back(crowd->candidates.begin() + begin,
                               crowd->candidates.begin() + end);
  }
  auto run_crowd_callers =
      [&](const std::function<bool(const std::vector<Candidate>&)>& label)
      -> double {
    WallTimer wall;
    std::vector<std::thread> callers;
    std::atomic<bool> failed{false};
    for (int t = 0; t < kCrowdCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int round = 0; round < kCrowdRounds; ++round) {
          for (size_t b = static_cast<size_t>(t); b < crowd_batches.size();
               b += static_cast<size_t>(kCrowdCallers)) {
            if (!label(crowd_batches[b])) failed.store(true);
          }
        }
      });
    }
    for (auto& th : callers) th.join();
    if (failed.load()) {
      std::fprintf(stderr, "K-class serving failed\n");
      std::abort();
    }
    size_t served = 0;
    for (const auto& batch : crowd_batches) served += batch.size();
    return static_cast<double>(served) * kCrowdRounds /
           wall.ElapsedSeconds();
  };

  double kclass_unsharded_cps = 0.0;
  std::vector<std::pair<size_t, double>> kclass_sharded_cps;
  for (size_t shards : kShardCounts) kclass_sharded_cps.emplace_back(shards, 0.0);
  for (int trial = 0; trial < kCrowdTrials; ++trial) {
    {
      LabelService::Options direct_options;
      direct_options.use_incremental_cache = false;
      direct_options.num_threads = 1;
      auto direct =
          LabelService::Create(*crowd_snapshot, crowd->lfs, direct_options);
      if (!direct.ok()) {
        std::fprintf(stderr, "K-class service creation failed: %s\n",
                     direct.status().ToString().c_str());
        return 1;
      }
      double cps = run_crowd_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &crowd->corpus;
        request.candidates = &batch;
        return direct->Label(request).ok();
      });
      if (trial > 0) kclass_unsharded_cps = std::max(kclass_unsharded_cps, cps);
    }
    for (size_t c = 0; c < kShardCounts.size(); ++c) {
      ShardRouter::Options router_options;
      router_options.num_shards = kShardCounts[c];
      router_options.queue_capacity = 256;
      router_options.workers_per_shard = 1;
      router_options.max_fuse = 8;
      router_options.service.num_threads = 1;
      auto router =
          ShardRouter::Create(*crowd_snapshot, crowd->lfs, router_options);
      if (!router.ok()) {
        std::fprintf(stderr, "K-class router creation failed: %s\n",
                     router.status().ToString().c_str());
        return 1;
      }
      double cps = run_crowd_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &crowd->corpus;
        request.candidates = &batch;
        return router->Label(request).ok();
      });
      if (trial > 0) {
        kclass_sharded_cps[c].second =
            std::max(kclass_sharded_cps[c].second, cps);
      }
      router->Shutdown();
    }
  }

  TablePrinter kclass({"Config", "cand/s (wall)", "Vs unsharded"});
  kclass.AddRow({"unsharded direct",
                 TablePrinter::Cell(kclass_unsharded_cps, 0), "1.00"});
  for (auto& [shards, cps] : kclass_sharded_cps) {
    kclass.AddRow({"router, " + std::to_string(shards) + " shard" +
                       (shards == 1 ? "" : "s"),
                   TablePrinter::Cell(cps, 0),
                   TablePrinter::Cell(cps / kclass_unsharded_cps, 2)});
  }
  std::printf("\nK-class serving (K=%d, %d concurrent callers, batch=%zu, "
              "best of %d trials after warmup):\n%s",
              crowd->cardinality, kCrowdCallers, kCrowdBatchSize,
              kCrowdTrials - 1, kclass.ToString().c_str());

  // ---- Alternating sets (A/B/A/B), 4 concurrent callers sharing one
  // service. Two fixed 1024-candidate batches alternate; the multi-set
  // cache keeps BOTH sets resident, so every request after the first cycle
  // reuses all of its columns. Cache-off pays full LF application per
  // request. Interleaved best-of, like the sharded section. ----
  constexpr size_t kAltBatchSize = 1024;
  constexpr int kAltCallers = 4;
  constexpr int kAltRounds = 8;
  constexpr int kAltTrials = 4;  // Trial 0 is a discarded warmup.
  std::vector<Candidate> alt_a(task->candidates.begin(),
                               task->candidates.begin() + kAltBatchSize);
  std::vector<Candidate> alt_b(task->candidates.begin() + kAltBatchSize,
                               task->candidates.begin() + 2 * kAltBatchSize);
  auto run_alternating = [&](LabelService& alt_service) -> double {
    WallTimer wall;
    std::vector<std::thread> callers;
    std::atomic<bool> failed{false};
    for (int t = 0; t < kAltCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int round = 0; round < kAltRounds; ++round) {
          for (const auto* batch : {&alt_a, &alt_b}) {
            LabelRequest request;
            request.corpus = &task->corpus;
            request.candidates = batch;
            if (!alt_service.Label(request).ok()) failed.store(true);
          }
        }
      });
    }
    for (auto& th : callers) th.join();
    if (failed.load()) {
      std::fprintf(stderr, "alternating-set serving failed\n");
      std::abort();
    }
    return static_cast<double>(2 * kAltBatchSize) * kAltRounds *
           kAltCallers / wall.ElapsedSeconds();
  };
  double alt_cached_cps = 0.0;
  double alt_nocache_cps = 0.0;
  for (int trial = 0; trial < kAltTrials; ++trial) {
    for (bool cached : {true, false}) {
      LabelService::Options alt_options;
      alt_options.use_incremental_cache = cached;
      // Equal threads for both configs (like the append-stream section):
      // the 4 callers provide the concurrency, so serial per-request apply
      // isolates the cache effect from intra-request parallelism.
      alt_options.num_threads = 1;
      auto alt_service =
          LabelService::Create(*snapshot, task->lfs, alt_options);
      if (!alt_service.ok()) {
        std::fprintf(stderr, "service creation failed: %s\n",
                     alt_service.status().ToString().c_str());
        return 1;
      }
      double cps = run_alternating(*alt_service);
      if (trial == 0) continue;  // Warmup.
      double& slot = cached ? alt_cached_cps : alt_nocache_cps;
      slot = std::max(slot, cps);
    }
  }
  // Column reuse on the THIRD A/B cycle, measured single-threaded on a
  // fresh service: cycle 1 is each set's first sighting (computed, not
  // cached), cycle 2 admits and caches both sets' columns, and cycle 3 must
  // reuse them all (the acceptance bar for the multi-set cache).
  double third_cycle_reuse = 0.0;
  {
    auto reuse_service = LabelService::Create(*snapshot, task->lfs, {});
    if (!reuse_service.ok()) {
      std::fprintf(stderr, "service creation failed: %s\n",
                   reuse_service.status().ToString().c_str());
      return 1;
    }
    auto serve_cycle = [&] {
      for (const auto* batch : {&alt_a, &alt_b}) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = batch;
        if (!reuse_service->Label(request).ok()) std::abort();
      }
    };
    serve_cycle();
    serve_cycle();
    ServiceStats after_admission = reuse_service->stats();
    serve_cycle();
    ServiceStats after_third = reuse_service->stats();
    double reused = static_cast<double>(after_third.lf_columns_reused -
                                        after_admission.lf_columns_reused);
    double computed = static_cast<double>(after_third.lf_columns_computed -
                                          after_admission.lf_columns_computed);
    third_cycle_reuse =
        reused + computed > 0.0 ? reused / (reused + computed) : 0.0;
  }
  TablePrinter altset({"Config", "cand/s (wall)", "Vs cache-off"});
  altset.AddRow({"cached (multi-set)", TablePrinter::Cell(alt_cached_cps, 0),
                 TablePrinter::Cell(alt_cached_cps / alt_nocache_cps, 2)});
  altset.AddRow({"cache off", TablePrinter::Cell(alt_nocache_cps, 0), "1.00"});
  std::printf("\nAlternating sets A/B (%d concurrent callers, batch=%zu, "
              "best of %d trials after warmup; third-cycle column reuse "
              "%.1f%%):\n%s",
              kAltCallers, kAltBatchSize, kAltTrials - 1,
              100.0 * third_cycle_reuse, altset.ToString().c_str());

  // ---- Append-only candidate stream: each request is the full log so
  // far, grown by 256 candidates per step. The cache recognizes the cached
  // prefix by its fingerprint chain and computes only the tail rows;
  // cache-off re-applies every LF to every row each step. Fresh services
  // per trial so each trial serves a cold stream. ----
  constexpr size_t kStreamStart = 512;
  constexpr size_t kStreamStep = 256;
  constexpr int kStreamTrials = 4;  // Trial 0 is a discarded warmup.
  std::vector<std::vector<Candidate>> stream_prefixes;
  for (size_t rows = kStreamStart; rows <= task->candidates.size();
       rows += kStreamStep) {
    stream_prefixes.emplace_back(task->candidates.begin(),
                                 task->candidates.begin() + rows);
  }
  double stream_cached_s = 0.0;
  double stream_nocache_s = 0.0;
  uint64_t stream_appended_rows = 0;
  for (int trial = 0; trial < kStreamTrials; ++trial) {
    for (bool cached : {true, false}) {
      LabelService::Options stream_options;
      stream_options.use_incremental_cache = cached;
      // Both configs apply serially: a single-caller stream has no request
      // overlap, so equal threads isolate the cache effect (tail-only
      // computation) from intra-request parallelism.
      stream_options.num_threads = 1;
      auto stream_service =
          LabelService::Create(*snapshot, task->lfs, stream_options);
      if (!stream_service.ok()) {
        std::fprintf(stderr, "service creation failed: %s\n",
                     stream_service.status().ToString().c_str());
        return 1;
      }
      WallTimer stream_timer;
      for (const auto& prefix : stream_prefixes) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &prefix;
        if (!stream_service->Label(request).ok()) {
          std::fprintf(stderr, "append-stream serving failed\n");
          return 1;
        }
      }
      double seconds = stream_timer.ElapsedSeconds();
      if (trial == 0) continue;  // Warmup.
      double& slot = cached ? stream_cached_s : stream_nocache_s;
      slot = slot == 0.0 ? seconds : std::min(slot, seconds);
      if (cached) {
        stream_appended_rows = stream_service->stats().cache_appended_rows;
      }
    }
  }
  TablePrinter stream({"Config", "Wall-clock s", "Vs cache-off"});
  stream.AddRow({"cached (extend tails)",
                 TablePrinter::Cell(stream_cached_s, 4),
                 TablePrinter::Cell(stream_cached_s / stream_nocache_s, 2)});
  stream.AddRow({"cache off (full reapply)",
                 TablePrinter::Cell(stream_nocache_s, 4), "1.00"});
  std::printf("\nAppend-only stream (%zu steps, %zu -> %zu rows, best of %d "
              "trials after warmup; %llu tail rows appended per cached "
              "run):\n%s",
              stream_prefixes.size(), kStreamStart,
              stream_prefixes.back().size(), kStreamTrials - 1,
              static_cast<unsigned long long>(stream_appended_rows),
              stream.ToString().c_str());

  // ---- Iterate loop: edit 1 of k LFs, re-label with the column cache. ----
  const size_t k = task->lfs.size();
  IncrementalApplier applier(
      IncrementalApplier::Options{.num_threads = 0, .cardinality = 2});
  // The set's first sighting is served without caching; the timed full
  // apply is its second, which admits it and caches all k columns.
  if (!applier.Apply(task->lfs, task->corpus, task->candidates).ok()) {
    std::fprintf(stderr, "apply failed\n");
    return 1;
  }
  WallTimer full_timer;
  auto full = applier.Apply(task->lfs, task->corpus, task->candidates);
  double full_seconds = full_timer.ElapsedSeconds();
  if (!full.ok()) {
    std::fprintf(stderr, "apply failed: %s\n",
                 full.status().ToString().c_str());
    return 1;
  }

  // Re-version one LF: same behaviour, new fingerprint, so exactly one
  // column recomputes (plus cache bookkeeping).
  double incremental_seconds = 0.0;
  constexpr int kEdits = 5;
  for (int edit = 0; edit < kEdits; ++edit) {
    LabelingFunctionSet edited;
    size_t target = static_cast<size_t>(edit) % k;
    for (size_t j = 0; j < k; ++j) {
      const LabelingFunction& lf = task->lfs.at(j);
      if (j == target) {
        edited.Add(LabelingFunction(
            lf.name(), "edit_" + std::to_string(edit),
            [&lf](const CandidateView& view) { return lf.Apply(view); }));
      } else {
        edited.Add(lf);
      }
    }
    WallTimer edit_timer;
    auto incremental =
        applier.Apply(edited, task->corpus, task->candidates);
    incremental_seconds += edit_timer.ElapsedSeconds();
    if (!incremental.ok()) {
      std::fprintf(stderr, "incremental apply failed: %s\n",
                   incremental.status().ToString().c_str());
      return 1;
    }
  }
  incremental_seconds /= kEdits;

  TablePrinter iterate({"Mode", "Wall-clock s", "Vs full", "Ideal 1/k"});
  iterate.AddRow({"Full apply (k columns)",
                  TablePrinter::Cell(full_seconds, 4), "1.00",
                  TablePrinter::Cell(1.0, 2)});
  iterate.AddRow({"Edit 1 LF (cached)",
                  TablePrinter::Cell(incremental_seconds, 4),
                  TablePrinter::Cell(incremental_seconds / full_seconds, 2),
                  TablePrinter::Cell(1.0 / static_cast<double>(k), 2)});
  std::printf("\nIncremental re-labeling, k = %zu LFs (mean of %d edits):\n%s",
              k, kEdits, iterate.ToString().c_str());
  std::printf("\ncache: %llu columns computed, %llu reused\n",
              static_cast<unsigned long long>(applier.stats().columns_computed),
              static_cast<unsigned long long>(applier.stats().columns_reused));

  // ---- Compiled LF execution (lf/compiled/): the batch Aho-Corasick
  // engine vs per-row interpreted lambdas, same LF set, same candidates,
  // serial apply so the ratio isolates the engine. Output is bitwise
  // identical (pinned by tests/lf_compiled_test.cc); this measures only the
  // speed side of that contract. Best-of after a discarded warmup. ----
  auto lf_program = CompileLfSet(task->lfs);
  double compiled_cps = 0.0;
  double interpreted_cps = 0.0;
  constexpr int kLfTrials = 4;  // Trial 0 is a discarded warmup.
  for (int trial = 0; trial < kLfTrials; ++trial) {
    for (bool use_compiled : {true, false}) {
      LFApplier lf_applier({.num_threads = 1,
                            .cardinality = 2,
                            .use_compiled = use_compiled});
      WallTimer lf_timer;
      if (!lf_applier.Apply(task->lfs, task->corpus, task->candidates).ok()) {
        std::fprintf(stderr, "LF application failed\n");
        return 1;
      }
      double cps = static_cast<double>(task->candidates.size()) /
                   lf_timer.ElapsedSeconds();
      if (trial == 0) continue;  // Warmup.
      double& slot = use_compiled ? compiled_cps : interpreted_cps;
      slot = std::max(slot, cps);
    }
  }
  TablePrinter lfcompile({"Engine", "cand/s", "Vs interpreted"});
  lfcompile.AddRow({"compiled (shared AC scan)",
                    TablePrinter::Cell(compiled_cps, 0),
                    TablePrinter::Cell(compiled_cps / interpreted_cps, 2)});
  lfcompile.AddRow({"interpreted (per-row lambdas)",
                    TablePrinter::Cell(interpreted_cps, 0), "1.00"});
  std::printf("\nCompiled LF execution (%zu/%zu LFs compiled, serial apply, "
              "best of %d trials after warmup):\n%s",
              lf_program->num_compiled(), task->lfs.size(), kLfTrials - 1,
              lfcompile.ToString().c_str());

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"task\": {\"candidates\": %zu, \"lfs\": %zu},\n"
                 "  \"serving\": {\"throughput_cps\": %.1f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f},\n",
                 task->candidates.size(), task->lfs.size(),
                 stats.throughput_cps, stats.p50_latency_ms,
                 stats.p99_latency_ms);
    std::fprintf(out, "  \"concurrent_cps\": {");
    for (size_t i = 0; i < concurrent_cps.size(); ++i) {
      std::fprintf(out, "%s\"%d\": %.1f", i == 0 ? "" : ", ",
                   concurrent_cps[i].first, concurrent_cps[i].second);
    }
    double best_sharded = 0.0;
    for (auto& [shards, cps] : sharded_cps) {
      best_sharded = std::max(best_sharded, cps);
    }
    std::fprintf(out,
                 "},\n"
                 "  \"sharded\": {\"callers\": %d, \"batch\": %zu, "
                 "\"unsharded_cps\": %.1f, \"unsharded_nocache_cps\": %.1f, "
                 "\"best_sharded_cps\": %.1f, \"shards_cps\": {",
                 kShardCallers, kShardBatchSize, unsharded_cps,
                 unsharded_nocache_cps, best_sharded);
    for (size_t i = 0; i < sharded_cps.size(); ++i) {
      std::fprintf(out, "%s\"%zu\": %.1f", i == 0 ? "" : ", ",
                   sharded_cps[i].first, sharded_cps[i].second);
    }
    double best_kclass = 0.0;
    for (auto& [shards, cps] : kclass_sharded_cps) {
      best_kclass = std::max(best_kclass, cps);
    }
    std::fprintf(out,
                 "}},\n"
                 "  \"kclass\": {\"cardinality\": %d, \"items\": %zu, "
                 "\"workers\": %zu, \"callers\": %d, \"batch\": %zu, "
                 "\"unsharded_cps\": %.1f, \"best_sharded_cps\": %.1f, "
                 "\"shards_cps\": {",
                 crowd->cardinality, crowd->candidates.size(),
                 crowd->lfs.size(), kCrowdCallers, kCrowdBatchSize,
                 kclass_unsharded_cps, best_kclass);
    for (size_t i = 0; i < kclass_sharded_cps.size(); ++i) {
      std::fprintf(out, "%s\"%zu\": %.1f", i == 0 ? "" : ", ",
                   kclass_sharded_cps[i].first, kclass_sharded_cps[i].second);
    }
    std::fprintf(out,
                 "}},\n"
                 "  \"altset\": {\"callers\": %d, \"batch\": %zu, "
                 "\"cached_cps\": %.1f, \"nocache_cps\": %.1f, "
                 "\"third_cycle_reuse\": %.4f},\n",
                 kAltCallers, kAltBatchSize, alt_cached_cps, alt_nocache_cps,
                 third_cycle_reuse);
    std::fprintf(out,
                 "  \"appendstream\": {\"steps\": %zu, \"rows_final\": %zu, "
                 "\"cached_s\": %.4f, \"nocache_s\": %.4f, "
                 "\"speedup\": %.2f, \"appended_rows\": %llu},\n",
                 stream_prefixes.size(), stream_prefixes.back().size(),
                 stream_cached_s, stream_nocache_s,
                 stream_nocache_s / stream_cached_s,
                 static_cast<unsigned long long>(stream_appended_rows));
    std::fprintf(out,
                 "  \"lfcompile\": {\"compiled_lfs\": %zu, \"total_lfs\": %zu, "
                 "\"compiled_cps\": %.1f, \"interpreted_cps\": %.1f, "
                 "\"speedup\": %.2f},\n",
                 lf_program->num_compiled(), task->lfs.size(), compiled_cps,
                 interpreted_cps, compiled_cps / interpreted_cps);
    std::fprintf(out,
                 "  \"incremental\": {\"full_apply_s\": %.4f, "
                 "\"edit_one_lf_s\": %.4f, \"ratio\": %.3f, "
                 "\"ideal_ratio\": %.3f}\n}\n",
                 full_seconds, incremental_seconds,
                 incremental_seconds / full_seconds,
                 1.0 / static_cast<double>(k));
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
