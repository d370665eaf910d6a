// Networked-fabric benchmark (PR 6): measures what the wire costs and what
// failover buys, on loopback.
//
//   (1) in-process LabelService vs the SAME replica behind a loopback TCP
//       ShardServer driven through RemoteShardClient — the RPC tax
//       (framing + checksums + corpus slice + syscalls) at serving batch
//       sizes, and
//   (2) a 2-shard RemoteShardRouter over two loopback servers vs the single
//       loopback client — what cross-process fan-out adds, and
//   (4) replicated failover: R=2 routing vs single-owner when healthy, and
//       throughput while one of two shards is dead — the outage run must
//       complete EVERY request (failover, not failure), and
//   (5) tracing overhead: the same 2-shard router workload with tracing off
//       vs on — off must cost ~nothing (one thread-local load per would-be
//       span) and on stays within a few percent (span recording is
//       thread-local until the per-request flush into the bounded ring), and
//   (6) overload goodput (PR 10): a deliberately capacity-constrained shard
//       (1 worker, every request sleeps an injected 2 ms, small cost budget)
//       under closed-loop load at 1x and 2x saturation — the 2x goodput
//       ratio is the headline overload-control number (shedding must not
//       collapse throughput), plus the shed / expired-work-cancelled
//       counters from the same run.
//
// CAVEAT: loopback numbers bound the PROTOCOL cost only. Real deployments
// add NIC latency, congestion, and cross-machine clock effects that
// loopback cannot see; treat the in-process vs loopback gap as a floor for
// the network tax, not an estimate of datacenter behaviour.
//
// Pass --json <path> to write the headline numbers (consumed by
// scripts/bench.sh into the "net" trajectory section).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "lf/applier.h"
#include "net/remote_client.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "obs/trace.h"
#include "pipeline/export_snapshot.h"
#include "serve/label_service.h"
#include "serve/snapshot.h"
#include "synth/relation_task.h"
#include "util/table_printer.h"
#include "util/fault.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace snorkel;

  std::string json_path;
  for (int a = 1; a + 1 < argc; ++a) {
    if (std::string(argv[a]) == "--json") json_path = argv[a + 1];
  }

  auto task = MakeCdrTask(/*seed=*/42, /*scale=*/0.5);
  if (!task.ok()) {
    std::fprintf(stderr, "task generation failed: %s\n",
                 task.status().ToString().c_str());
    return 1;
  }
  ExportSnapshotOptions export_options;
  export_options.gen.epochs = 100;
  export_options.disc.epochs = 5;
  auto snapshot = TrainSnapshot(*task, export_options);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::string path = ::std::string("/tmp/net_loopback_bench_") +
                     std::to_string(getpid()) + ".snk";
  if (!SaveSnapshot(*snapshot, path).ok()) {
    std::fprintf(stderr, "cannot save snapshot\n");
    return 1;
  }
  std::printf("Task %s: %zu candidates, %zu LFs\n\n", task->name.c_str(),
              task->candidates.size(), task->lfs.size());

  constexpr size_t kBatchSize = 256;
  constexpr int kCallers = 4;
  constexpr int kRounds = 4;
  constexpr int kTrials = 4;  // Trial 0 is a discarded warmup.
  std::vector<std::vector<Candidate>> batches;
  for (size_t begin = 0; begin < task->candidates.size();
       begin += kBatchSize) {
    size_t end = std::min(begin + kBatchSize, task->candidates.size());
    batches.emplace_back(task->candidates.begin() + begin,
                         task->candidates.begin() + end);
  }
  size_t total_candidates = 0;
  for (const auto& b : batches) total_candidates += b.size();

  // One workload for every transport: kCallers threads striding the batch
  // list; `label` serves one batch, returning ok.
  auto run_callers =
      [&](const std::function<bool(const std::vector<Candidate>&)>& label)
      -> double {
    WallTimer wall;
    std::atomic<bool> failed{false};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (size_t b = static_cast<size_t>(t); b < batches.size();
               b += static_cast<size_t>(kCallers)) {
            if (!label(batches[b])) failed.store(true);
          }
        }
      });
    }
    for (auto& th : callers) th.join();
    if (failed.load()) {
      std::fprintf(stderr, "net-bench serving failed\n");
      std::abort();
    }
    return static_cast<double>(total_candidates) * kRounds /
           wall.ElapsedSeconds();
  };

  // ---- (1) + (2): in-process vs loopback RPC vs 2-shard fleet,
  // interleaved best-of so machine noise cannot bias one config. ----
  double inprocess_cps = 0.0;
  double loopback_cps = 0.0;
  double router2_cps = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      LabelService::Options options;
      options.num_threads = 1;
      auto service = LabelService::Create(*snapshot, task->lfs, options);
      if (!service.ok()) return 1;
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &batch;
        return service->Label(request).ok();
      });
      if (trial > 0) inprocess_cps = std::max(inprocess_cps, cps);
    }
    {
      ShardServer::Options options;
      options.num_workers = kCallers;
      options.queue_capacity = 64;
      options.service.num_threads = 1;
      auto server = ShardServer::Serve(path, task->lfs, options);
      if (!server.ok()) {
        std::fprintf(stderr, "serve failed: %s\n",
                     server.status().ToString().c_str());
        return 1;
      }
      RemoteShardClient::Options client_options;
      client_options.port = server->port();
      client_options.max_pooled_connections = kCallers;
      RemoteShardClient client = RemoteShardClient::Create(client_options);
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        return client
            .Label(task->corpus, MakeCandidateRefs(batch), false, true,
                   60'000)
            .ok();
      });
      if (trial > 0) loopback_cps = std::max(loopback_cps, cps);
      server->Shutdown();
    }
    {
      ShardServer::Options options;
      options.num_workers = 2;
      options.queue_capacity = 64;
      options.service.num_threads = 1;
      auto s0 = ShardServer::Serve(path, task->lfs, options);
      auto s1 = ShardServer::Serve(path, task->lfs, options);
      if (!s0.ok() || !s1.ok()) return 1;
      RemoteShardRouter::Options router_options;
      router_options.client.max_pooled_connections = kCallers;
      router_options.request_timeout_ms = 60'000;
      auto router = RemoteShardRouter::Create(
          {{"127.0.0.1", s0->port()}, {"127.0.0.1", s1->port()}},
          router_options);
      if (!router.ok()) return 1;
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &batch;
        return router->Label(request).ok();
      });
      if (trial > 0) router2_cps = std::max(router2_cps, cps);
      s0->Shutdown();
      s1->Shutdown();
    }
  }

  TablePrinter transports({"Transport", "cand/s (wall)", "Vs in-process"});
  transports.AddRow({"in-process LabelService",
                     TablePrinter::Cell(inprocess_cps, 0), "1.00"});
  transports.AddRow({"loopback RPC (1 shard)",
                     TablePrinter::Cell(loopback_cps, 0),
                     TablePrinter::Cell(loopback_cps / inprocess_cps, 2)});
  transports.AddRow({"loopback router (2 shards)",
                     TablePrinter::Cell(router2_cps, 0),
                     TablePrinter::Cell(router2_cps / inprocess_cps, 2)});
  std::printf("Loopback RPC tax (%d callers, batch=%zu, best of %d trials "
              "after warmup):\n%s",
              kCallers, kBatchSize, kTrials - 1,
              transports.ToString().c_str());
  std::printf("(loopback bounds protocol cost only — real networks add NIC "
              "latency and congestion on top)\n");

  // ---- (4) replicated failover (PR 7): what R-way replication costs when
  // the fleet is healthy, and what it buys when a shard dies. Three router
  // configs over the same 2-server fleet, interleaved best-of like (1)+(2):
  //   r1      — replication 1 (single-owner routing, the pre-PR-7 fabric),
  //   r2      — replication 2, both servers up (placement overhead only),
  //   outage  — replication 2 with server 1 SHUT DOWN before the workload:
  //             every shard-1 sub-batch must fail over to server 0, so
  //             throughput ~halves (one server does all the work) but ZERO
  //             requests fail. The long breaker cooldown keeps the dead
  //             endpoint rejected for the whole run, so steady-state
  //             failovers are free (no dispatch, no budget spend). ----
  double r1_cps = 0.0;
  double r2_cps = 0.0;
  double outage_cps = 0.0;
  uint64_t outage_failovers = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (int config = 0; config < 3; ++config) {
      ShardServer::Options options;
      options.num_workers = kCallers;
      options.queue_capacity = 64;
      options.service.num_threads = 1;
      auto s0 = ShardServer::Serve(path, task->lfs, options);
      auto s1 = ShardServer::Serve(path, task->lfs, options);
      if (!s0.ok() || !s1.ok()) return 1;
      RemoteShardRouter::Options router_options;
      router_options.client.max_pooled_connections = kCallers;
      // A dead loopback port refuses connections instantly, but keep the
      // connect budget small anyway so detection never dominates the run.
      router_options.client.connect_timeout_ms = 250;
      // Open after one failure and stay open past the end of the trial:
      // after detection every failover is a free breaker-open rejection.
      router_options.client.unhealthy_threshold = 1;
      router_options.client.unhealthy_cooldown_ms = 60'000;
      router_options.request_timeout_ms = 60'000;
      router_options.replication = (config == 0) ? 1 : 2;
      auto router = RemoteShardRouter::Create(
          {{"127.0.0.1", s0->port()}, {"127.0.0.1", s1->port()}},
          router_options);
      if (!router.ok()) return 1;
      if (config == 2) s1->Shutdown();  // One-shard outage under R=2.
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &batch;
        return router->Label(request).ok();
      });
      if (trial > 0) {
        if (config == 0) r1_cps = std::max(r1_cps, cps);
        if (config == 1) r2_cps = std::max(r2_cps, cps);
        if (config == 2 && cps > outage_cps) {
          outage_cps = cps;
          outage_failovers = router->stats().failovers;
        }
      }
      s0->Shutdown();
      if (config != 2) s1->Shutdown();
    }
  }

  TablePrinter failover({"Fleet", "cand/s (wall)", "Vs single-owner"});
  failover.AddRow({"R=1 single-owner (2 up)", TablePrinter::Cell(r1_cps, 0),
                   "1.00"});
  failover.AddRow({"R=2 replicated (2 up)", TablePrinter::Cell(r2_cps, 0),
                   TablePrinter::Cell(r2_cps / r1_cps, 2)});
  failover.AddRow({"R=2, one shard DOWN", TablePrinter::Cell(outage_cps, 0),
                   TablePrinter::Cell(outage_cps / r1_cps, 2)});
  std::printf("\nReplicated failover (%d callers, best of %d trials; outage "
              "run completed every request, %llu failovers):\n%s",
              kCallers, kTrials - 1,
              static_cast<unsigned long long>(outage_failovers),
              failover.ToString().c_str());
  std::printf("(under R=2 a single dead endpoint costs throughput, never "
              "answers — the surviving replica serves bit-identical "
              "posteriors)\n");

  // ---- (5) tracing overhead (PR 8): the (2) router workload, tracing off
  // vs on, interleaved best-of. Disabled tracing must be ~free — TraceSpan
  // construction reduces to a thread-local load and a branch — and enabled
  // tracing bounds what a debugging session costs a production fleet. ----
  double trace_off_cps = 0.0;
  double trace_on_cps = 0.0;
  uint64_t traced_spans = 0;
  obs::SetTracingEnabled(false);
  for (int trial = 0; trial < kTrials; ++trial) {
    for (bool traced : {false, true}) {
      ShardServer::Options options;
      options.num_workers = 2;
      options.queue_capacity = 64;
      options.service.num_threads = 1;
      auto s0 = ShardServer::Serve(path, task->lfs, options);
      auto s1 = ShardServer::Serve(path, task->lfs, options);
      if (!s0.ok() || !s1.ok()) return 1;
      RemoteShardRouter::Options router_options;
      router_options.client.max_pooled_connections = kCallers;
      router_options.request_timeout_ms = 60'000;
      auto router = RemoteShardRouter::Create(
          {{"127.0.0.1", s0->port()}, {"127.0.0.1", s1->port()}},
          router_options);
      if (!router.ok()) return 1;
      obs::SetTracingEnabled(traced);
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &batch;
        return router->Label(request).ok();
      });
      obs::SetTracingEnabled(false);
      if (trial > 0) {
        if (traced) {
          trace_on_cps = std::max(trace_on_cps, cps);
        } else {
          trace_off_cps = std::max(trace_off_cps, cps);
        }
      }
      // Drain the local ring between configs so the off runs never pay for
      // leftovers and the span count reflects one traced run.
      traced_spans = obs::CollectSpans(0, /*drain=*/true).size();
      s0->Shutdown();
      s1->Shutdown();
    }
  }
  const double overhead_pct =
      trace_off_cps > 0.0
          ? (trace_off_cps - trace_on_cps) / trace_off_cps * 100.0
          : 0.0;
  TablePrinter tracing({"Tracing", "cand/s (wall)", "Vs off"});
  tracing.AddRow({"off", TablePrinter::Cell(trace_off_cps, 0), "1.00"});
  tracing.AddRow({"on (every request)", TablePrinter::Cell(trace_on_cps, 0),
                  TablePrinter::Cell(trace_on_cps / trace_off_cps, 2)});
  std::printf("\nTracing overhead (2-shard router, %d callers, best of %d "
              "trials; %.1f%% overhead traced, %llu router-side spans in "
              "the final traced run):\n%s",
              kCallers, kTrials - 1, overhead_pct,
              static_cast<unsigned long long>(traced_spans),
              tracing.ToString().c_str());

  // ---- (6) overload goodput (PR 10): one worker serving ~2 ms/request
  // (injected), cost budget sized for ~3 queued jobs. Closed-loop callers
  // at 1x (2 callers) then 2x (4 callers); rejected callers honor the
  // retry_after hint. The ratio is what overload control buys: excess load
  // turns into typed rejections, not goodput collapse. A tiny-deadline
  // burst at the end proves expired work is cancelled mid-service. ----
  const std::vector<Candidate> probe(task->candidates.begin(),
                                     task->candidates.begin() + 64);
  const std::vector<CandidateRef> probe_rows = MakeCandidateRefs(probe);
  double overload_1x_cps = 0.0;
  double overload_2x_cps = 0.0;
  uint64_t overload_shed = 0;
  uint64_t overload_cancelled = 0;
  uint64_t overload_rejections = 0;
  {
    ShardServer::Options options;
    options.num_workers = 1;
    options.queue_capacity = 8;
    options.queue_cost_budget =
        3 * probe_rows.size() * std::max<size_t>(1, task->lfs.size());
    options.interactive_rows = 16;  // The 64-row workload rides the bulk lane.
    options.sojourn_target_ms = 50;
    options.service.num_threads = 1;
    // Every label request sleeps 2 ms: a capacity-constrained replica.
    fault::Schedule delay;
    delay.kind = fault::Schedule::Kind::kDelayNth;
    delay.n = 1;
    delay.delay_ms = 2;
    (void)fault::Arm("server.label", delay);
    auto server = ShardServer::Serve(path, task->lfs, options);
    if (!server.ok()) return 1;
    const std::vector<CandidateRef> interactive_rows(probe_rows.begin(),
                                                     probe_rows.begin() + 8);
    auto closed_loop = [&](int callers) -> double {
      RemoteShardClient::Options client_options;
      client_options.port = server->port();
      client_options.max_pooled_connections = static_cast<size_t>(callers);
      client_options.adaptive_initial_limit = 64.0;
      RemoteShardClient client = RemoteShardClient::Create(client_options);
      std::atomic<uint64_t> successes{0};
      WallTimer wall;
      const auto stop_at =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(700);
      std::vector<std::thread> threads;
      for (int t = 0; t < callers; ++t) {
        threads.emplace_back([&] {
          while (std::chrono::steady_clock::now() < stop_at) {
            uint64_t retry_after_ms = 0;
            if (client
                    .Label(task->corpus, probe_rows, false, true, 1'000,
                           nullptr, &retry_after_ms)
                    .ok()) {
              successes.fetch_add(1);
            } else if (retry_after_ms > 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(
                  std::min<uint64_t>(retry_after_ms, 50)));
            }
          }
        });
      }
      for (auto& th : threads) th.join();
      return static_cast<double>(successes.load()) *
             static_cast<double>(probe_rows.size()) / wall.ElapsedSeconds();
    };
    overload_1x_cps = closed_loop(2);
    // During the 2x run an interactive trickle (8 rows, under the lane
    // split) arrives against a cost-full bulk queue — each such arrival
    // displaces the oldest queued bulk job (the shed counter moving is the
    // priority-lane contract, not an accident of timing).
    std::atomic<bool> trickle_stop{false};
    std::thread trickle([&] {
      RemoteShardClient::Options client_options;
      client_options.port = server->port();
      client_options.adaptive_initial_limit = 64.0;
      RemoteShardClient client = RemoteShardClient::Create(client_options);
      while (!trickle_stop.load()) {
        (void)client.Label(task->corpus, interactive_rows, false, true,
                           1'000);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    overload_2x_cps = closed_loop(4);
    trickle_stop.store(true);
    trickle.join();
    // Tiny-deadline burst: 4 concurrent callers with 6 ms budgets against a
    // ~2 ms/job queue — a budget that survives admission and dequeue still
    // dies inside the injected sleep, and the cancellation token stops the
    // compute mid-service.
    {
      RemoteShardClient::Options client_options;
      client_options.port = server->port();
      client_options.adaptive_initial_limit = 64.0;
      RemoteShardClient client = RemoteShardClient::Create(client_options);
      std::vector<std::thread> burst;
      for (int t = 0; t < 4; ++t) {
        burst.emplace_back([&] {
          for (int i = 0; i < 15; ++i) {
            (void)client.Label(task->corpus, probe_rows, false, true, 6);
          }
        });
      }
      for (auto& th : burst) th.join();
    }
    // The abandoned burst jobs drain at ~2 ms each; give them a moment so
    // the counters below reflect the whole run.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    WireServerStats stats = server->stats();
    overload_shed = stats.shed_total;
    overload_cancelled = stats.expired_work_cancelled;
    overload_rejections = stats.queue_rejections;
    server->Shutdown();
    fault::Disarm("server.label");
  }
  const double overload_ratio =
      overload_1x_cps > 0.0 ? overload_2x_cps / overload_1x_cps : 0.0;
  TablePrinter overload({"Load", "goodput cand/s", "Vs 1x"});
  overload.AddRow({"1x (2 closed-loop callers)",
                   TablePrinter::Cell(overload_1x_cps, 0), "1.00"});
  overload.AddRow({"2x (4 closed-loop callers)",
                   TablePrinter::Cell(overload_2x_cps, 0),
                   TablePrinter::Cell(overload_ratio, 2)});
  std::printf("\nOverload goodput (1 worker, +2ms injected per request, "
              "cost-budgeted queue; %llu queue rejections, %llu shed, "
              "%llu expired-work cancellations):\n%s",
              static_cast<unsigned long long>(overload_rejections),
              static_cast<unsigned long long>(overload_shed),
              static_cast<unsigned long long>(overload_cancelled),
              overload.ToString().c_str());
  std::printf("(goodput at 2x within a constant factor of capacity is the "
              "overload-control contract — excess load becomes typed "
              "rejections with retry hints, not collapse)\n");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"callers\": %d, \"batch\": %zu,\n"
        "  \"inprocess_cps\": %.1f, \"loopback_cps\": %.1f, "
        "\"router2_cps\": %.1f,\n"
        "  \"failover\": {\"r1_cps\": %.1f, \"r2_cps\": %.1f, "
        "\"outage_cps\": %.1f, \"failovers\": %llu},\n"
        "  \"obs\": {\"trace_off_cps\": %.1f, \"trace_on_cps\": %.1f, "
        "\"overhead_pct\": %.2f, \"spans_per_run\": %llu},\n"
        "  \"overload\": {\"goodput_1x_cps\": %.1f, \"goodput_2x_cps\": %.1f, "
        "\"goodput_ratio_2x\": %.2f, \"queue_rejections\": %llu, "
        "\"shed\": %llu, \"expired_cancelled\": %llu}\n"
        "}\n",
        kCallers, kBatchSize, inprocess_cps, loopback_cps, router2_cps,
        r1_cps, r2_cps, outage_cps,
        static_cast<unsigned long long>(outage_failovers),
        trace_off_cps, trace_on_cps, overhead_pct,
        static_cast<unsigned long long>(traced_spans), overload_1x_cps,
        overload_2x_cps, overload_ratio,
        static_cast<unsigned long long>(overload_rejections),
        static_cast<unsigned long long>(overload_shed),
        static_cast<unsigned long long>(overload_cancelled));
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  std::remove(path.c_str());
  return 0;
}
