// shard_server: one serving process of the networked shard fabric — a
// LabelService replica behind a TCP socket speaking the net/wire.h protocol
// (net/shard_server.h), with optional SnapshotStore watching for
// zero-downtime rollout.
//
//   shard_server (--snapshot a.snk | --store dir) [--port N] [--port-file P]
//                [--lfset cdr-demo] [--queue-capacity N] [--workers N]
//                [--queue-cost-budget N] [--interactive-rows N]
//                [--sojourn-target-ms N]
//                [--watch-interval-ms N]
//                [--inject-delay-every-n N] [--inject-delay-ms N]
//                [--fault site=kind:params ...] [--process-label NAME]
//
// --queue-cost-budget turns on cost-aware admission (jobs priced rows × LFs
// against the budget), --interactive-rows sets the interactive/bulk lane
// split, --sojourn-target-ms turns on CoDel-style shedding of over-age bulk
// work at pop. All three default off/neutral (count-only admission).
//
// --process-label names this process in exported trace spans (trace_dump
// stitching); the default is "shard-<port>".
//
// --fault arms a util/fault.h injection site at startup (repeatable), e.g.
// --fault net.send=fail-nth:3 or --fault server.label=delay-prob:0.1:50:7;
// the same sites are re-configurable at runtime over the wire
// (kFaultRequest).
//
// LF code cannot be serialized into a snapshot, so the serving process must
// construct the live LF set itself and the server validates it against the
// artifact's names/fingerprints. --lfset selects a built-in set; "cdr-demo"
// is the chemical-disease demo set used by the repo's fixtures, benches, and
// the loopback integration test (tests/net_integration_test.cc builds its
// snapshot over the exact same set).
//
// --port 0 (default) binds an ephemeral port; --port-file writes the bound
// port (single line) once the server is listening, which is how test
// harnesses discover where to connect. Runs until SIGTERM/SIGINT, then
// drains and exits 0.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "lf/declarative.h"
#include "net/shard_server.h"
#include "obs/trace.h"
#include "util/binary_io.h"
#include "util/fault.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

snorkel::Result<snorkel::LabelingFunctionSet> MakeLfSet(
    const std::string& name) {
  using namespace snorkel;
  if (name == "cdr-demo") {
    // Must stay in lock-step with the ShardFixture/net fixture LF set: the
    // snapshot's fingerprints pin these exact (name, version) pairs.
    LabelingFunctionSet lfs;
    lfs.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));
    lfs.Add(MakeKeywordBetweenLF("lf_treats", {"treat"}, -1));
    lfs.Add(MakeDistanceLF("lf_far", 4, -1));
    return lfs;
  }
  return Status::InvalidArgument("unknown --lfset '" + name +
                                 "' (available: cdr-demo)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snorkel;
  std::string snapshot_path;
  std::string store_dir;
  std::string port_file;
  std::string lfset = "cdr-demo";
  std::string process_label;
  ShardServer::Options options;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    auto next = [&]() -> const char* {
      return a + 1 < argc ? argv[++a] : "";
    };
    if (arg == "--snapshot") {
      snapshot_path = next();
    } else if (arg == "--store") {
      store_dir = next();
    } else if (arg == "--port") {
      options.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--lfset") {
      lfset = next();
    } else if (arg == "--process-label") {
      process_label = next();
    } else if (arg == "--queue-capacity") {
      options.queue_capacity = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--queue-cost-budget") {
      options.queue_cost_budget = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--interactive-rows") {
      options.interactive_rows = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--sojourn-target-ms") {
      options.sojourn_target_ms = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--workers") {
      options.num_workers = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--watch-interval-ms") {
      options.watch_interval_ms = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--inject-delay-every-n") {
      options.inject_delay_every_n = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--inject-delay-ms") {
      options.inject_delay_ms = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--fault") {
      auto parsed = fault::ParseSpec(next());
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      Status armed = fault::Arm(parsed->first, parsed->second);
      if (!armed.ok()) {
        std::fprintf(stderr, "%s\n", armed.ToString().c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  if (snapshot_path.empty() == store_dir.empty()) {
    std::fprintf(stderr,
                 "usage: shard_server (--snapshot a.snk | --store dir) "
                 "[--port N] [--port-file P] [--lfset cdr-demo]\n");
    return 1;
  }

  auto lfs = MakeLfSet(lfset);
  if (!lfs.ok()) {
    std::fprintf(stderr, "%s\n", lfs.status().ToString().c_str());
    return 1;
  }

  auto server =
      store_dir.empty()
          ? ShardServer::Serve(snapshot_path, *lfs, options)
          : ShardServer::ServeFromStore(store_dir, *lfs, options);
  if (!server.ok()) {
    std::fprintf(stderr, "cannot serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  // The server installed "shard-<port>" at Start; an explicit label wins.
  if (!process_label.empty()) obs::SetProcessLabel(process_label);
  std::fprintf(stderr, "shard_server listening on 127.0.0.1:%u\n",
               server->port());
  if (!port_file.empty()) {
    Status written =
        WriteFileBytes(port_file, std::to_string(server->port()) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write --port-file: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server->Shutdown();
  WireServerStats stats = server->stats();
  std::fprintf(stderr,
               "shard_server exiting: %llu requests, %llu candidates, "
               "%llu rejections, %llu shed, %llu cancelled, "
               "%llu swaps (%llu rejected), %llu faults injected\n",
               static_cast<unsigned long long>(stats.requests_served),
               static_cast<unsigned long long>(stats.candidates_served),
               static_cast<unsigned long long>(stats.queue_rejections),
               static_cast<unsigned long long>(stats.shed_total),
               static_cast<unsigned long long>(stats.expired_work_cancelled),
               static_cast<unsigned long long>(stats.snapshot_swaps),
               static_cast<unsigned long long>(stats.rejected_swaps),
               static_cast<unsigned long long>(stats.faults_injected));
  return 0;
}
