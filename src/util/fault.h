#ifndef SNORKEL_UTIL_FAULT_H_
#define SNORKEL_UTIL_FAULT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "util/status.h"

namespace snorkel {
namespace fault {

/// Deterministic fault-injection fabric: a process-wide registry of named
/// injection sites threaded through the I/O and admission paths
/// ("net.send", "net.recv", "queue.admit", "store.load", "server.label",
/// "client.encode").
/// A site does NOTHING until armed with a seeded Schedule; the disarmed
/// check is one relaxed atomic load, so production paths pay a branch, not
/// a lock. Armed schedules are pure functions of (schedule, hit index,
/// seed): the same arming reproduces the same fault sequence in every run —
/// chaos tests assert exact behavior instead of hoping the race happens.
///
/// Injected FAILURES surface as whatever typed error the site's caller
/// returns for a real fault of that kind (a failed send is kUnavailable, a
/// rejected admission kResourceExhausted, ...), so an injected fault is
/// indistinguishable from a real one downstream — which is the point.
/// Injected DELAYS sleep inside Point() and then let the operation proceed
/// (latency spikes; results stay bit-identical).

/// Seeded schedule for one site.
struct Schedule {
  enum class Kind : uint32_t {
    /// Every `n`-th hit of the site faults (1-based: n=1 → every hit).
    kFailNth = 0,
    /// Each hit faults with `probability` (seeded, deterministic).
    kFailProbability = 1,
    /// Every `n`-th hit sleeps `delay_ms` (latency spike).
    kDelayNth = 2,
    /// Each hit sleeps `delay_ms` with `probability`.
    kDelayProbability = 3,
  };
  Kind kind = Kind::kFailNth;
  uint64_t n = 1;
  double probability = 0.0;
  uint64_t delay_ms = 0;
  uint64_t seed = 42;
  /// Auto-disarm the site after this many INJECTED faults/delays; 0 = keep
  /// going until Disarm().
  uint64_t max_hits = 0;
};

/// True while any site is armed (one relaxed atomic load — the cost of the
/// fabric when unused).
bool Armed();

/// The injection check: true when the site must FAIL this hit (the caller
/// returns its typed error); injected delays have already been slept by the
/// time it returns false. No-op (false) when the site is not armed.
bool Point(const char* site);

/// Arms `site` with `schedule` (replacing any previous schedule; hit
/// counters reset). InvalidArgument for malformed schedules.
Status Arm(const std::string& site, const Schedule& schedule);

/// Disarms one site; true when it was armed.
bool Disarm(const std::string& site);

void DisarmAll();

/// Process-wide count of injected faults + delays (the `faults_injected`
/// resilience counter).
uint64_t InjectedCount();

/// Injected faults + delays at one site (0 when never armed).
uint64_t SiteInjected(const std::string& site);

/// Parses "site=kind:params" specs (the CLI / wire surface):
///   net.send=fail-nth:3            every 3rd send fails
///   net.send=fail-prob:0.25:7      25% of sends fail, seed 7 (seed optional)
///   server.label=delay-nth:2:400   every 2nd label sleeps 400 ms
///   net.recv=delay-prob:0.1:50:7   10% of recvs sleep 50 ms, seed 7
Result<std::pair<std::string, Schedule>> ParseSpec(const std::string& spec);

/// Inverse of ParseSpec (diagnostics, tests).
std::string FormatSpec(const std::string& site, const Schedule& schedule);

}  // namespace fault
}  // namespace snorkel

#endif  // SNORKEL_UTIL_FAULT_H_
