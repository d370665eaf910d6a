#include "util/fault.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/random.h"

namespace snorkel {
namespace fault {

namespace {

struct Site {
  Schedule schedule;
  uint64_t hits = 0;      // Times the site was evaluated while armed.
  uint64_t injected = 0;  // Faults + delays actually injected.
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Site> sites;
  /// Injected counts survive Disarm (stats outlive the schedule).
  std::unordered_map<std::string, uint64_t> retired_injected;
};

/// Leaked singletons: injection sites may still be called from threads that
/// run during static destruction.
Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

std::atomic<uint64_t>& ArmedCount() {
  static std::atomic<uint64_t>* count = new std::atomic<uint64_t>(0);
  return *count;
}

std::atomic<uint64_t>& TotalInjected() {
  static std::atomic<uint64_t>* count = new std::atomic<uint64_t>(0);
  return *count;
}

Status Validate(const Schedule& schedule) {
  switch (schedule.kind) {
    case Schedule::Kind::kFailNth:
    case Schedule::Kind::kDelayNth:
      if (schedule.n == 0) {
        return Status::InvalidArgument("fault schedule: n must be >= 1");
      }
      break;
    case Schedule::Kind::kFailProbability:
    case Schedule::Kind::kDelayProbability:
      if (schedule.probability < 0.0 || schedule.probability > 1.0) {
        return Status::InvalidArgument(
            "fault schedule: probability must be in [0, 1]");
      }
      break;
    default:
      return Status::InvalidArgument("fault schedule: unknown kind " +
                                     std::to_string(static_cast<uint32_t>(
                                         schedule.kind)));
  }
  return Status::OK();
}

}  // namespace

bool Armed() {
  return ArmedCount().load(std::memory_order_relaxed) > 0;
}

bool Point(const char* site) {
  if (!Armed()) return false;
  uint64_t delay_ms = 0;
  bool fail = false;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.sites.find(site);
    if (it == registry.sites.end()) return false;
    Site& entry = it->second;
    const Schedule& schedule = entry.schedule;
    uint64_t hit = ++entry.hits;  // 1-based.
    bool trigger = false;
    switch (schedule.kind) {
      case Schedule::Kind::kFailNth:
      case Schedule::Kind::kDelayNth:
        trigger = hit % schedule.n == 0;
        break;
      case Schedule::Kind::kFailProbability:
      case Schedule::Kind::kDelayProbability: {
        // Per-hit deterministic draw: the k-th evaluation of a site draws
        // the same value in every run with the same seed.
        SplitMix64 rng(schedule.seed, hit);
        trigger = rng.Uniform() < schedule.probability;
        break;
      }
    }
    if (trigger) {
      ++entry.injected;
      TotalInjected().fetch_add(1, std::memory_order_relaxed);
      if (schedule.kind == Schedule::Kind::kFailNth ||
          schedule.kind == Schedule::Kind::kFailProbability) {
        fail = true;
      } else {
        delay_ms = schedule.delay_ms;
      }
      if (schedule.max_hits > 0 && entry.injected >= schedule.max_hits) {
        registry.retired_injected[site] += entry.injected;
        registry.sites.erase(it);
        ArmedCount().fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return fail;
}

Status Arm(const std::string& site, const Schedule& schedule) {
  if (site.empty()) {
    return Status::InvalidArgument("fault site name must be non-empty");
  }
  SNORKEL_RETURN_IF_ERROR(Validate(schedule));
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(site);
  if (it != registry.sites.end()) {
    registry.retired_injected[site] += it->second.injected;
    it->second = Site{schedule, 0, 0};
  } else {
    registry.sites.emplace(site, Site{schedule, 0, 0});
    ArmedCount().fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

bool Disarm(const std::string& site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(site);
  if (it == registry.sites.end()) return false;
  registry.retired_injected[site] += it->second.injected;
  registry.sites.erase(it);
  ArmedCount().fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& [site, entry] : registry.sites) {
    registry.retired_injected[site] += entry.injected;
  }
  ArmedCount().fetch_sub(registry.sites.size(), std::memory_order_relaxed);
  registry.sites.clear();
}

uint64_t InjectedCount() {
  return TotalInjected().load(std::memory_order_relaxed);
}

uint64_t SiteInjected(const std::string& site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  uint64_t count = 0;
  auto retired = registry.retired_injected.find(site);
  if (retired != registry.retired_injected.end()) count = retired->second;
  auto live = registry.sites.find(site);
  if (live != registry.sites.end()) count += live->second.injected;
  return count;
}

Result<std::pair<std::string, Schedule>> ParseSpec(const std::string& spec) {
  size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("fault spec '" + spec +
                                   "' is not site=kind:params");
  }
  std::string site = spec.substr(0, eq);
  std::vector<std::string> parts;
  for (size_t begin = eq + 1; begin <= spec.size();) {
    size_t colon = spec.find(':', begin);
    if (colon == std::string::npos) colon = spec.size();
    parts.push_back(spec.substr(begin, colon - begin));
    begin = colon + 1;
  }
  if (parts.empty() || parts[0].empty()) {
    return Status::InvalidArgument("fault spec '" + spec +
                                   "' is missing its kind");
  }
  auto u64_at = [&](size_t i, uint64_t fallback) -> uint64_t {
    return i < parts.size() ? std::strtoull(parts[i].c_str(), nullptr, 10)
                            : fallback;
  };
  auto f64_at = [&](size_t i) -> double {
    return i < parts.size() ? std::strtod(parts[i].c_str(), nullptr) : 0.0;
  };
  Schedule schedule;
  const std::string& kind = parts[0];
  if (kind == "fail-nth") {
    schedule.kind = Schedule::Kind::kFailNth;
    schedule.n = u64_at(1, 0);
  } else if (kind == "fail-prob") {
    schedule.kind = Schedule::Kind::kFailProbability;
    schedule.probability = f64_at(1);
    schedule.seed = u64_at(2, schedule.seed);
  } else if (kind == "delay-nth") {
    schedule.kind = Schedule::Kind::kDelayNth;
    schedule.n = u64_at(1, 0);
    schedule.delay_ms = u64_at(2, 0);
  } else if (kind == "delay-prob") {
    schedule.kind = Schedule::Kind::kDelayProbability;
    schedule.probability = f64_at(1);
    schedule.delay_ms = u64_at(2, 0);
    schedule.seed = u64_at(3, schedule.seed);
  } else {
    return Status::InvalidArgument(
        "fault spec '" + spec + "': unknown kind '" + kind +
        "' (fail-nth | fail-prob | delay-nth | delay-prob)");
  }
  SNORKEL_RETURN_IF_ERROR(Validate(schedule));
  return std::make_pair(std::move(site), schedule);
}

std::string FormatSpec(const std::string& site, const Schedule& schedule) {
  std::string out = site + "=";
  switch (schedule.kind) {
    case Schedule::Kind::kFailNth:
      out += "fail-nth:" + std::to_string(schedule.n);
      break;
    case Schedule::Kind::kFailProbability:
      out += "fail-prob:" + std::to_string(schedule.probability) + ":" +
             std::to_string(schedule.seed);
      break;
    case Schedule::Kind::kDelayNth:
      out += "delay-nth:" + std::to_string(schedule.n) + ":" +
             std::to_string(schedule.delay_ms);
      break;
    case Schedule::Kind::kDelayProbability:
      out += "delay-prob:" + std::to_string(schedule.probability) + ":" +
             std::to_string(schedule.delay_ms) + ":" +
             std::to_string(schedule.seed);
      break;
  }
  return out;
}

}  // namespace fault
}  // namespace snorkel
