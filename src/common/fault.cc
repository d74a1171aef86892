#include "common/fault.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/string_util.h"

namespace hyperq::common {
namespace {

// splitmix64: a tiny, well-mixed pure hash. Decisions must be functions of
// (seed, point, rule, call index) only — never of wall clock or a shared RNG
// stream — so concurrent points cannot perturb each other's sequences.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashString(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Uniform double in [0,1) from the top 53 bits of a hash.
double UnitInterval(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Status BadSpec(std::string_view spec, const std::string& why) {
  return Status::Invalid("fault spec '" + std::string(spec) + "': " + why);
}

Status ParseUint(std::string_view text, uint64_t* out) {
  if (text.empty()) return Status::Invalid("empty number");
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return Status::Invalid("bad number '" + std::string(text) + "'");
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return Status::OK();
}

Status ParseFraction(std::string_view text, double* out) {
  if (text.empty()) return Status::Invalid("empty number");
  char* end = nullptr;
  std::string buf(text);
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::Invalid("bad number '" + buf + "'");
  }
  if (!(v >= 0.0 && v <= 1.0)) return Status::Invalid("'" + buf + "' not in [0,1]");
  *out = v;
  return Status::OK();
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kError:
      return "error";
    case FaultKind::kLatency:
      return "latency";
    case FaultKind::kTorn:
      return "torn";
    case FaultKind::kDrop:
      return "drop";
  }
  return "?";
}

const std::array<std::string_view, FaultInjector::kNumPoints>& FaultInjector::Points() {
  static const std::array<std::string_view, kNumPoints> kPoints = {
      "objstore.put", "objstore.get", "cdw.copy",      "cdw.exec",
      "net.read",     "net.write",    "bulkload.file", "tdf.read",
      "export.send",  "hyperq.convert",
  };
  return kPoints;
}

int FaultInjector::PointIndex(std::string_view point) {
  const auto& points = Points();
  for (int i = 0; i < kNumPoints; ++i) {
    if (points[i] == point) return i;
  }
  return -1;
}

Status ParseFaultSpec(std::string_view spec, uint64_t* seed,
                      std::vector<std::pair<int, FaultRule>>* rules) {
  *seed = 0;
  for (const std::string& raw : Split(spec, ';')) {
    std::string_view entry = TrimView(raw);
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return BadSpec(spec, "entry '" + std::string(entry) + "' has no '='");
    }
    std::string_view lhs = TrimView(entry.substr(0, eq));
    std::string_view rhs = TrimView(entry.substr(eq + 1));
    if (lhs == "seed") {
      Status s = ParseUint(rhs, seed);
      if (!s.ok()) return BadSpec(spec, s.message());
      continue;
    }
    int point = FaultInjector::PointIndex(lhs);
    if (point < 0) {
      return BadSpec(spec, "unknown fault point '" + std::string(lhs) + "'");
    }
    std::vector<std::string> parts = Split(rhs, ',');
    if (parts.empty()) return BadSpec(spec, "no fault kind for '" + std::string(lhs) + "'");
    FaultRule rule;
    std::string_view kind = TrimView(parts[0]);
    if (kind == "error") {
      rule.kind = FaultKind::kError;
    } else if (kind == "latency") {
      rule.kind = FaultKind::kLatency;
    } else if (kind == "torn") {
      rule.kind = FaultKind::kTorn;
    } else if (kind == "drop") {
      rule.kind = FaultKind::kDrop;
    } else {
      return BadSpec(spec, "unknown fault kind '" + std::string(kind) + "'");
    }
    for (size_t i = 1; i < parts.size(); ++i) {
      std::string_view param = TrimView(parts[i]);
      size_t peq = param.find('=');
      if (peq == std::string_view::npos) {
        return BadSpec(spec, "parameter '" + std::string(param) + "' has no '='");
      }
      std::string_view key = TrimView(param.substr(0, peq));
      std::string_view val = TrimView(param.substr(peq + 1));
      Status s = Status::OK();
      uint64_t u = 0;
      if (key == "p") {
        s = ParseFraction(val, &rule.probability);
      } else if (key == "n") {
        s = ParseUint(val, &u);
        if (s.ok() && u == 0) s = Status::Invalid("n= must be >= 1");
        rule.every_nth = u;
      } else if (key == "once") {
        s = ParseUint(val, &u);
        if (s.ok() && u == 0) s = Status::Invalid("once= must be >= 1");
        rule.once_at = u;
      } else if (key == "us") {
        s = ParseUint(val, &rule.latency_micros);
      } else if (key == "ms") {
        s = ParseUint(val, &u);
        rule.latency_micros = u * 1000;
      } else if (key == "frac") {
        s = ParseFraction(val, &rule.torn_fraction);
      } else {
        s = Status::Invalid("unknown parameter '" + std::string(key) + "'");
      }
      if (!s.ok()) return BadSpec(spec, s.message());
    }
    rules->emplace_back(point, rule);
  }
  return Status::OK();
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  static bool armed_from_env = [] {
    if (const char* env = std::getenv("HQ_FAULTS"); env != nullptr && env[0] != '\0') {
      Status s = injector.Arm(env);
      if (!s.ok()) {
        // A chaos run with a silently-ignored spec would pass vacuously;
        // better to fail the process at the first fault-point check.
        std::fprintf(stderr, "HQ_FAULTS rejected: %s\n", s.ToString().c_str());
        std::abort();
      }
    }
    return true;
  }();
  (void)armed_from_env;
  return injector;
}

Status FaultInjector::Arm(std::string_view spec) {
  uint64_t seed = 0;
  std::vector<std::pair<int, FaultRule>> parsed;
  HQ_RETURN_NOT_OK(ParseFaultSpec(spec, &seed, &parsed));
  MutexLock lock(&mu_);
  if (parsed.empty()) {
    config_.store(nullptr, std::memory_order_release);
    return Status::OK();
  }
  auto config = std::make_unique<ArmedConfig>();
  config->seed = seed;
  for (auto& [point, rule] : parsed) config->rules[point].push_back(rule);
  for (auto& point : points_) point.once_fired.store(0, std::memory_order_relaxed);
  config_.store(config.get(), std::memory_order_release);
  retired_.push_back(std::move(config));
  return Status::OK();
}

void FaultInjector::Disarm() {
  MutexLock lock(&mu_);
  config_.store(nullptr, std::memory_order_release);
}

FaultDecision FaultInjector::Check(std::string_view point) {
  FaultDecision decision;
  // Disarmed fast path: one atomic load. Armed path adds only the matched
  // point's rule scan — never a lock, so chaos mode cannot serialize
  // unrelated load-path threads through the injector.
  const ArmedConfig* config = config_.load(std::memory_order_acquire);
  if (config == nullptr) return decision;
  int idx = PointIndex(point);
  if (idx < 0) return decision;
  PointState& state = points_[idx];
  // 1-based call number; the trigger/hash input. Bumped only while armed so a
  // spec's `once=`/`n=` counts line up with calls made under chaos.
  uint64_t call = state.calls.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t latency_micros = 0;
  const std::vector<FaultRule>& rules = config->rules[idx];
  for (size_t r = 0; r < rules.size(); ++r) {
    const FaultRule& rule = rules[r];
    bool fire = true;
    if (rule.once_at > 0) {
      uint64_t bit = uint64_t{1} << (r & 63);
      fire = call == rule.once_at &&
             (state.once_fired.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
    } else if (rule.every_nth > 0) {
      fire = call % rule.every_nth == 0;
    }
    if (fire && rule.probability < 1.0) {
      uint64_t h = Mix64(config->seed ^ HashString(point) ^ (uint64_t{r} << 48) ^ call);
      fire = UnitInterval(h) < rule.probability;
    }
    if (!fire) continue;
    decision.fired = true;
    decision.kind = rule.kind;
    decision.torn_fraction = rule.torn_fraction;
    latency_micros = rule.latency_micros;
    break;
  }
  if (!decision.fired) return decision;
  state.injected.fetch_add(1, std::memory_order_relaxed);
  std::string where = std::string(point) + " call#" + std::to_string(call);
  switch (decision.kind) {
    case FaultKind::kLatency:
      // Stall outside the injector lock (and by contract outside any caller
      // lock — call sites consult their fault point before acquiring theirs).
      std::this_thread::sleep_for(std::chrono::microseconds(latency_micros));
      break;
    case FaultKind::kError:
      decision.status = Status::IOError("injected transient error at " + where);
      break;
    case FaultKind::kTorn:
      decision.status = Status::IOError("injected torn write at " + where);
      break;
    case FaultKind::kDrop:
      decision.status = Status::IOError("injected connection drop at " + where);
      break;
  }
  return decision;
}

Status FaultInjector::Inject(std::string_view point) {
  FaultDecision decision = Check(point);
  return decision.status;
}

uint64_t FaultInjector::injected_count(std::string_view point) const {
  int idx = PointIndex(point);
  if (idx < 0) return 0;
  return points_[idx].injected.load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string_view, uint64_t>> FaultInjector::InjectedCounts() const {
  std::vector<std::pair<std::string_view, uint64_t>> out;
  out.reserve(kNumPoints);
  for (int i = 0; i < kNumPoints; ++i) {
    out.emplace_back(Points()[i], points_[i].injected.load(std::memory_order_relaxed));
  }
  return out;
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (const auto& point : points_) total += point.injected.load(std::memory_order_relaxed);
  return total;
}

void FaultInjector::ResetForTesting() {
  MutexLock lock(&mu_);
  config_.store(nullptr, std::memory_order_release);
  // retired_ is deliberately kept: an in-flight Check on another thread may
  // still be reading a superseded config.
  for (auto& point : points_) {
    point.calls.store(0, std::memory_order_relaxed);
    point.injected.store(0, std::memory_order_relaxed);
    point.once_fired.store(0, std::memory_order_relaxed);
  }
}

}  // namespace hyperq::common
