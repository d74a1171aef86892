#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

/// \file fault.h
/// Deterministic fault-injection substrate for the load path.
///
/// The real deployments the paper targets sit between a legacy client and a
/// cloud that throttles, times out and drops connections; this injector lets
/// the simulated substrate misbehave the same way, reproducibly. Every
/// fallible hop of the load path consults a *named fault point* before doing
/// work; when the injector is armed, a point can be configured to fail with a
/// transient error, add a latency spike, tear a write short, or drop the
/// connection — on a probability, every-Nth-call, or one-shot trigger.
///
/// Decisions are pure functions of (seed, point, rule index, per-point call
/// index), so a chaos run is bit-reproducible regardless of thread
/// interleaving *per point call order*; call order per point is made
/// deterministic in tests by using single-writer pipelines or one-shot/`n=`
/// triggers.
///
/// Spec grammar (used by `HyperQOptions::fault_spec` and the `HQ_FAULTS` env
/// variable; see DESIGN.md "Fault injection & resilient load path"):
///
///   spec    := entry (';' entry)*
///   entry   := 'seed=' uint
///            | point '=' kind (',' param)*
///   point   := objstore.put | objstore.get | cdw.copy | cdw.exec
///            | net.read | net.write | bulkload.file | tdf.read
///            | export.send | hyperq.convert
///   kind    := error | latency | torn | drop
///   param   := 'p=' float      (probability per call, default 1.0)
///            | 'n=' uint       (fire on every Nth call)
///            | 'once=' uint    (fire exactly once, on call #N, 1-based)
///            | 'us=' uint      (latency spike, microseconds)
///            | 'ms=' uint      (latency spike, milliseconds)
///            | 'frac=' float   (torn write: fraction of bytes applied)
///
///   e.g.  HQ_FAULTS='seed=42;objstore.put=error,p=0.15;cdw.copy=drop,once=2'

namespace hyperq::common {

/// What an armed fault point does to the caller.
enum class FaultKind : int {
  kError = 0,    ///< transient failure: the operation fails, nothing applied
  kLatency = 1,  ///< the operation succeeds after an injected stall
  kTorn = 2,     ///< a write applies a prefix of the payload, then fails
  kDrop = 3,     ///< connection drop: work may have applied but the ack is lost
};

/// "error" | "latency" | "torn" | "drop".
const char* FaultKindName(FaultKind kind);

/// One armed rule at a fault point. Rules at the same point are evaluated in
/// spec order; the first rule whose trigger matches the call fires.
struct FaultRule {
  FaultKind kind = FaultKind::kError;
  /// Per-call fire probability in [0,1]; evaluated from the deterministic
  /// per-call hash, so the same seed reproduces the same decision sequence.
  double probability = 1.0;
  /// When >0: fire on every Nth call to the point (1-based call numbers).
  uint64_t every_nth = 0;
  /// When >0: fire exactly once, on the Nth call to the point (1-based).
  uint64_t once_at = 0;
  /// kLatency: stall length.
  uint64_t latency_micros = 1000;
  /// kTorn: fraction of the payload applied before the failure, in [0,1].
  double torn_fraction = 0.5;
};

/// Outcome of consulting a fault point for one call.
struct FaultDecision {
  bool fired = false;
  FaultKind kind = FaultKind::kError;
  double torn_fraction = 0.5;
  /// Non-OK for kError / kTorn / kDrop; the injected failure to surface.
  Status status;
};

/// Parses the spec grammar above. On success fills `seed` (0 when the spec
/// does not set one) and appends (point-index, rule) pairs in spec order.
Status ParseFaultSpec(std::string_view spec, uint64_t* seed,
                      std::vector<std::pair<int, FaultRule>>* rules);

/// Registry-based deterministic fault injector. One process-global instance
/// (armed from `HQ_FAULTS` or `HyperQOptions::fault_spec`) plus arbitrary
/// local instances for unit tests.
///
/// The disarmed fast path is a single relaxed atomic load — cheap enough to
/// leave the checks in production builds (bench_fault_overhead holds the
/// paired overhead under 1%).
class FaultInjector {
 public:
  /// The fixed registry of known fault points.
  static constexpr int kNumPoints = 10;
  static const std::array<std::string_view, kNumPoints>& Points();
  /// Index into Points(), or -1 for an unknown name.
  static int PointIndex(std::string_view point);

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Process-global injector. First use arms it from the `HQ_FAULTS`
  /// environment variable when set (a malformed env spec aborts startup
  /// loudly rather than silently running fault-free).
  static FaultInjector& Global();

  /// Parses and installs `spec`, replacing any armed rules. An empty spec
  /// disarms. Counters are preserved across re-arms; ResetForTesting clears
  /// them.
  Status Arm(std::string_view spec) HQ_EXCLUDES(mu_);

  /// Removes all rules; Check/Inject become single-load no-ops again.
  void Disarm() HQ_EXCLUDES(mu_);

  bool armed() const { return config_.load(std::memory_order_relaxed) != nullptr; }
  uint64_t seed() const {
    const ArmedConfig* config = config_.load(std::memory_order_acquire);
    return config != nullptr ? config->seed : 0;
  }

  /// Consults `point` for the current call. When a latency rule fires the
  /// stall happens inside Check (never under any caller lock — call sites
  /// consult before acquiring theirs). For the other kinds the caller applies
  /// the semantics (fail before work, tear the write, drop the session).
  /// Unknown points never fire (callers stay total under registry drift).
  /// Lock-free: one atomic config load plus the matched point's rule scan.
  FaultDecision Check(std::string_view point);

  /// Convenience for call sites that cannot model partial application:
  /// collapses kTorn to kError and returns the injected status (latency
  /// stalls then returns OK).
  Status Inject(std::string_view point) HQ_EXCLUDES(mu_);

  /// Total faults injected at `point` since construction / last reset.
  uint64_t injected_count(std::string_view point) const;
  /// (point, injected) for every registered point, in registry order.
  std::vector<std::pair<std::string_view, uint64_t>> InjectedCounts() const;
  /// Sum of injected_count over all points.
  uint64_t total_injected() const;

  /// Disarms and zeroes all per-point call/injected counters.
  void ResetForTesting() HQ_EXCLUDES(mu_);

 private:
  struct PointState {
    /// Calls observed while armed; the per-call trigger/hash input.
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> injected{0};
    /// Bit i set once rule i (a `once=` rule) has fired.
    std::atomic<uint64_t> once_fired{0};
  };

  /// One immutable armed configuration. Check() reads it through a single
  /// atomic pointer load — no lock on the hot path, so chaos mode cannot
  /// serialize every load-path thread on one global mutex. Superseded
  /// configs are retired (not freed) under mu_ so in-flight Checks stay
  /// valid; re-arming is rare (tests and node startup), so the retired list
  /// stays tiny.
  struct ArmedConfig {
    uint64_t seed = 0;
    /// Rules per point, indexed like Points().
    std::vector<FaultRule> rules[kNumPoints];
  };

  Mutex mu_{LockRank::kObs, "fault_injector"};  ///< serializes writers only
  /// Current config; null = disarmed. Written under mu_, read lock-free.
  std::atomic<const ArmedConfig*> config_{nullptr};
  /// Owns every config ever installed (including the current one).
  std::vector<std::unique_ptr<const ArmedConfig>> retired_ HQ_GUARDED_BY(mu_);
  PointState points_[kNumPoints];
};

}  // namespace hyperq::common
