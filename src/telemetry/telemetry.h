#ifndef WLM_TELEMETRY_TELEMETRY_H_
#define WLM_TELEMETRY_TELEMETRY_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/monitor.h"
#include "engine/types.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/profile.h"
#include "telemetry/slo.h"
#include "telemetry/slo_watchdog.h"
#include "telemetry/trace.h"

namespace wlm {

/// Synthetic observability tracks: control-plane episodes (fault windows,
/// overload actions, cluster routing events) render as spans of one
/// pseudo-query per track, so exported traces show them inline with the
/// queries they disturbed.
enum class SyntheticTrack {
  kFaults = 0,    ///< fault-injection windows and spontaneous aborts
  kOverload = 1,  ///< breaker open windows, brownout episodes, discipline
  kCluster = 2,   ///< dispatcher routing / shard lifecycle events
};

/// Base of the reserved synthetic-id block: the topmost 2^20 ids of the
/// QueryId space. Real query ids are assigned sequentially from small
/// integers and the WorkloadManager rejects submissions inside the block,
/// so a synthetic track id can never alias a live query (the old
/// sentinels — 0 for faults, 0xE000... for overload — could).
inline constexpr QueryId kSyntheticQueryIdBase = 0xFFFFFFFFFFF00000ULL;

constexpr QueryId SyntheticTrackId(SyntheticTrack track) {
  return kSyntheticQueryIdBase + static_cast<QueryId>(track);
}

constexpr bool IsSyntheticQueryId(QueryId id) {
  return id >= kSyntheticQueryIdBase;
}

/// Stable workload/track label for a synthetic track ("faults",
/// "overload", "cluster").
const char* SyntheticTrackName(SyntheticTrack track);

/// The tracer and profile store keep their default bounds (8192 queries
/// each, oldest finished evicted first) and the flight recorder its
/// default ring, cooldown and dump budget.
struct TelemetryOptions {
  /// When false every hook returns immediately (one predictable branch on
  /// the hot path) and nothing is recorded.
  bool enabled = true;
  /// Per-query latency decomposition + resource attribution (QueryProfile
  /// store, wlm_phase_seconds_total metrics, phase tiles in the Chrome
  /// trace) and the black-box flight recorder fed from it (post-mortem
  /// dumps on SLO violations, breaker trips and fault windows). Ignored
  /// while `enabled` is false.
  bool profiling = true;
};

/// The observability facade the WorkloadManager drives: per-query span
/// traces, the labeled metrics registry, and the SLO watchdog, all fed
/// from the manager's lifecycle hooks and the monitor's sampling loop.
/// Purely passive — it records simulated time but never schedules events
/// or perturbs any control decision, so enabling/disabling it cannot
/// change a run's outcome.
class Telemetry {
 public:
  /// `event_log` is the manager's control-plane log; the SLO watchdog
  /// appends its violation events there. May be nullptr.
  Telemetry(Simulation* sim, Monitor* monitor, EventLog* event_log,
            TelemetryOptions options = TelemetryOptions());

  bool enabled() const { return enabled_; }

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SloWatchdog& watchdog() { return watchdog_; }
  const SloWatchdog& watchdog() const { return watchdog_; }
  /// Per-query latency decomposition + resource attribution store.
  ProfileStore& profiles() { return profiles_; }
  const ProfileStore& profiles() const { return profiles_; }
  /// Black-box flight recorder (post-mortem ring + dumps).
  FlightRecorder& flight_recorder() { return recorder_; }
  const FlightRecorder& flight_recorder() const { return recorder_; }
  [[nodiscard]] bool profiling() const { return enabled_ && profiling_; }
  /// Controller-plane state as the facade currently knows it (what a
  /// post-mortem snapshot would capture right now).
  ControllerStateSnapshot ControllerState() const;

  /// Replaces the watched SLOs of `workload` (on workload definition).
  void WatchSlos(const std::string& workload,
                 const std::vector<ServiceLevelObjective>& slos);

  // --- lifecycle hooks (all no-ops when disabled) --------------------------
  /// `journey` is the cluster-assigned journey id carried on the spec
  /// (0 outside a cluster); it lands on the QueryProfile so per-shard
  /// profiles stitch into one cross-shard journey DAG.
  void OnSubmit(QueryId id, const std::string& workload, QueryKind kind,
                uint64_t journey = 0);
  /// Admission accepted: zero-length admit span + queue span opens.
  void OnAdmitted(QueryId id, const std::string& workload);
  /// Admission refused by `gate`; the trace ends here.
  void OnRejected(QueryId id, const std::string& workload,
                  const std::string& gate, const std::string& reason);
  /// Back in the queue after a kill/deadlock resubmission or suspension
  /// has already been handled (opens a fresh queue span).
  void OnRequeued(QueryId id, const std::string& workload);
  /// A dispatch-time admission gate held the request back this round.
  void OnDispatchGated(QueryId id, const std::string& workload,
                       const std::string& gate);
  void OnDispatch(QueryId id, const std::string& workload, bool resumed);
  void OnSuspendStart(QueryId id, const std::string& workload,
                      const char* strategy);
  /// State flush finished; the request waits for resume.
  void OnSuspended(QueryId id, const std::string& workload);
  /// One engine run segment ended with any OutcomeKind (terminal or not):
  /// folds the segment's phase decomposition and resource usage into the
  /// query's profile and adds phase tiles to its trace. Fired before the
  /// outcome-specific hook (OnTerminal / OnSuspended / OnRequeued).
  void OnRunSegment(QueryId id, const std::string& workload,
                    const QueryOutcome& outcome);
  /// Terminal outcome (completed / killed / aborted).
  void OnTerminal(QueryId id, const std::string& workload,
                  const char* outcome_name, double response_seconds,
                  double queue_wait_seconds, const QueryOutcome& outcome);
  /// Timeout-escalation ladder stepped a request onto `rung`
  /// (throttle / suspend / kill / deadline_kill).
  void OnEscalation(QueryId id, const std::string& workload,
                    const char* rung);
  void OnThrottle(QueryId id, const std::string& workload, double duty);
  void OnPause(QueryId id, const std::string& workload, double seconds);
  void OnReprioritize(QueryId id, const std::string& workload,
                      const char* priority);
  // --- fault & resilience hooks --------------------------------------------
  /// A fault window opened (`kind` is the FaultKind name).
  void OnFaultBegin(const std::string& kind, const std::string& detail);
  /// The window that began at `started_at` closed; records the whole
  /// window as one kFault span on the fault track.
  void OnFaultEnd(const std::string& kind, double started_at);
  /// The injector spontaneously aborted a running request.
  void OnFaultAbort(QueryId id, const std::string& workload,
                    const std::string& reason);
  /// The resilience policy scheduled a retry after `delay_seconds`.
  void OnFaultRetry(QueryId id, const std::string& workload,
                    double delay_seconds);
  /// Graceful-degradation state flipped (MPL shed / low-priority throttle).
  void SetDegraded(bool degraded);
  // --- overload-protection hooks -------------------------------------------
  /// Overload protection dropped the request (`reason` is the shed cause:
  /// queue_full / brownout / breaker_open / codel / deadline). Ends the
  /// trace.
  void OnShed(QueryId id, const std::string& workload,
              const std::string& reason);
  /// A resilience retry was blocked (`reason`: budget / deadline).
  void OnRetryDenied(QueryId id, const std::string& workload,
                     const std::string& reason);
  /// A workload's circuit breaker changed state. `state` is the numeric
  /// CircuitBreaker::State (0 closed, 1 half-open, 2 open); when the
  /// breaker leaves the open state, `opened_at >= 0` records the whole
  /// open window as one kOverload span on the overload track.
  void OnBreakerTransition(const std::string& workload, int state,
                           const char* state_name, double opened_at,
                           const std::string& detail);
  /// The brownout shed level stepped; `entered_at >= 0` closes the
  /// episode span when the level returns to zero.
  void OnBrownoutStep(int level, double entered_at,
                      const std::string& detail);
  /// The wait queue flipped FIFO<->LIFO under the CoDel discipline.
  void OnQueueDiscipline(bool lifo);

  /// Monitor sampling instant: indicator gauges + SLO watchdog sweep.
  /// `queue_depth` and per-workload occupancy come from the manager.
  void OnMonitorSample(const SystemIndicators& indicators, size_t queue_depth,
                       size_t running_count);
  void SetWorkloadOccupancy(const std::string& workload, int queued,
                            int running);

 private:
  double Now() const;
  /// Finalizes a profile: phase metrics, flight-recorder ring, rollups.
  void FinalizeProfile(QueryId id, const std::string& outcome,
                       const std::string& detail);
  /// Emits kPhase tile spans partitioning [start, start+sum(phases)).
  void AddPhaseTiles(QueryId id, double start, const ExecPhaseTotals& phases);
  /// Fires the flight recorder with the current controller state.
  void TriggerFlightRecorder(const std::string& reason);

  Simulation* sim_;
  Monitor* monitor_;
  EventLog* event_log_;
  const bool enabled_;
  const bool profiling_;
  Tracer tracer_;
  MetricsRegistry metrics_;
  SloWatchdog watchdog_;
  ProfileStore profiles_;
  FlightRecorder recorder_;
  // Controller-plane state mirrored from the hooks, for post-mortems.
  bool degraded_ = false;
  int active_faults_ = 0;
  int brownout_level_ = 0;
  bool queue_lifo_ = false;
  size_t last_queue_depth_ = 0;
  size_t last_running_ = 0;
  SystemIndicators last_indicators_;
  std::map<std::string, int> breaker_states_;
  size_t violations_seen_ = 0;  // watchdog watermark for trigger edges
  // Per-workload cache of wlm_phase_seconds_total series: Counter objects
  // are heap-allocated and pointer-stable, so finalizing a query costs one
  // hash lookup instead of building + sorting + serializing a label set
  // per nonzero phase.
  std::unordered_map<std::string, std::array<Counter*, kPhaseCount>>
      phase_counters_;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_TELEMETRY_H_
