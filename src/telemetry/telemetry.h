#ifndef WLM_TELEMETRY_TELEMETRY_H_
#define WLM_TELEMETRY_TELEMETRY_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
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

/// The tracer keeps its default bound (8192 query records, trace and
/// profile each, oldest finished evicted first) and the flight recorder its
/// default dump size, cooldown and dump budget. Neither switch touches the
/// event log: the facade writes it either way.
struct TelemetryOptions {
  /// When false every hook returns right after appending its event-log
  /// line, if it has one (one predictable branch on the hot path), and
  /// nothing else is recorded.
  bool enabled = true;
  /// Per-query latency decomposition + resource attribution (QueryProfile
  /// store, wlm_phase_seconds_total metrics, phase tiles in the Chrome
  /// trace) and the black-box flight recorder that reads it (post-mortem
  /// dumps on SLO violations, breaker trips, fault windows and shard
  /// deaths). Ignored while `enabled` is false.
  bool profiling = true;
};

/// The observability facade the WorkloadManager drives, and the only
/// recorder of a lifecycle fact on a node: the manager makes one hook call
/// per fact. A hook whose fact has a WlmEventType first appends its line to
/// the control-plane event log (always, even when disabled, so the log is
/// the same with telemetry on or off); then every hook fans out to the
/// query's tracer record (its trace and, through the profile store, its
/// profile), the labeled metrics registry and the SLO watchdog.
/// Post-mortems read what those already hold: the newest terminal
/// profiles, the event-log tail and the controller-state gauges.
/// Purely passive — it records simulated time but never schedules events
/// or perturbs any control decision, so enabling/disabling it cannot
/// change a run's outcome.
class Telemetry {
 public:
  Telemetry(Simulation* sim, Monitor* monitor,
            TelemetryOptions options = TelemetryOptions());
  // The watchdog and the profile store hold pointers to members.
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool enabled() const { return enabled_; }

  /// Control-plane event history, written by the hooks below and by the
  /// SLO watchdog (kSloViolation, only while enabled).
  const EventLog& event_log() const { return event_log_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SloWatchdog& watchdog() { return watchdog_; }
  const SloWatchdog& watchdog() const { return watchdog_; }
  /// Per-query latency decomposition + resource attribution store.
  const ProfileStore& profiles() const { return profiles_; }
  /// Black-box flight recorder (post-mortem dumps).
  const FlightRecorder& flight_recorder() const { return recorder_; }
  [[nodiscard]] bool profiling() const { return enabled_ && profiling_; }
  /// Controller-plane state as the gauges currently read (what a
  /// post-mortem snapshot would capture right now).
  ControllerStateSnapshot ControllerState() const;
  /// The one post-mortem trigger: dumps the flight recorder with the
  /// current controller state (cooldown and dump budget apply) and counts
  /// real captures in wlm_flight_recorder_dumps_total. A no-op unless
  /// profiling.
  void TriggerFlightRecorder(const std::string& reason);

  /// Replaces the watched SLOs of `workload` (on workload definition).
  void WatchSlos(const std::string& workload,
                 const std::vector<ServiceLevelObjective>& slos);

  // --- lifecycle hooks (log only when disabled) ----------------------------
  // A hook that labels a series by workload takes the workload's id, which
  // picks its handle slot, and its name, which the event log, the tracer
  // (and from the trace, the profile) and a handle's first resolution read.

  /// `journey` is the cluster-assigned journey id carried on the spec
  /// (0 outside a cluster); it lands on the QueryProfile so per-shard
  /// profiles stitch into one cross-shard journey DAG.
  void OnSubmit(QueryId id, WorkloadId workload_id,
                const std::string& workload, QueryKind kind,
                uint64_t journey = 0);
  /// Admission accepted: zero-length admit span + queue span opens.
  void OnAdmitted(QueryId id);
  /// Admission refused by `gate`; the trace ends here.
  void OnRejected(QueryId id, WorkloadId workload_id,
                  const std::string& workload, const std::string& gate,
                  const std::string& reason);
  /// Back in the queue (opens a fresh queue span). `reason` is the
  /// kill/deadlock resubmission cause, logged as kResubmitted; nullptr when
  /// a fault retry leaves backoff (OnFaultRetry logged it).
  void OnRequeued(QueryId id, WorkloadId workload_id,
                  const std::string& workload, const char* reason);
  /// A dispatch-time admission gate held the request back this round.
  void OnDispatchGated(QueryId id, WorkloadId workload_id,
                       const std::string& workload, const std::string& gate);
  /// Into the engine. `resumed_strategy` names the suspend strategy of a
  /// resumed request (kResumed); nullptr for a fresh dispatch (kDispatched).
  void OnDispatch(QueryId id, WorkloadId workload_id,
                  const std::string& workload, const char* resumed_strategy);
  void OnSuspendStart(QueryId id, const char* strategy);
  /// State flush finished; the request waits for resume.
  void OnSuspended(QueryId id, WorkloadId workload_id,
                   const std::string& workload);
  /// One engine run segment ended with any OutcomeKind (terminal or not):
  /// folds the segment's phase decomposition and resource usage into the
  /// query's profile and adds phase tiles to its trace. Fired before the
  /// outcome-specific hook (OnTerminal / OnSuspended / OnRequeued).
  void OnRunSegment(QueryId id, const QueryOutcome& outcome);
  /// Terminal outcome: `terminal` is kCompleted, kKilled or kAborted (a
  /// deadlock victim); its name labels the metrics and the profile.
  void OnTerminal(QueryId id, WorkloadId workload_id,
                  const std::string& workload, WlmEventType terminal,
                  double response_seconds, double queue_wait_seconds,
                  const QueryOutcome& outcome);
  /// Timeout-escalation ladder stepped a request onto `rung`
  /// (throttle / suspend / kill / deadline_kill).
  void OnEscalation(QueryId id, WorkloadId workload_id,
                    const std::string& workload, const char* rung);
  void OnThrottle(QueryId id, WorkloadId workload_id,
                  const std::string& workload, double duty);
  void OnPause(QueryId id, WorkloadId workload_id, const std::string& workload,
               double seconds);
  void OnReprioritize(QueryId id, WorkloadId workload_id,
                      const std::string& workload, const char* priority);
  // --- fault & resilience hooks --------------------------------------------
  /// A fault window opened (`kind` is the FaultKind name).
  void OnFaultBegin(const std::string& kind, const std::string& detail);
  /// The window that began at `started_at` closed; records the whole
  /// window as one kFault span on the fault track.
  void OnFaultEnd(const std::string& kind, double started_at);
  /// The injector spontaneously aborted a running request.
  void OnFaultAbort(QueryId id, WorkloadId workload_id,
                    const std::string& workload, const std::string& reason);
  /// The resilience policy scheduled a retry after `delay_seconds`.
  void OnFaultRetry(QueryId id, WorkloadId workload_id,
                    const std::string& workload, double delay_seconds);
  /// Graceful-degradation state flipped (MPL shed / low-priority throttle).
  void SetDegraded(bool degraded);
  // --- overload-protection hooks -------------------------------------------
  /// Overload protection dropped the request (`reason` is the shed cause:
  /// queue_full / brownout / breaker_open / codel / deadline). Ends the
  /// trace.
  void OnShed(QueryId id, WorkloadId workload_id, const std::string& workload,
              const std::string& reason);
  /// A resilience retry was blocked (`reason`: budget / deadline).
  void OnRetryDenied(QueryId id, WorkloadId workload_id,
                     const std::string& workload, const std::string& reason);
  /// A workload's circuit breaker changed state. `state` is the numeric
  /// CircuitBreaker::State (0 closed, 1 half-open, 2 open); leaving the
  /// open state records the whole open window as one kOverload span on the
  /// overload track.
  void OnBreakerTransition(const std::string& workload, int state,
                           const std::string& detail);
  /// The brownout shed level stepped; returning to zero records the whole
  /// episode as one kOverload span.
  void OnBrownoutStep(int level, const std::string& detail);
  /// The wait queue flipped FIFO<->LIFO under the CoDel discipline.
  void OnQueueDiscipline(bool lifo);

  /// Monitor sampling instant: indicator gauges + SLO watchdog sweep.
  /// `queue_depth` and per-workload occupancy come from the manager.
  void OnMonitorSample(const SystemIndicators& indicators, size_t queue_depth,
                       size_t running_count);
  void SetWorkloadOccupancy(WorkloadId workload_id, const std::string& workload,
                            int queued, int running);

 private:
  /// Handles of one family's series for one workload whose second label
  /// comes from a small closed set (a gate, a reason or a rung).
  class LabeledCounters {
   public:
    /// The handle for `label`: nullptr until resolved.
    Counter*& For(std::string_view label);

   private:
    std::vector<std::pair<std::string, Counter*>> entries_;
  };
  /// One workload's handles on the series its lifecycle hooks touch. Each
  /// resolves through the registry on its first use, the moment the series
  /// would first exist anyway: resolving eagerly would add zero-valued
  /// series to the exposition.
  struct WorkloadHandles {
    Counter* submitted = nullptr;
    std::array<Counter*, 2> dispatches{};  // by resumed
    std::array<Counter*, 3> terminal{};    // completed, killed, aborted
    Counter* resubmitted = nullptr;
    Counter* suspended = nullptr;
    HistogramMetric* response = nullptr;
    HistogramMetric* queue_wait = nullptr;
    HistogramMetric* lock_wait = nullptr;
    std::array<Counter*, kPhaseCount> phases{};  // wlm_phase_seconds_total
    Counter* throttles = nullptr;
    Counter* pauses = nullptr;
    Counter* reprioritizations = nullptr;
    Counter* fault_aborts = nullptr;
    Counter* fault_retries = nullptr;
    Gauge* queued = nullptr;
    Gauge* running = nullptr;
    LabeledCounters rejected;      // by gate
    LabeledCounters gated;         // by gate
    LabeledCounters shed;          // by reason
    LabeledCounters retry_denied;  // by reason
    LabeledCounters escalations;   // by rung
  };
  /// The handle slot of `workload_id`; the table grows on the first
  /// enabled hook for an id, so a disabled facade allocates nothing.
  WorkloadHandles& Handles(WorkloadId workload_id);

  double Now() const;
  /// Appends one control-plane event of a workload's request at the
  /// current sim time. The workload's name is interned in the log once per
  /// id, so the append compares no strings.
  void Log(WlmEventType type, QueryId query, WorkloadId workload_id,
           const std::string& workload, std::string_view detail = {});
  /// Appends one control-plane event under a name with no WorkloadId (a
  /// synthetic track or a breaker's workload), interning the name.
  void LogNamed(WlmEventType type, QueryId query, std::string_view workload,
                std::string_view detail);
  /// The synthetic track's id, its trace created on first use.
  QueryId Track(SyntheticTrack track, double now);
  /// Tiles the request's open wait segment (queue, suspended wait, retry
  /// backoff) up to `now` as a kPhase span, before the profile settles it.
  void TileOpenWait(QueryId id, double now);
  /// Finalizes a profile: phase metrics and class rollups.
  void FinalizeProfile(QueryId id, WorkloadId workload_id,
                       const std::string& workload, std::string_view outcome,
                       std::string_view detail);
  /// Emits kPhase tile spans partitioning [start, start+sum(phases)).
  void AddPhaseTiles(QueryId id, double start, const ExecPhaseTotals& phases);

  Simulation* sim_;
  Monitor* monitor_;
  const bool enabled_;
  const bool profiling_;
  EventLog event_log_;  // before watchdog_: it sinks into the log
  Tracer tracer_;
  MetricsRegistry metrics_;
  SloWatchdog watchdog_;
  ProfileStore profiles_;
  FlightRecorder recorder_;
  // Open-window starts for the overload track's breaker and brownout spans.
  std::map<std::string, double> breaker_opened_at_;
  double brownout_entered_at_ = -1.0;
  size_t violations_seen_ = 0;  // watchdog watermark for trigger edges
  // Indexed by WorkloadId. Counter objects are heap-allocated and
  // pointer-stable, so a handle outlives every later registry insert.
  std::vector<WorkloadHandles> handles_;
  // wlm_throughput{workload=tag} by monitor tag, created at the first
  // sample that reports the tag.
  std::map<std::string, Gauge*> tag_throughput_;
  // Each WorkloadId's name in the event log (kUnlogged until first used).
  // Apart from handles_, which a disabled facade never grows.
  static constexpr EventLog::WorkloadRef kUnlogged = UINT16_MAX;
  std::vector<EventLog::WorkloadRef> log_workloads_;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_TELEMETRY_H_
