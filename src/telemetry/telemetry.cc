#include "telemetry/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "common/format.h"

namespace wlm {

const char* SyntheticTrackName(SyntheticTrack track) {
  switch (track) {
    case SyntheticTrack::kFaults:
      return "faults";
    case SyntheticTrack::kOverload:
      return "overload";
    case SyntheticTrack::kCluster:
      return "cluster";
  }
  return "?";
}

Telemetry::Telemetry(Simulation* sim, Monitor* monitor,
                     TelemetryOptions options)
    : sim_(sim),
      monitor_(monitor),
      enabled_(options.enabled),
      profiling_(options.profiling),
      watchdog_(monitor, &event_log_, &metrics_),
      profiles_(&tracer_) {
  if (!enabled_) return;
  metrics_.SetHelp("wlm_requests_submitted_total",
                   "Requests entering the workload manager");
  metrics_.SetHelp("wlm_requests_rejected_total",
                   "Requests refused by an admission gate");
  metrics_.SetHelp("wlm_requests_completed_total",
                   "Requests finishing successfully");
  metrics_.SetHelp("wlm_requests_killed_total",
                   "Requests killed by execution control");
  metrics_.SetHelp("wlm_requests_aborted_total",
                   "Deadlock victims not resubmitted");
  metrics_.SetHelp("wlm_requests_resubmitted_total",
                   "Automatic requeues after a kill or deadlock");
  metrics_.SetHelp("wlm_requests_suspended_total",
                   "Suspensions completing their state flush");
  metrics_.SetHelp("wlm_dispatches_total",
                   "Dispatches into the engine (resumed=true for resumes)");
  metrics_.SetHelp("wlm_dispatch_gated_total",
                   "Dispatch attempts held back by an admission gate");
  metrics_.SetHelp("wlm_throttle_changes_total", "Duty-cycle changes");
  metrics_.SetHelp("wlm_pauses_total", "Interrupt-throttle pauses");
  metrics_.SetHelp("wlm_reprioritizations_total",
                   "Business-priority changes");
  metrics_.SetHelp("wlm_response_seconds",
                   "Arrival-to-finish response time");
  metrics_.SetHelp("wlm_queue_wait_seconds",
                   "Wait before the first dispatch");
  metrics_.SetHelp("wlm_lock_wait_seconds",
                   "Lock acquisition wait per execution segment");
  metrics_.SetHelp("wlm_queue_depth", "Requests waiting for dispatch");
  metrics_.SetHelp("wlm_running", "Requests executing in the engine");
  metrics_.SetHelp("wlm_cpu_utilization", "Engine CPU utilization");
  metrics_.SetHelp("wlm_io_utilization", "Engine I/O utilization");
  metrics_.SetHelp("wlm_memory_utilization", "Work-memory utilization");
  metrics_.SetHelp("wlm_conflict_ratio", "Lock conflict ratio");
  metrics_.SetHelp("wlm_throughput", "Completions per second");
  metrics_.SetHelp("wlm_slo_violations_total",
                   "Transitions of a workload SLO into violation");
  metrics_.SetHelp("wlm_slo_violation_samples_total",
                   "Monitor samples observed with the SLO violated");
  metrics_.SetHelp("wlm_slo_attainment",
                   "actual/target, >= 1 means the objective is met");
  metrics_.SetHelp("wlm_faults_injected_total",
                   "Fault windows activated, by fault kind");
  metrics_.SetHelp("wlm_faults_recovered_total",
                   "Fault windows ended with degradation reverted");
  metrics_.SetHelp("wlm_faults_active", "Fault windows currently open");
  metrics_.SetHelp("wlm_faults_aborts_total",
                   "Running requests spontaneously aborted by a fault");
  metrics_.SetHelp("wlm_faults_retries_total",
                   "Fault-abort retries scheduled with backoff");
  metrics_.SetHelp("wlm_faults_degraded",
                   "1 while graceful degradation is in force");
  metrics_.SetHelp("wlm_overload_shed_total",
                   "Requests dropped by overload protection, by reason");
  metrics_.SetHelp("wlm_overload_retry_denied_total",
                   "Resilience retries blocked by budget or deadline");
  metrics_.SetHelp("wlm_overload_breaker_state",
                   "Circuit breaker state (0 closed, 1 half-open, 2 open)");
  metrics_.SetHelp("wlm_overload_breaker_transitions_total",
                   "Circuit breaker state transitions, by target state");
  metrics_.SetHelp("wlm_overload_brownout_level",
                   "Current brownout shed level (0 = all classes served)");
  metrics_.SetHelp("wlm_overload_brownout_steps_total",
                   "Brownout shed-level changes");
  metrics_.SetHelp("wlm_overload_queue_lifo",
                   "1 while the wait queue serves newest-first");
  metrics_.SetHelp("wlm_phase_seconds_total",
                   "Wall time by latency-decomposition phase and service "
                   "class (workload), accrued at terminal outcomes");
  metrics_.SetHelp("wlm_escalations_total",
                   "Timeout-escalation ladder actions, by rung");
  metrics_.SetHelp("wlm_flight_recorder_dumps_total",
                   "Post-mortems captured by the flight recorder");
}

Counter*& Telemetry::LabeledCounters::For(std::string_view label) {
  for (auto& [value, counter] : entries_) {
    if (value == label) return counter;
  }
  return entries_.emplace_back(label, nullptr).second;
}

Telemetry::WorkloadHandles& Telemetry::Handles(WorkloadId workload_id) {
  if (workload_id >= handles_.size()) handles_.resize(workload_id + 1);
  return handles_[workload_id];
}

double Telemetry::Now() const { return sim_->Now(); }

void Telemetry::Log(WlmEventType type, QueryId query, WorkloadId workload_id,
                    const std::string& workload, std::string_view detail) {
  if (workload_id >= log_workloads_.size()) {
    log_workloads_.resize(workload_id + 1, kUnlogged);
  }
  EventLog::WorkloadRef& ref = log_workloads_[workload_id];
  if (ref == kUnlogged) ref = event_log_.InternWorkload(workload);
  event_log_.Append(Now(), type, query, ref, detail);
}

void Telemetry::LogNamed(WlmEventType type, QueryId query,
                         std::string_view workload, std::string_view detail) {
  event_log_.Append(Now(), type, query, event_log_.InternWorkload(workload),
                    detail);
}

QueryId Telemetry::Track(SyntheticTrack track, double now) {
  const QueryId id = SyntheticTrackId(track);
  tracer_.GetOrCreate(id, SyntheticTrackName(track), QueryKind::kUtility, now);
  return id;
}

void Telemetry::WatchSlos(const std::string& workload,
                          const std::vector<ServiceLevelObjective>& slos) {
  if (!enabled_) return;
  watchdog_.SetSlos(workload, slos);
}

void Telemetry::OnSubmit(QueryId id, WorkloadId workload_id,
                         const std::string& workload, QueryKind kind,
                         uint64_t journey) {
  Log(WlmEventType::kSubmitted, id, workload_id, workload);
  if (!enabled_) return;
  tracer_.GetOrCreate(id, workload, kind, Now());
  if (profiling_) profiles_.Begin(id, journey);
  Counter*& submitted = Handles(workload_id).submitted;
  if (submitted == nullptr) {
    submitted = &metrics_.GetCounter("wlm_requests_submitted_total",
                                     {{"workload", workload}});
  }
  submitted->Increment();
}

void Telemetry::OnAdmitted(QueryId id) {
  if (!enabled_) return;
  const double now = Now();
  tracer_.AddClosedSpan(id, SpanKind::kAdmit, now, now, TraceText::kAdmitted);
  tracer_.OpenSpan(id, SpanKind::kQueue, now);
  if (profiling_) profiles_.OpenQueueWait(id, now);
}

void Telemetry::OnRejected(QueryId id, WorkloadId workload_id,
                           const std::string& workload,
                           const std::string& gate,
                           const std::string& reason) {
  Log(WlmEventType::kRejected, id, workload_id, workload, reason);
  if (!enabled_) return;
  const double now = Now();
  tracer_.AddClosedSpan(id, SpanKind::kAdmit, now, now,
                        "rejected gate=" + gate + " reason=" + reason);
  tracer_.FinishTrace(id, now);
  FinalizeProfile(id, workload_id, workload, "rejected",
                  reason + " (gate=" + gate + ")");
  Counter*& rejected = Handles(workload_id).rejected.For(gate);
  if (rejected == nullptr) {
    rejected = &metrics_.GetCounter("wlm_requests_rejected_total",
                                    {{"workload", workload}, {"gate", gate}});
  }
  rejected->Increment();
}

void Telemetry::OnRequeued(QueryId id, WorkloadId workload_id,
                           const std::string& workload, const char* reason) {
  if (reason != nullptr) {
    Log(WlmEventType::kResubmitted, id, workload_id, workload, reason);
  }
  if (!enabled_) return;
  const double now = Now();
  // A kill/deadlock resubmission interrupts the running segment.
  tracer_.CloseExecutionSegment(id, now, TraceText::kOutcomeResubmitted);
  tracer_.OpenSpan(id, SpanKind::kQueue, now, TraceText::kResubmit);
  if (profiling_) {
    profiles_.CountRequeue(id);
    profiles_.OpenQueueWait(id, now);
  }
  Counter*& resubmitted = Handles(workload_id).resubmitted;
  if (resubmitted == nullptr) {
    resubmitted = &metrics_.GetCounter("wlm_requests_resubmitted_total",
                                       {{"workload", workload}});
  }
  resubmitted->Increment();
}

void Telemetry::OnDispatchGated(QueryId id, WorkloadId workload_id,
                                const std::string& workload,
                                const std::string& gate) {
  if (!enabled_) return;
  (void)id;
  Counter*& gated = Handles(workload_id).gated.For(gate);
  if (gated == nullptr) {
    gated = &metrics_.GetCounter("wlm_dispatch_gated_total",
                                 {{"workload", workload}, {"gate", gate}});
  }
  gated->Increment();
}

void Telemetry::OnDispatch(QueryId id, WorkloadId workload_id,
                           const std::string& workload,
                           const char* resumed_strategy) {
  const bool resumed = resumed_strategy != nullptr;
  Log(resumed ? WlmEventType::kResumed : WlmEventType::kDispatched, id,
      workload_id, workload, resumed ? resumed_strategy : "");
  if (!enabled_) return;
  const double now = Now();
  tracer_.CloseSpan(id, resumed ? SpanKind::kSuspendedWait : SpanKind::kQueue,
                    now);
  tracer_.OpenSpan(id, SpanKind::kExecute, now,
                   resumed ? TraceText::kResumed : TraceText::kNone);
  if (profiling_) profiles_.MarkDispatched(id, now);
  Counter*& dispatches = Handles(workload_id).dispatches[resumed ? 1 : 0];
  if (dispatches == nullptr) {
    dispatches = &metrics_.GetCounter(
        "wlm_dispatches_total",
        {{"workload", workload}, {"resumed", resumed ? "true" : "false"}});
  }
  dispatches->Increment();
}

void Telemetry::OnSuspendStart(QueryId id, const char* strategy) {
  if (!enabled_) return;
  tracer_.OpenSpan(id, SpanKind::kSuspendFlush, Now(),
                   std::string("strategy=") + strategy);
}

void Telemetry::OnSuspended(QueryId id, WorkloadId workload_id,
                            const std::string& workload) {
  Log(WlmEventType::kSuspended, id, workload_id, workload);
  if (!enabled_) return;
  const double now = Now();
  tracer_.CloseSpan(id, SpanKind::kSuspendFlush, now);
  tracer_.CloseExecutionSegment(id, now, TraceText::kOutcomeSuspended);
  tracer_.OpenSpan(id, SpanKind::kSuspendedWait, now);
  if (profiling_) {
    profiles_.CountSuspend(id);
    profiles_.OpenWait(id, Phase::kSuspendedWait, now);
  }
  Counter*& suspended = Handles(workload_id).suspended;
  if (suspended == nullptr) {
    suspended = &metrics_.GetCounter("wlm_requests_suspended_total",
                                     {{"workload", workload}});
  }
  suspended->Increment();
}

void Telemetry::OnRunSegment(QueryId id, const QueryOutcome& outcome) {
  if (!enabled_ || !profiling_) return;
  profiles_.AccumulateSegment(id, outcome);
  AddPhaseTiles(id, outcome.dispatch_time, outcome.phases);
}

void Telemetry::OnTerminal(QueryId id, WorkloadId workload_id,
                           const std::string& workload, WlmEventType terminal,
                           double response_seconds, double queue_wait_seconds,
                           const QueryOutcome& outcome) {
  Log(terminal, id, workload_id, workload,
      terminal == WlmEventType::kAborted ? "deadlock victim" : "");
  if (!enabled_) return;
  const char* outcome_name = WlmEventTypeToString(terminal);
  const size_t slot = terminal == WlmEventType::kCompleted ? 0
                      : terminal == WlmEventType::kKilled  ? 1
                                                           : 2;
  const double now = Now();
  if (outcome.lock_wait_seconds > 0.0) {
    tracer_.AddClosedSpan(
        id, SpanKind::kLockWait, outcome.dispatch_time,
        std::min(outcome.dispatch_time + outcome.lock_wait_seconds, now));
    HistogramMetric*& lock_wait = Handles(workload_id).lock_wait;
    if (lock_wait == nullptr) {
      lock_wait = &metrics_.GetHistogram("wlm_lock_wait_seconds",
                                         {{"workload", workload}});
    }
    lock_wait->Observe(outcome.lock_wait_seconds);
  }
  static constexpr TraceText kOutcomeTexts[] = {
      TraceText::kOutcomeCompleted, TraceText::kOutcomeKilled,
      TraceText::kOutcomeAborted};
  tracer_.CloseExecutionSegment(
      id, now,
      TraceOutcome{kOutcomeTexts[slot], outcome.cpu_used, outcome.io_used,
                   outcome.spill_factor, outcome.buffer_hit_ratio});
  tracer_.FinishTrace(id, now);
  FinalizeProfile(id, workload_id, workload, outcome_name, {});

  WorkloadHandles& handles = Handles(workload_id);
  Counter*& outcomes = handles.terminal[slot];
  if (outcomes == nullptr) {
    outcomes = &metrics_.GetCounter(
        std::string("wlm_requests_") + outcome_name + "_total",
        {{"workload", workload}});
  }
  outcomes->Increment();
  if (handles.response == nullptr) {
    handles.response = &metrics_.GetHistogram("wlm_response_seconds",
                                              {{"workload", workload}});
    handles.queue_wait = &metrics_.GetHistogram("wlm_queue_wait_seconds",
                                                {{"workload", workload}});
  }
  handles.response->Observe(response_seconds);
  handles.queue_wait->Observe(queue_wait_seconds);
}

void Telemetry::OnThrottle(QueryId id, WorkloadId workload_id,
                           const std::string& workload, double duty) {
  Log(WlmEventType::kThrottled, id, workload_id, workload,
      "duty=" + FormatFixed(duty, 6));
  if (!enabled_) return;
  const double now = Now();
  const std::string detail = "duty=" + FormatFixed(duty, 3);
  // A duty change ends any current window; a new sub-1.0 duty opens one.
  tracer_.CloseSpan(id, SpanKind::kThrottle, now);
  if (duty < 1.0) {
    tracer_.OpenSpan(id, SpanKind::kThrottle, now, detail);
  }
  tracer_.Instant(id, TraceText::kThrottle, now, detail);
  Counter*& throttles = Handles(workload_id).throttles;
  if (throttles == nullptr) {
    throttles = &metrics_.GetCounter("wlm_throttle_changes_total",
                                     {{"workload", workload}});
  }
  throttles->Increment();
}

void Telemetry::OnPause(QueryId id, WorkloadId workload_id,
                        const std::string& workload, double seconds) {
  Log(WlmEventType::kPaused, id, workload_id, workload,
      FormatFixed(seconds, 6) + "s");
  if (!enabled_) return;
  const double now = Now();
  const std::string detail = "seconds=" + FormatFixed(seconds, 3);
  // Recorded closed up-front; segment close clamps it if the query leaves
  // the engine before the pause elapses.
  tracer_.AddClosedSpan(id, SpanKind::kPause, now, now + seconds, detail);
  Counter*& pauses = Handles(workload_id).pauses;
  if (pauses == nullptr) {
    pauses =
        &metrics_.GetCounter("wlm_pauses_total", {{"workload", workload}});
  }
  pauses->Increment();
}

void Telemetry::OnReprioritize(QueryId id, WorkloadId workload_id,
                               const std::string& workload,
                               const char* priority) {
  Log(WlmEventType::kReprioritized, id, workload_id, workload, priority);
  if (!enabled_) return;
  tracer_.Instant(id, TraceText::kReprioritize, Now(),
                  std::string("priority=") + priority);
  Counter*& reprioritizations = Handles(workload_id).reprioritizations;
  if (reprioritizations == nullptr) {
    reprioritizations = &metrics_.GetCounter("wlm_reprioritizations_total",
                                             {{"workload", workload}});
  }
  reprioritizations->Increment();
}

void Telemetry::OnFaultBegin(const std::string& kind,
                             const std::string& detail) {
  LogNamed(WlmEventType::kFaultInjected,
           SyntheticTrackId(SyntheticTrack::kFaults),
           SyntheticTrackName(SyntheticTrack::kFaults),
           detail.empty() ? kind : kind + " " + detail);
  if (!enabled_) return;
  const double now = Now();
  const QueryId track = Track(SyntheticTrack::kFaults, now);
  tracer_.Instant(track, TraceText::kFaultBegin, now, kind + " " + detail);
  metrics_.GetCounter("wlm_faults_injected_total", {{"kind", kind}})
      .Increment();
  metrics_.GetGauge("wlm_faults_active").Add(1.0);
  TriggerFlightRecorder("fault:" + kind);
}

void Telemetry::OnFaultEnd(const std::string& kind, double started_at) {
  const double now = Now();
  char window[64];
  std::snprintf(window, sizeof(window), "window=%.3fs", now - started_at);
  LogNamed(WlmEventType::kFaultRecovered,
           SyntheticTrackId(SyntheticTrack::kFaults),
           SyntheticTrackName(SyntheticTrack::kFaults), kind + " " + window);
  if (!enabled_) return;
  const QueryId track = Track(SyntheticTrack::kFaults, now);
  tracer_.AddClosedSpan(track, SpanKind::kFault, started_at, now, kind);
  tracer_.Instant(track, TraceText::kFaultEnd, now, kind);
  metrics_.GetCounter("wlm_faults_recovered_total", {{"kind", kind}})
      .Increment();
  metrics_.GetGauge("wlm_faults_active").Add(-1.0);
}

void Telemetry::OnFaultAbort(QueryId id, WorkloadId workload_id,
                             const std::string& workload,
                             const std::string& reason) {
  if (!enabled_) return;
  const double now = Now();
  tracer_.Instant(id, TraceText::kFaultAbort, now, reason);
  tracer_.CloseExecutionSegment(id, now, TraceText::kOutcomeFaultAbort);
  Counter*& aborts = Handles(workload_id).fault_aborts;
  if (aborts == nullptr) {
    aborts = &metrics_.GetCounter("wlm_faults_aborts_total",
                                  {{"workload", workload}});
  }
  aborts->Increment();
}

void Telemetry::OnFaultRetry(QueryId id, WorkloadId workload_id,
                             const std::string& workload,
                             double delay_seconds) {
  const std::string detail = "backoff=" + FormatFixed(delay_seconds, 3) + "s";
  Log(WlmEventType::kResubmitted, id, workload_id, workload,
      "fault retry " + detail);
  if (!enabled_) return;
  tracer_.Instant(id, TraceText::kFaultRetry, Now(), detail);
  if (profiling_) profiles_.OpenWait(id, Phase::kRetryBackoff, Now());
  Counter*& retries = Handles(workload_id).fault_retries;
  if (retries == nullptr) {
    retries = &metrics_.GetCounter("wlm_faults_retries_total",
                                   {{"workload", workload}});
  }
  retries->Increment();
}

void Telemetry::SetDegraded(bool degraded) {
  if (!enabled_) return;
  metrics_.GetGauge("wlm_faults_degraded").Set(degraded ? 1.0 : 0.0);
}

void Telemetry::OnShed(QueryId id, WorkloadId workload_id,
                       const std::string& workload,
                       const std::string& reason) {
  Log(WlmEventType::kShed, id, workload_id, workload, reason);
  if (!enabled_) return;
  const double now = Now();
  tracer_.CloseSpan(id, SpanKind::kQueue, now, " shed=" + reason);
  tracer_.Instant(id, TraceText::kShed, now, reason);
  tracer_.FinishTrace(id, now);
  FinalizeProfile(id, workload_id, workload, "shed", reason);
  Counter*& shed = Handles(workload_id).shed.For(reason);
  if (shed == nullptr) {
    shed = &metrics_.GetCounter("wlm_overload_shed_total",
                                {{"workload", workload}, {"reason", reason}});
  }
  shed->Increment();
}

void Telemetry::OnRetryDenied(QueryId id, WorkloadId workload_id,
                              const std::string& workload,
                              const std::string& reason) {
  Log(WlmEventType::kRetryDenied, id, workload_id, workload, reason);
  if (!enabled_) return;
  tracer_.Instant(id, TraceText::kRetryDenied, Now(), reason);
  Counter*& denied = Handles(workload_id).retry_denied.For(reason);
  if (denied == nullptr) {
    denied = &metrics_.GetCounter(
        "wlm_overload_retry_denied_total",
        {{"workload", workload}, {"reason", reason}});
  }
  denied->Increment();
}

void Telemetry::OnBreakerTransition(const std::string& workload, int state,
                                    const std::string& detail) {
  // Indexed by CircuitBreaker::State: closed, half-open, open.
  static constexpr WlmEventType kEvents[] = {WlmEventType::kBreakerClosed,
                                             WlmEventType::kBreakerHalfOpen,
                                             WlmEventType::kBreakerTripped};
  static constexpr const char* kNames[] = {"closed", "half_open", "open"};
  static constexpr TraceText kInstants[] = {TraceText::kBreakerClosed,
                                            TraceText::kBreakerHalfOpen,
                                            TraceText::kBreakerOpen};
  constexpr int kOpen = 2;
  LogNamed(kEvents[state], SyntheticTrackId(SyntheticTrack::kOverload),
           workload.empty() ? SyntheticTrackName(SyntheticTrack::kOverload)
                            : std::string_view(workload),
           detail);
  if (!enabled_) return;
  const double now = Now();
  const QueryId track = Track(SyntheticTrack::kOverload, now);
  tracer_.Instant(track, kInstants[state], now, workload + " " + detail);
  if (state == kOpen) {
    breaker_opened_at_[workload] = now;
  } else if (auto it = breaker_opened_at_.find(workload);
             it != breaker_opened_at_.end()) {
    // Leaving the open state: record the whole open window as one span.
    tracer_.AddClosedSpan(track, SpanKind::kOverload, it->second, now,
                          "breaker_open " + workload);
    breaker_opened_at_.erase(it);
  }
  metrics_.GetGauge("wlm_overload_breaker_state", {{"workload", workload}})
      .Set(static_cast<double>(state));
  metrics_
      .GetCounter("wlm_overload_breaker_transitions_total",
                  {{"workload", workload}, {"to", kNames[state]}})
      .Increment();
  if (state == kOpen) TriggerFlightRecorder("breaker_open:" + workload);
}

void Telemetry::OnBrownoutStep(int level, const std::string& detail) {
  char line[64];
  std::snprintf(line, sizeof(line), "level=%d %s", level, detail.c_str());
  LogNamed(WlmEventType::kBrownoutStepped,
           SyntheticTrackId(SyntheticTrack::kOverload),
           SyntheticTrackName(SyntheticTrack::kOverload), line);
  if (!enabled_) return;
  const double now = Now();
  const QueryId track = Track(SyntheticTrack::kOverload, now);
  char name[48];
  std::snprintf(name, sizeof(name), "brownout_level_%d", level);
  tracer_.Instant(track, name, now, detail);
  if (level > 0 && brownout_entered_at_ < 0.0) brownout_entered_at_ = now;
  if (level == 0 && brownout_entered_at_ >= 0.0) {
    // Episode over: record the whole brownout window as one span.
    tracer_.AddClosedSpan(track, SpanKind::kOverload, brownout_entered_at_,
                          now, TraceText::kBrownout);
    brownout_entered_at_ = -1.0;
  }
  metrics_.GetGauge("wlm_overload_brownout_level")
      .Set(static_cast<double>(level));
  metrics_.GetCounter("wlm_overload_brownout_steps_total").Increment();
}

void Telemetry::OnQueueDiscipline(bool lifo) {
  if (!enabled_) return;
  const double now = Now();
  tracer_.Instant(Track(SyntheticTrack::kOverload, now),
                  lifo ? TraceText::kQueueLifo : TraceText::kQueueFifo, now);
  metrics_.GetGauge("wlm_overload_queue_lifo").Set(lifo ? 1.0 : 0.0);
  if (profiling_) profiles_.SetQueueDiscipline(lifo, now);
}

void Telemetry::OnMonitorSample(const SystemIndicators& indicators,
                                size_t queue_depth, size_t running_count) {
  if (!enabled_) return;
  metrics_.GetGauge("wlm_cpu_utilization").Set(indicators.cpu_utilization);
  metrics_.GetGauge("wlm_io_utilization").Set(indicators.io_utilization);
  metrics_.GetGauge("wlm_memory_utilization")
      .Set(indicators.memory_utilization);
  metrics_.GetGauge("wlm_conflict_ratio").Set(indicators.conflict_ratio);
  metrics_.GetGauge("wlm_throughput").Set(indicators.throughput);
  metrics_.GetGauge("wlm_queue_depth").Set(static_cast<double>(queue_depth));
  metrics_.GetGauge("wlm_running").Set(static_cast<double>(running_count));
  for (const auto& [tag, stats] : monitor_->all_tag_stats()) {
    auto gauge = tag_throughput_.find(tag);
    if (gauge == tag_throughput_.end()) {
      gauge = tag_throughput_
                  .emplace(tag, &metrics_.GetGauge("wlm_throughput",
                                                   {{"workload", tag}}))
                  .first;
    }
    gauge->second->Set(stats.last_interval_throughput);
  }
  watchdog_.Check(indicators);
  // New watchdog violations arm the black box: dump while the anomaly is
  // fresh rather than asking questions after the run.
  const auto& violations = watchdog_.violations();
  if (violations.size() > violations_seen_) {
    TriggerFlightRecorder("slo_violation:" + violations.back().workload);
    violations_seen_ = violations.size();
  }
}

void Telemetry::SetWorkloadOccupancy(WorkloadId workload_id,
                                     const std::string& workload, int queued,
                                     int running) {
  if (!enabled_) return;
  WorkloadHandles& handles = Handles(workload_id);
  if (handles.queued == nullptr) {
    handles.queued =
        &metrics_.GetGauge("wlm_queue_depth", {{"workload", workload}});
    handles.running =
        &metrics_.GetGauge("wlm_running", {{"workload", workload}});
  }
  handles.queued->Set(static_cast<double>(queued));
  handles.running->Set(static_cast<double>(running));
}

void Telemetry::OnEscalation(QueryId id, WorkloadId workload_id,
                             const std::string& workload, const char* rung) {
  if (!enabled_) return;
  tracer_.Instant(id, TraceText::kEscalate, Now(),
                  std::string("rung=") + rung);
  Counter*& escalations = Handles(workload_id).escalations.For(rung);
  if (escalations == nullptr) {
    escalations = &metrics_.GetCounter(
        "wlm_escalations_total", {{"workload", workload}, {"rung", rung}});
  }
  escalations->Increment();
}

ControllerStateSnapshot Telemetry::ControllerState() const {
  auto gauge = [this](const char* name) {
    const Gauge* series = metrics_.FindGauge(name);
    return series == nullptr ? 0.0 : series->value();
  };
  ControllerStateSnapshot state;
  state.time = Now();
  state.degraded = gauge("wlm_faults_degraded") != 0.0;
  state.active_faults = static_cast<int>(gauge("wlm_faults_active"));
  state.brownout_level =
      static_cast<int>(gauge("wlm_overload_brownout_level"));
  state.queue_lifo = gauge("wlm_overload_queue_lifo") != 0.0;
  state.queue_depth = static_cast<size_t>(gauge("wlm_queue_depth"));
  state.running = static_cast<size_t>(gauge("wlm_running"));
  state.cpu_utilization = gauge("wlm_cpu_utilization");
  state.io_utilization = gauge("wlm_io_utilization");
  state.memory_utilization = gauge("wlm_memory_utilization");
  for (const MetricsRegistry::FamilyView& family : metrics_.Families()) {
    if (family.name != "wlm_overload_breaker_state") continue;
    for (const MetricsRegistry::SeriesView& series : family.series) {
      state.breaker_states[series.labels->front().second] =
          static_cast<int>(series.gauge->value());
    }
  }
  return state;
}

void Telemetry::FinalizeProfile(QueryId id, WorkloadId workload_id,
                                const std::string& workload,
                                std::string_view outcome,
                                std::string_view detail) {
  if (!profiling_) return;
  const QueryProfile* profile =
      profiles_.Finalize(id, workload_id, Now(), outcome, detail);
  if (profile == nullptr) return;
  std::array<Counter*, kPhaseCount>& phases = Handles(workload_id).phases;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (profile->phase_seconds[i] <= 0.0) continue;
    if (phases[i] == nullptr) {
      phases[i] = &metrics_.GetCounter(
          "wlm_phase_seconds_total",
          {{"phase", PhaseToString(static_cast<Phase>(i))},
           {"workload", workload}});
    }
    phases[i]->Increment(profile->phase_seconds[i]);
  }
}

void Telemetry::AddPhaseTiles(QueryId id, double start,
                              const ExecPhaseTotals& phases) {
  // Sequential layout of the segment's decomposition: tiles partition
  // [dispatch, finish) exactly because the buckets sum to the segment's
  // wall time. Ordering is presentational (true interleaving is finer).
  const std::pair<Phase, double> tiles[] = {
      {Phase::kLockWait, phases.lock_wait_seconds},
      {Phase::kCpuRun, phases.cpu_run_seconds},
      {Phase::kIoStall, phases.io_stall_seconds},
      {Phase::kMemoryStall, phases.memory_stall_seconds},
      {Phase::kThrottled, phases.throttled_seconds},
      {Phase::kSuspendFlush, phases.suspend_flush_seconds},
  };
  double cursor = start;
  for (const auto& [phase, seconds] : tiles) {
    if (seconds <= 0.0) continue;
    tracer_.AddClosedSpan(id, SpanKind::kPhase, cursor, cursor + seconds,
                          PhaseText(phase));
    cursor += seconds;
  }
}

void Telemetry::TriggerFlightRecorder(const std::string& reason) {
  if (!profiling()) return;
  const size_t before = recorder_.postmortems().size();
  recorder_.Trigger(reason, ControllerState(), profiles_, event_log_);
  if (recorder_.postmortems().size() > before) {
    metrics_.GetCounter("wlm_flight_recorder_dumps_total").Increment();
  }
}

}  // namespace wlm
