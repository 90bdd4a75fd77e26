#ifndef WLM_CORE_WORKLOAD_MANAGER_H_
#define WLM_CORE_WORKLOAD_MANAGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/head_vector.h"
#include "common/id_index.h"
#include "common/result.h"
#include "common/status.h"
#include "core/interfaces.h"
#include "core/request.h"
#include "core/taxonomy.h"
#include "core/workload.h"
#include "engine/engine.h"
#include "engine/monitor.h"
#include "faults/fault_sink.h"
#include "overload/overload_controller.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"

namespace wlm {

/// Resilience policies the manager applies while faults disturb the
/// engine (driven by `wlm::FaultInjector`, but any caller of
/// NotifyFaultBegin/End and AbortRequestByFault engages them).
struct ResilienceOptions {
  /// Master switch; everything below is inert when false.
  bool enabled = false;

  // Bounded retry with exponential backoff for fault-aborted requests.
  /// Max automatic retries per request (counted with other resubmits).
  int max_retries = 3;
  /// Delay before the first retry, seconds.
  double retry_backoff_seconds = 0.25;
  /// Backoff growth per successive retry of one request.
  double retry_backoff_multiplier = 2.0;
  /// Deadline-aware retries: never schedule a retry whose earliest
  /// possible completion (backoff + estimated elapsed) is already past
  /// the request's deadline — it would only burn capacity.
  bool deadline_aware_retries = true;

  // Graceful degradation while at least one fault window is active.
  /// Scheduler concurrency limits are scaled by this factor (floor 1)
  /// while degraded — shedding MPL so the shrunken engine is not
  /// over-admitted.
  double degraded_mpl_factor = 0.5;
  /// Duty imposed on running requests at or below
  /// kDegradedThrottleMaxPriority while degraded; 1.0 disables.
  double degraded_throttle_duty = 1.0;
};

/// Highest business priority degraded_throttle_duty slows.
inline constexpr BusinessPriority kDegradedThrottleMaxPriority =
    BusinessPriority::kLow;

/// Workload used when no classifier matches.
inline constexpr char kDefaultWorkload[] = "default";

struct WlmConfig {
  /// Requeue deadlock victims automatically (kill-and-resubmit policy).
  bool resubmit_deadlock_victims = true;
  /// Max automatic resubmissions (deadlock or kill-and-resubmit) before a
  /// request is abandoned.
  int max_resubmits = 3;
  /// Observability layer (per-query span traces, labeled metrics, SLO
  /// watchdog). Purely passive; disabling changes no control decision.
  TelemetryOptions telemetry;
  /// Fault-window resilience policies (retry/backoff, degradation).
  ResilienceOptions resilience;
  /// Overload protection: queue capacities + CoDel shedding, retry
  /// budgets, circuit breakers, brownout. Off by default.
  OverloadOptions overload;
};

/// The workload-management framework: wires characterization, admission
/// control, scheduling and execution control around the database engine,
/// exactly following the paper's three-step process — understand
/// objectives (WorkloadDefinition + SLOs), identify requests
/// (RequestClassifier), impose controls (controller chains).
///
/// Requests enter via Submit(); terminal statistics land in the Monitor
/// (per-workload tag) and per-workload counters here.
class WorkloadManager : public FaultSink {
 public:
  WorkloadManager(Simulation* sim, DatabaseEngine* engine, Monitor* monitor,
                  WlmConfig config = WlmConfig());
  ~WorkloadManager();
  WorkloadManager(const WorkloadManager&) = delete;
  WorkloadManager& operator=(const WorkloadManager&) = delete;

  // --- setup ---------------------------------------------------------------
  /// Defines (or redefines) a workload. A new name gets the next
  /// WorkloadId in definition order — the default workload, defined by the
  /// constructor, is 0 — and a redefined name keeps its id.
  void DefineWorkload(WorkloadDefinition def);
  const WorkloadDefinition* workload(const std::string& name) const;
  const std::map<std::string, WorkloadDefinition>& workloads() const {
    return workloads_;
  }
  void set_classifier(std::unique_ptr<RequestClassifier> classifier);
  void AddAdmissionController(std::unique_ptr<AdmissionController> ac);
  void set_scheduler(std::unique_ptr<Scheduler> scheduler);
  void AddExecutionController(std::unique_ptr<ExecutionController> ec);

  /// Techniques employed by this configuration — the automatic
  /// Table 4 / Table 5 classification.
  std::vector<TechniqueInfo> EmployedTechniques() const;
  void RegisterTechniques(TaxonomyRegistry* registry) const;

  // --- runtime ---------------------------------------------------------------
  /// Runs the full pipeline for one arriving request: classify, admission,
  /// enqueue, and attempt dispatch. Returns Rejected if admission refused
  /// the request (its completion listeners have then seen it, state
  /// kRejected). The spec is copied into a retired request's storage when
  /// one is free. AlreadyExists while a live request has the same id.
  [[nodiscard]] Status Submit(const QuerySpec& spec);
  /// As Submit, but executes the caller-provided plan instead of the
  /// optimizer's (query restructuring dispatches sub-plans this way).
  [[nodiscard]] Status SubmitWithPlan(const QuerySpec& spec, const Plan& plan);

  /// Observer fired whenever a request reaches a terminal state
  /// (completed / killed / aborted / rejected / shed). Once the last
  /// listener returns the request is retired: Find and AllRequests no
  /// longer see it, and a later Submit reuses its storage. A listener that
  /// needs the request afterwards keeps a copy of what it reads.
  void AddCompletionListener(std::function<void(const Request&)> fn);

  /// Re-evaluates the queue against the scheduler and dispatch gates.
  /// Called automatically on submit, completions and monitor samples.
  void TryDispatch();

  // --- state access (controllers read through these) -----------------------
  Simulation* sim() const { return sim_; }
  DatabaseEngine* engine() const { return engine_; }
  Monitor* monitor() const { return monitor_; }
  const WlmConfig& config() const { return config_; }

  /// The live request submitted as `id`, or nullptr: a request is live
  /// from Submit until its completion listeners return.
  const Request* Find(QueryId id) const;
  /// The wait queue, in the order requests entered it.
  std::vector<const Request*> Queued() const;
  /// Currently running requests, ordered by query id.
  std::vector<const Request*> Running() const;
  size_t queue_depth() const { return queue_.size(); }
  size_t running_count() const { return running_.size(); }
  /// Requests of one workload in Running() / Queued(), kept incrementally:
  /// O(1). An unknown name or id reads 0.
  int RunningInWorkload(const std::string& name) const;
  int RunningInWorkload(WorkloadId id) const;
  int QueuedInWorkload(const std::string& name) const;
  int QueuedInWorkload(WorkloadId id) const;
  /// Lifecycle counters of a workload; all zeros for an unknown name. The
  /// reference holds until a new name is defined.
  const WorkloadCounters& counters(const std::string& workload) const;
  /// Every live request, in submission order.
  std::vector<const Request*> AllRequests() const;

  /// Control-plane event history (the library's "event monitors"):
  /// submissions, rejections, dispatches, kills, suspensions, throttle
  /// changes, reprioritizations... The telemetry facade writes it.
  const EventLog& event_log() const { return telemetry_->event_log(); }

  /// Observability facade: span tracer, metrics registry, SLO watchdog.
  Telemetry& telemetry() { return *telemetry_; }
  const Telemetry& telemetry() const { return *telemetry_; }

  /// Overload-protection facade; nullptr unless config.overload.enabled.
  OverloadController* overload() { return overload_.get(); }
  const OverloadController* overload() const { return overload_.get(); }
  /// True while the wait queue serves newest-first (CoDel overload mode).
  [[nodiscard]] bool queue_lifo() const { return queue_lifo_; }

  // --- actions (execution controllers act through these) -------------------
  /// Kills a running request; with `resubmit` it re-enters the queue
  /// (kill-and-resubmit [39]) unless the resubmit budget is exhausted.
  [[nodiscard]] Status KillRequest(QueryId id, bool resubmit);
  /// Constant throttle (duty in (0, 1]); 1.0 removes the throttle.
  [[nodiscard]] Status ThrottleRequest(QueryId id, double duty);
  /// Interrupt throttle: one pause of `seconds`.
  [[nodiscard]] Status PauseRequest(QueryId id, double seconds);
  [[nodiscard]] Status SetRequestShares(QueryId id, const ResourceShares& shares);
  /// Reprioritization: changes business priority and the engine weights.
  [[nodiscard]] Status SetRequestPriority(QueryId id, BusinessPriority priority);
  /// Suspends a running request; once the engine finishes flushing state
  /// the request re-enters the wait queue and will resume when dispatched.
  [[nodiscard]] Status SuspendRequest(QueryId id, SuspendStrategy strategy);
  /// Changes a workload's shares, applying to running and future requests.
  void SetWorkloadShares(const std::string& workload,
                         const ResourceShares& shares);

  // --- fault plumbing (FaultSink; the FaultInjector drives these) ----------
  /// A fault window opened: telemetry logs kFaultInjected, and — with
  /// resilience enabled — the manager engages graceful degradation (MPL shed,
  /// low-priority throttling) until the matching NotifyFaultEnd.
  void NotifyFaultBegin(const std::string& kind,
                        const std::string& detail) override;
  /// The window that began at `started_at` closed; reverts degradation
  /// once no windows remain active.
  void NotifyFaultEnd(const std::string& kind, double started_at) override;
  int active_fault_count() const { return active_faults_; }
  /// True while resilience is enabled and any fault window is active.
  [[nodiscard]] bool degraded() const {
    return config_.resilience.enabled && active_faults_ > 0;
  }
  /// Spontaneous fault abort of a running request. With resilience
  /// enabled the victim retries after exponential backoff (bounded by
  /// `max_retries`); otherwise it terminates as killed.
  [[nodiscard]] Status AbortRequestByFault(QueryId id,
                                           const std::string& reason) override;

  /// One query orphaned by a shard crash: enough to resubmit it for a
  /// second life on a surviving shard.
  struct DrainedQuery {
    QuerySpec spec;
    std::string workload;
  };

  /// The process died: every waiting request is shed and every running
  /// request killed, each reaching its terminal state (and conserving its
  /// phase decomposition) at the instant of death. Returns the orphans in
  /// deterministic order — queue order first, then running requests by
  /// id — so a cluster dispatcher can grant them second lives elsewhere.
  /// Fault-retry backoff limbo is deliberately untouched: those retries
  /// are already charged and re-enter the (restarted) shard's queue on
  /// their own schedule, like a durable retry queue surviving the crash.
  std::vector<DrainedQuery> CrashDrain(const std::string& reason);

 private:
  void OnSample(const SystemIndicators& indicators);
  void OnFinish(const QueryOutcome& outcome);
  /// The waiting requests of one business priority, in queue_ order, each
  /// tagged with its queue_seq.
  struct PriorityLevel {
    struct Entry {
      uint64_t seq;
      Request* request;
    };
    HeadVector<Entry> entries;

    /// Places `request`'s entry at its sequence position (a new one at the
    /// back).
    void Insert(Request* request);
    /// Removes `request`'s entry, found by its queue_seq; false when it is
    /// absent.
    [[nodiscard]] bool Erase(const Request* request);
  };
  PriorityLevel& LevelOf(BusinessPriority priority);

  /// Per-workload state, indexed by WorkloadId. `running` and `queued`
  /// count the workload's requests in running_ and queue_: every site that
  /// changes either container updates them.
  struct WorkloadState {
    const WorkloadDefinition* def = nullptr;  // its node in workloads_
    WorkloadCounters counters;
    int running = 0;
    int queued = 0;
  };
  WorkloadState& StateOf(const Request& request) {
    return by_id_[request.workload_id];
  }
  /// The live request submitted as `id`, or nullptr.
  Request* Lookup(QueryId id) const;
  /// Submit and SubmitWithPlan; a null `plan` asks the optimizer.
  [[nodiscard]] Status Admit(const QuerySpec& spec, const Plan* plan);
  /// Runs the completion listeners on a request that reached a terminal
  /// state, then retires it: its id leaves the index and its slot joins
  /// the free list for the next submit.
  void Finish(Request* request);

  /// Appends a request to the wait queue and to its priority level, and
  /// lowers the shed floor to its bound when deadline shedding is on.
  void Enqueue(Request* request);
  /// Lowers shed_floor_ to `request`'s shed-by bound when that is earlier.
  void LowerShedFloor(const Request& request);
  /// Takes a request out of the wait queue and its level; a no-op for a
  /// request that is not in the queue (a fault retry in backoff).
  void Unqueue(Request* request);
  /// The rest of a request's departure from queue_: its level entry, its
  /// queue_seq and its workload's queued count.
  void Dequeued(Request* request);
  /// Dispatch slots open this round: the scheduler's concurrency limit
  /// (scaled down while degraded) minus running, or the whole queue when
  /// nothing caps concurrency.
  int FreeSlots();
  /// Offers waiting requests in preference order until `slots` of them
  /// are dispatched or every one was offered; fills round_.
  void DispatchRound(size_t slots);
  /// The CoDel LIFO round: offers waiting requests newest first, ties to
  /// the higher id.
  void OfferNewestFirst(size_t slots);
  /// Runs the dispatch gates on one waiting request and dispatches it
  /// into round_ if every gate allows.
  void Offer(Request* request);
  /// Removes round_'s dispatches from queue_ and their levels.
  void RemoveDispatched();
  void DispatchRequest(Request* request);
  /// Back into the wait queue; `reason` as for Telemetry::OnRequeued.
  void Requeue(Request* request, const char* reason);
  /// Kill-and-resubmit / deadlock-victim requeue, counted against
  /// `max_resubmits`; returns false (doing nothing) once that is spent.
  [[nodiscard]] bool Resubmit(Request* request, const char* reason);
  void FinishTerminal(Request* request, RequestState state,
                      const QueryOutcome& outcome);
  /// Schedules the backoff-delayed requeue of a fault-aborted request.
  void ScheduleFaultRetry(Request* request, double delay);
  void EnterDegraded();
  void ExitDegraded();
  /// Absolute deadline for a new request: spec.deadline_seconds first,
  /// else (overload protection only) the workload's response-time SLO
  /// times overload.deadline_slack; +inf when neither applies.
  double DeriveDeadline(const Request& request) const;
  /// Backoff delay the resilience policy would use for the next retry.
  double RetryBackoffDelay(const Request& request) const;
  /// Deadline + retry-budget gate ahead of ScheduleFaultRetry. On denial
  /// fills `reason` ("deadline" or "budget").
  [[nodiscard]] bool FaultRetryAllowed(const Request& request, double delay,
                                       std::string* reason);
  /// Marks a request shed (terminal), with counters/log/telemetry.
  void ShedRequest(Request* request, const std::string& reason);
  /// Deadline-unreachable + CoDel shedding over the wait queue; flips
  /// the FIFO/LIFO discipline flag. Runs at the top of TryDispatch.
  void RunQueueShedding();

  Simulation* sim_;
  DatabaseEngine* engine_;
  Monitor* monitor_;
  WlmConfig config_;

  std::map<std::string, WorkloadDefinition> workloads_;
  // Name -> id, consulted once per request (at submit) and by the
  // name-keyed accessors; everything per request after that is by id.
  std::unordered_map<std::string, WorkloadId> ids_;
  std::vector<WorkloadState> by_id_;
  WorkloadCounters no_counters_;  // counters() of an unknown name
  std::unique_ptr<RequestClassifier> classifier_;
  /// An admission controller and its info().name, read once when added.
  struct Gate {
    std::unique_ptr<AdmissionController> controller;
    std::string name;
  };
  std::vector<Gate> admission_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<ExecutionController>> execution_;

  // Every request this manager has allocated, live or retired. A request
  // never moves, so queue_, the levels and round_ hold plain pointers.
  // request_index_ maps a live query id to its slot; free_ lists the
  // retired slots, which Submit reuses before it allocates.
  std::vector<std::unique_ptr<Request>> requests_;
  IdIndex request_index_;
  std::vector<uint32_t> free_;
  uint64_t next_sequence_ = 0;
  // Waiting requests (owned by requests_) in the order they entered, so
  // with queue_seq ascending; compacted and handed to Scheduler::Order.
  // Bounded by OverloadOptions::codel.queue_capacity when overload
  // protection is enabled; the seed's unbounded behavior is kept when it
  // is off.
  // wlm-lint: allow(Q1) capacity enforced by OverloadController when enabled
  HeadVector<const Request*> queue_;
  // True only while queue_ is ascending by (enqueued_time, id): Enqueue
  // clears it when a request sorts before the back, an empty queue sets
  // it, and a LIFO round re-checks it. Removals keep the order.
  bool queue_in_order_ = true;
  // Sorting space for a LIFO round over an out-of-order queue_.
  std::vector<const Request*> lifo_order_;
  // The dispatch index beside queue_: its entries partitioned by priority
  // (index = BusinessPriority value), each level in queue_ order. Every
  // site that changes queue_ updates it.
  std::array<PriorityLevel, kBusinessPriorityCount> levels_;
  uint64_t next_seq_ = 0;
  // Deadline shedding's filter: no waiting request's shed-by bound is
  // earlier, so before it `now + est_elapsed > deadline` holds for none of
  // them and the scan is skipped. Enqueue lowers it; a departure leaves it
  // early, which costs at most one extra scan, and each scan resets it to
  // the earliest bound left in the queue.
  double shed_floor_ = std::numeric_limits<double>::infinity();
  // The installed scheduler's discipline; kArrival without a scheduler.
  QueueDiscipline discipline_ = QueueDiscipline::kArrival;
  std::vector<Request*> round_;  // dispatched this round, still in queue_
  std::set<QueryId> running_;  // ordered: Running() is by query id
  // Nodes of running_ entries that finished, re-keyed by later dispatches.
  std::vector<std::set<QueryId>::node_type> spare_running_;
  std::unordered_map<QueryId, SuspendedQuery> resumable_;
  std::unordered_set<QueryId> resubmit_on_kill_;
  std::unordered_set<QueryId> fault_aborted_;
  std::set<QueryId> degraded_throttled_;
  int active_faults_ = 0;
  std::vector<std::function<void(const Request&)>> completion_listeners_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<OverloadController> overload_;  // null when disabled
  bool queue_lifo_ = false;
  bool in_try_dispatch_ = false;
};

}  // namespace wlm

#endif  // WLM_CORE_WORKLOAD_MANAGER_H_
