#include "core/workload_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>

namespace wlm {
namespace {

// Only queued and suspended requests wait in the queue.
bool Waiting(const Request& request) {
  return request.state == RequestState::kQueued ||
         request.state == RequestState::kSuspended;
}

// queue_'s usual order, and the LIFO round's in reverse: by the time a
// request entered the queue, ties to the lower id.
bool EnqueuedBefore(const Request* a, const Request* b) {
  if (a->enqueued_time != b->enqueued_time) {
    return a->enqueued_time < b->enqueued_time;
  }
  return a->spec.id < b->spec.id;
}

// The instant before which deadline shedding cannot shed `request`:
// `now + est > deadline` is false for every `now` earlier than it. Its two
// roundings together err by at most 2^-52 (|deadline| + |est|), far inside
// the margin. NaN when the test never holds (a NaN deadline or estimate).
double ShedBound(const Request& request) {
  const double est = request.plan.est_elapsed_seconds;
  return (request.deadline - est) -
         1e-9 * (1.0 + std::abs(request.deadline) + std::abs(est));
}

}  // namespace

WorkloadManager::WorkloadManager(Simulation* sim, DatabaseEngine* engine,
                                 Monitor* monitor, WlmConfig config)
    : sim_(sim), engine_(engine), monitor_(monitor), config_(config) {
  telemetry_ = std::make_unique<Telemetry>(sim_, monitor_, config_.telemetry);
  if (config_.overload.enabled) {
    overload_ = std::make_unique<OverloadController>(config_.overload);
    // Breaker transitions carry the numeric breaker state as `level`.
    overload_->set_transition_listener(
        [this](OverloadController::TransitionKind kind,
               const std::string& workload, int level,
               const std::string& detail) {
          if (kind == OverloadController::TransitionKind::kBrownoutStepped) {
            telemetry_->OnBrownoutStep(level, detail);
          } else {
            telemetry_->OnBreakerTransition(workload, level, detail);
          }
        });
  }
  WorkloadDefinition fallback;
  fallback.name = kDefaultWorkload;
  DefineWorkload(std::move(fallback));
  monitor_->AddSampleListener(
      [this](const SystemIndicators& ind) { OnSample(ind); });
}

WorkloadManager::~WorkloadManager() = default;

void WorkloadManager::DefineWorkload(WorkloadDefinition def) {
  telemetry_->WatchSlos(def.name, def.slos);
  const bool inserted =
      ids_.try_emplace(def.name, static_cast<WorkloadId>(by_id_.size()))
          .second;
  WorkloadDefinition& stored = workloads_[def.name];
  stored = std::move(def);
  if (inserted) by_id_.emplace_back().def = &stored;
}

const WorkloadDefinition* WorkloadManager::workload(
    const std::string& name) const {
  auto it = workloads_.find(name);
  return it == workloads_.end() ? nullptr : &it->second;
}

void WorkloadManager::set_classifier(
    std::unique_ptr<RequestClassifier> classifier) {
  classifier_ = std::move(classifier);
}

void WorkloadManager::AddAdmissionController(
    std::unique_ptr<AdmissionController> ac) {
  std::string name = ac->info().name;
  admission_.push_back({std::move(ac), std::move(name)});
}

void WorkloadManager::set_scheduler(std::unique_ptr<Scheduler> scheduler) {
  scheduler_ = std::move(scheduler);
  discipline_ =
      scheduler_ ? scheduler_->discipline() : QueueDiscipline::kArrival;
}

void WorkloadManager::AddExecutionController(
    std::unique_ptr<ExecutionController> ec) {
  execution_.push_back(std::move(ec));
}

std::vector<TechniqueInfo> WorkloadManager::EmployedTechniques() const {
  std::vector<TechniqueInfo> out;
  if (classifier_) out.push_back(classifier_->info());
  for (const Gate& gate : admission_) out.push_back(gate.controller->info());
  if (scheduler_) out.push_back(scheduler_->info());
  for (const auto& ec : execution_) out.push_back(ec->info());
  return out;
}

void WorkloadManager::RegisterTechniques(TaxonomyRegistry* registry) const {
  for (const TechniqueInfo& info : EmployedTechniques()) {
    registry->Register(info);
  }
}

Status WorkloadManager::Submit(const QuerySpec& spec) {
  return Admit(spec, nullptr);
}

Status WorkloadManager::SubmitWithPlan(const QuerySpec& spec,
                                       const Plan& plan) {
  return Admit(spec, &plan);
}

Status WorkloadManager::Admit(const QuerySpec& spec, const Plan* plan) {
  if (Lookup(spec.id) != nullptr) {
    return Status::AlreadyExists("request id already submitted");
  }
  if (IsSyntheticQueryId(spec.id)) {
    return Status::InvalidArgument(
        "query id collides with the reserved synthetic-track block");
  }
  // A retired request's storage first: copying into it keeps the
  // capacity of its strings, lock list and operators.
  uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(requests_.size());
    requests_.push_back(std::make_unique<Request>());
  } else {
    slot = free_.back();
    free_.pop_back();
    requests_[slot]->Recycle();
  }
  Request* request = requests_[slot].get();
  request->spec = spec;
  if (plan != nullptr) {
    request->plan = *plan;
  } else {
    engine_->optimizer().BuildPlan(request->spec, &request->plan);
  }
  request->arrival_time = sim_->Now();
  request->sequence = next_sequence_++;

  // 1. Identification (workload characterization): the name resolves to
  // the workload's id once, here; every later step indexes by the id.
  WorkloadId workload_id = 0;  // the default workload
  if (classifier_) {
    auto it = ids_.find(classifier_->Classify(*request, *this));
    if (it != ids_.end()) workload_id = it->second;
  }
  WorkloadState& state = by_id_[workload_id];
  request->workload = state.def->name;
  request->workload_id = workload_id;
  request->priority = state.def->priority;
  request->shares = state.def->EffectiveShares();
  request->deadline = DeriveDeadline(*request);

  WorkloadCounters& counters = state.counters;
  ++counters.submitted;

  request_index_.Insert(request->spec.id, slot);
  telemetry_->OnSubmit(request->spec.id, workload_id, request->workload,
                       request->spec.kind, request->spec.journey);

  // 2. Admission control at arrival.
  for (const Gate& gate : admission_) {
    Status decision = gate.controller->OnArrival(*request, *this);
    if (!decision.ok()) {
      request->state = RequestState::kRejected;
      request->finish_time = sim_->Now();
      request->reject_reason = decision.message();
      ++counters.rejected;
      telemetry_->OnRejected(request->spec.id, workload_id, request->workload,
                             gate.name, decision.message());
      Finish(request);
      return Status::Rejected(decision.message());
    }
  }

  // 2b. Overload protection: queue capacity, brownout shed level, and
  // the workload's circuit breaker all gate the arrival before it may
  // consume a queue slot.
  if (overload_) {
    std::string shed_reason = overload_->EvaluateArrival(
        request->workload, static_cast<int>(request->priority), sim_->Now(),
        static_cast<int>(queue_.size()));
    if (!shed_reason.empty()) {
      ShedRequest(request, shed_reason);
      return Status::Overloaded(shed_reason);
    }
  }

  // 3. Enter the wait queue; scheduling decides when it runs.
  request->state = RequestState::kQueued;
  request->enqueued_time = sim_->Now();
  Enqueue(request);
  telemetry_->OnAdmitted(request->spec.id);
  TryDispatch();
  return Status::OK();
}

double WorkloadManager::DeriveDeadline(const Request& request) const {
  if (request.spec.deadline_seconds > 0.0) {
    return request.arrival_time + request.spec.deadline_seconds;
  }
  if (!overload_ || config_.overload.deadline_slack <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  for (const ServiceLevelObjective& slo :
       by_id_[request.workload_id].def->slos) {
    if (slo.metric == ServiceLevelObjective::Metric::kAvgResponseTime ||
        slo.metric == ServiceLevelObjective::Metric::kPercentileResponseTime) {
      return request.arrival_time +
             slo.target * config_.overload.deadline_slack;
    }
  }
  return std::numeric_limits<double>::infinity();
}

void WorkloadManager::ShedRequest(Request* request,
                                  const std::string& reason) {
  resumable_.erase(request->spec.id);
  request->state = RequestState::kShed;
  request->finish_time = sim_->Now();
  request->reject_reason = reason;
  ++StateOf(*request).counters.shed;
  if (overload_) overload_->CountShed();
  telemetry_->OnShed(request->spec.id, request->workload_id, request->workload,
                     reason);
  Finish(request);
}

void WorkloadManager::RunQueueShedding() {
  if (!overload_) return;
  const double now = sim_->Now();
  // Deadline-unreachable shedding: a queued request whose estimated
  // execution no longer fits before its deadline is dead weight — shed
  // it now instead of burning engine capacity on a guaranteed miss. The
  // scan runs only once `now` reaches the shed floor, and then resets it.
  if (config_.overload.deadline_shedding && shed_floor_ <= now) {
    for (size_t i = 0; i < queue_.size();) {
      const Request* queued = queue_[i];
      if (queued->HasDeadline() &&
          now + queued->plan.est_elapsed_seconds > queued->deadline) {
        Request* victim = Lookup(queued->spec.id);
        Unqueue(victim);
        ShedRequest(victim, "deadline");
        continue;
      }
      ++i;
    }
    // A pass of its own: a shed's listeners may change the queue under
    // the scan, and every request still waiting must count.
    shed_floor_ = std::numeric_limits<double>::infinity();
    for (const Request* queued : queue_) LowerShedFloor(*queued);
  }
  // CoDel sojourn discipline on the head-of-line (oldest) request.
  if (config_.overload.shedding) {
    bool lifo = queue_lifo_;
    while (!queue_.empty()) {
      const Request* head = queue_.front();
      CodelQueuePolicy::Decision decision = overload_->ObserveQueue(
          now, now - head->enqueued_time, static_cast<int>(queue_.size()));
      lifo = decision.lifo;
      if (!decision.shed) break;
      Request* victim = Lookup(head->spec.id);
      Unqueue(victim);
      ShedRequest(victim, "codel");
    }
    if (queue_.empty()) lifo = overload_->lifo();
    if (lifo != queue_lifo_) {
      queue_lifo_ = lifo;
      telemetry_->OnQueueDiscipline(lifo);
    }
  }
}

void WorkloadManager::PriorityLevel::Insert(Request* request) {
  entries.insert(std::ranges::upper_bound(entries, request->queue_seq, {},
                                          &Entry::seq),
                 {request->queue_seq, request});
}

bool WorkloadManager::PriorityLevel::Erase(const Request* request) {
  const auto pos = entries.LowerBound(request->queue_seq, &Entry::seq);
  if (pos == entries.end() || pos->request != request) return false;
  entries.erase(pos);
  return true;
}

WorkloadManager::PriorityLevel& WorkloadManager::LevelOf(
    BusinessPriority priority) {
  return levels_[static_cast<size_t>(
      std::clamp(static_cast<int>(priority), 0, kBusinessPriorityCount - 1))];
}

void WorkloadManager::Enqueue(Request* request) {
  if (queue_.empty()) {
    queue_in_order_ = true;
  } else if (EnqueuedBefore(request, queue_.back())) {
    // A resumed request keeps its old enqueued_time, and requests that
    // enter at one instant need not come in id order.
    queue_in_order_ = false;
  }
  request->queue_seq = ++next_seq_;
  queue_.push_back(request);
  LevelOf(request->priority).Insert(request);
  ++StateOf(*request).queued;
  if (config_.overload.deadline_shedding) LowerShedFloor(*request);
}

void WorkloadManager::LowerShedFloor(const Request& request) {
  if (!request.HasDeadline()) return;
  // A NaN bound compares false and is left out: its test never holds.
  const double bound = ShedBound(request);
  if (bound < shed_floor_) shed_floor_ = bound;
}

void WorkloadManager::Unqueue(Request* request) {
  if (request->queue_seq == 0) return;
  // queue_ ascends by queue_seq, so one search finds the front (FIFO), the
  // back (LIFO) or a victim in between.
  const auto pos = queue_.LowerBound(request->queue_seq, &Request::queue_seq);
  assert(pos != queue_.end() && *pos == request);
  if (pos == queue_.end() || *pos != request) return;
  queue_.erase(pos);
  Dequeued(request);
}

void WorkloadManager::Dequeued(Request* request) {
  (void)LevelOf(request->priority).Erase(request);
  request->queue_seq = 0;
  --StateOf(*request).queued;
}

void WorkloadManager::TryDispatch() {
  if (in_try_dispatch_) return;  // re-entrancy guard (finish callbacks)
  in_try_dispatch_ = true;
  RunQueueShedding();
  // One round per pass: count the free slots, offer waiting requests in
  // preference order while slots remain, then take the round's dispatches
  // out of the queue. Another round follows only if this one dispatched
  // something.
  while (!queue_.empty()) {
    const int slots = FreeSlots();
    if (slots <= 0) break;  // concurrency limit reached: nothing to order
    DispatchRound(static_cast<size_t>(slots));
    if (round_.empty()) break;  // nothing else can go this round
    RemoveDispatched();
  }
  in_try_dispatch_ = false;
}

int WorkloadManager::FreeSlots() {
  int limit = scheduler_ ? scheduler_->ConcurrencyLimit(*this) : 0;
  if (limit <= 0) return static_cast<int>(queue_.size());
  // Graceful degradation sheds MPL while a fault window is active: the
  // shrunken engine thrashes at the healthy concurrency level.
  if (degraded()) {
    limit = std::max(1, static_cast<int>(std::floor(
                            limit * config_.resilience.degraded_mpl_factor)));
  }
  return limit - static_cast<int>(running_.size());
}

void WorkloadManager::DispatchRound(size_t slots) {
  round_.clear();
  // The queue and its levels stay as they are until the round ends:
  // dispatch only starts an execution, and gates cannot change the queue.
  if (queue_lifo_) {
    OfferNewestFirst(slots);
    return;
  }
  switch (discipline_) {
    case QueueDiscipline::kArrival:
      for (size_t i = 0; i < queue_.size() && round_.size() < slots; ++i) {
        Offer(Lookup(queue_[i]->spec.id));
      }
      break;
    case QueueDiscipline::kPriority:
      for (auto level = levels_.rbegin();
           level != levels_.rend() && round_.size() < slots; ++level) {
        for (size_t i = 0;
             i < level->entries.size() && round_.size() < slots; ++i) {
          Offer(level->entries[i].request);
        }
      }
      break;
    case QueueDiscipline::kOrder:
      for (QueryId id : scheduler_->Order(queue_.Compacted(), *this)) {
        if (round_.size() >= slots) break;
        Request* request = Lookup(id);
        if (request == nullptr) continue;  // scheduler returned junk
        // Not waiting: the scheduler repeated an id dispatched this round.
        if (!Waiting(*request)) continue;
        Offer(request);
      }
      break;
  }
}

void WorkloadManager::OfferNewestFirst(size_t slots) {
  // Sustained-overload discipline: serve newest first — the freshest
  // request is the only one whose deadline is still reachable, while a
  // stale FIFO backlog would miss every SLO it drains into. Newest first
  // is EnqueuedBefore walked backwards, which queue_ nearly always is
  // already; a resumed request re-enters with its old enqueued_time, so
  // otherwise a sorted copy is walked.
  if (!queue_in_order_) {
    queue_in_order_ = std::ranges::is_sorted(queue_, EnqueuedBefore);
  }
  auto offer_from_back = [this, slots](auto first, auto last) {
    while (last != first && round_.size() < slots) {
      --last;
      Offer(Lookup((*last)->spec.id));
    }
  };
  if (queue_in_order_) {
    offer_from_back(queue_.begin(), queue_.end());
    return;
  }
  lifo_order_.assign(queue_.begin(), queue_.end());
  std::ranges::sort(lifo_order_, EnqueuedBefore);
  offer_from_back(lifo_order_.cbegin(), lifo_order_.cend());
}

void WorkloadManager::Offer(Request* request) {
  for (const Gate& gate : admission_) {
    if (!gate.controller->AllowDispatch(*request, *this)) {
      telemetry_->OnDispatchGated(request->spec.id, request->workload_id,
                                  request->workload, gate.name);
      return;
    }
  }
  DispatchRequest(request);
  round_.push_back(request);
}

void WorkloadManager::RemoveDispatched() {
  // By pointer, so no waiting request's state is read. Most rounds
  // dispatch one request: one completion frees one slot.
  if (round_.size() == 1) {
    Unqueue(round_.front());
    return;
  }
  for (Request* request : round_) Dequeued(request);
  std::ranges::sort(round_);
  queue_.erase_if([this](const Request* queued) {
    return std::ranges::binary_search(round_, queued);
  });
}

void WorkloadManager::DispatchRequest(Request* request) {
  QueryId id = request->spec.id;
  WorkloadState& state = StateOf(*request);
  if (request->dispatch_time < 0.0) {
    request->dispatch_time = sim_->Now();
    state.counters.queue_waits.Add(sim_->Now() - request->arrival_time);
  }
  request->state = RequestState::kRunning;
  if (spare_running_.empty()) {
    running_.insert(id);
  } else {
    spare_running_.back().value() = id;
    running_.insert(std::move(spare_running_.back()));
    spare_running_.pop_back();
  }
  ++state.running;

  ExecutionContext ctx;
  ctx.tag = request->workload;
  ctx.shares = request->shares;
  ctx.on_finish = [this](const QueryOutcome& outcome) { OnFinish(outcome); };

  Status status;
  auto resume_it = resumable_.find(id);
  if (resume_it != resumable_.end()) {
    SuspendedQuery bundle = std::move(resume_it->second);
    resumable_.erase(resume_it);
    telemetry_->OnDispatch(id, request->workload_id, request->workload,
                           SuspendStrategyToString(bundle.strategy));
    status = engine_->Resume(bundle, std::move(ctx));
  } else {
    telemetry_->OnDispatch(id, request->workload_id, request->workload,
                           /*resumed_strategy=*/nullptr);
    status =
        engine_->DispatchWithPlan(request->spec, request->plan, std::move(ctx));
  }
  // Dispatch can only fail on duplicate ids, which Submit prevents.
  assert(status.ok());
  (void)status;

  // Degradation extends to requests dispatched mid-fault-window: the MPL
  // shed already gates how many run; low-priority ones also run slowed.
  const ResilienceOptions& res = config_.resilience;
  if (degraded() && res.degraded_throttle_duty < 1.0 &&
      static_cast<int>(request->priority) <=
          static_cast<int>(kDegradedThrottleMaxPriority)) {
    if (ThrottleRequest(id, res.degraded_throttle_duty).ok()) {
      degraded_throttled_.insert(id);
    }
  }
}

void WorkloadManager::Requeue(Request* request, const char* reason) {
  request->state = RequestState::kQueued;
  request->enqueued_time = sim_->Now();
  Enqueue(request);
  telemetry_->OnRequeued(request->spec.id, request->workload_id,
                         request->workload, reason);
}

bool WorkloadManager::Resubmit(Request* request, const char* reason) {
  if (request->resubmits >= config_.max_resubmits) return false;
  ++request->resubmits;
  ++StateOf(*request).counters.resubmitted;
  Requeue(request, reason);
  return true;
}

void WorkloadManager::FinishTerminal(Request* request, RequestState state,
                                     const QueryOutcome& outcome) {
  request->state = state;
  request->finish_time = outcome.finish_time;
  WorkloadCounters& counters = StateOf(*request).counters;
  double velocity = request->Velocity(engine_->config().num_cpus,
                                      engine_->config().io_ops_per_second);
  WlmEventType terminal = WlmEventType::kCompleted;
  switch (state) {
    case RequestState::kCompleted:
      ++counters.completed;
      break;
    case RequestState::kKilled:
      ++counters.killed;
      terminal = WlmEventType::kKilled;
      break;
    case RequestState::kAborted:
      ++counters.aborted;
      terminal = WlmEventType::kAborted;
      break;
    default:
      assert(false && "not a terminal state");
  }
  // outcome.kind matches `state`: kCompleted, kKilled or kAbortedDeadlock.
  monitor_->RecordCompletion(request->workload, request->ResponseTime(),
                             velocity, outcome.kind);
  telemetry_->OnTerminal(request->spec.id, request->workload_id,
                         request->workload, terminal, request->ResponseTime(),
                         request->QueueWait(), outcome);
  if (overload_) {
    // Feed the workload's breaker and the brownout window. Shed requests
    // never reach here: counting our own sheds as violations would latch
    // the breaker open (a self-inflicted metastable loop).
    bool violated =
        state != RequestState::kCompleted ||
        (request->HasDeadline() && request->finish_time > request->deadline);
    overload_->RecordOutcome(request->workload, sim_->Now(), violated);
  }
  Finish(request);
}

void WorkloadManager::Finish(Request* request) {
  for (const auto& fn : completion_listeners_) fn(*request);
  for (const auto& ec : execution_) ec->OnRequestEnd(request->spec.id);
  const uint32_t slot = request_index_.Erase(request->spec.id);
  assert(slot != IdIndex::kNone);
  free_.push_back(slot);
}

void WorkloadManager::AddCompletionListener(
    std::function<void(const Request&)> fn) {
  completion_listeners_.push_back(std::move(fn));
}

void WorkloadManager::OnFinish(const QueryOutcome& outcome) {
  Request* request = Lookup(outcome.id);
  if (request == nullptr) return;  // not ours (engine used directly)
  WorkloadState& state = StateOf(*request);
  if (auto node = running_.extract(outcome.id)) {
    spare_running_.push_back(std::move(node));
  }
  --state.running;
  degraded_throttled_.erase(outcome.id);
  telemetry_->OnRunSegment(outcome.id, outcome);
  WorkloadCounters& counters = state.counters;

  switch (outcome.kind) {
    case OutcomeKind::kCompleted:
      FinishTerminal(request, RequestState::kCompleted, outcome);
      break;
    case OutcomeKind::kKilled: {
      bool fault_abort = fault_aborted_.erase(outcome.id) > 0;
      bool resubmit = resubmit_on_kill_.erase(outcome.id) > 0;
      if (fault_abort && config_.resilience.enabled &&
          request->resubmits < config_.resilience.max_retries) {
        double delay = RetryBackoffDelay(*request);
        std::string deny_reason;
        if (FaultRetryAllowed(*request, delay, &deny_reason)) {
          ScheduleFaultRetry(request, delay);
        } else {
          ++counters.retries_denied;
          telemetry_->OnRetryDenied(outcome.id, request->workload_id,
                                    request->workload, deny_reason);
          FinishTerminal(request, RequestState::kKilled, outcome);
        }
      } else if (!resubmit || !Resubmit(request, "after kill")) {
        FinishTerminal(request, RequestState::kKilled, outcome);
      }
      break;
    }
    case OutcomeKind::kAbortedDeadlock:
      if (!config_.resubmit_deadlock_victims ||
          !Resubmit(request, "after deadlock")) {
        FinishTerminal(request, RequestState::kAborted, outcome);
      }
      break;
    case OutcomeKind::kSuspended: {
      auto bundle = engine_->TakeSuspended(outcome.id);
      assert(bundle.ok());
      resumable_[outcome.id] = std::move(bundle).value();
      ++request->suspend_count;
      ++counters.suspended;
      request->state = RequestState::kSuspended;
      telemetry_->OnSuspended(outcome.id, request->workload_id,
                              request->workload);
      Enqueue(request);
      break;
    }
  }
  TryDispatch();
}

void WorkloadManager::OnSample(const SystemIndicators& indicators) {
  if (overload_) {
    overload_->OnSample(sim_->Now(), static_cast<int>(queue_.size()));
  }
  for (const Gate& gate : admission_) {
    gate.controller->OnSample(indicators, *this);
  }
  if (scheduler_) scheduler_->OnSample(indicators, *this);
  for (const auto& ec : execution_) ec->OnSample(indicators, *this);
  if (telemetry_->enabled()) {
    telemetry_->OnMonitorSample(indicators, queue_.size(), running_.size());
    for (WorkloadId id = 0; id < by_id_.size(); ++id) {
      const WorkloadState& state = by_id_[id];
      telemetry_->SetWorkloadOccupancy(id, state.def->name, state.queued,
                                       state.running);
    }
  }
  TryDispatch();
}

Request* WorkloadManager::Lookup(QueryId id) const {
  const uint32_t slot = request_index_.Find(id);
  return slot == IdIndex::kNone ? nullptr : requests_[slot].get();
}

const Request* WorkloadManager::Find(QueryId id) const { return Lookup(id); }

std::vector<const Request*> WorkloadManager::Queued() const {
  return std::vector<const Request*>(queue_.begin(), queue_.end());
}

std::vector<const Request*> WorkloadManager::Running() const {
  std::vector<const Request*> out;
  out.reserve(running_.size());
  for (QueryId id : running_) out.push_back(Lookup(id));
  return out;
}

int WorkloadManager::RunningInWorkload(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? 0 : by_id_[it->second].running;
}

int WorkloadManager::RunningInWorkload(WorkloadId id) const {
  return id < by_id_.size() ? by_id_[id].running : 0;
}

int WorkloadManager::QueuedInWorkload(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? 0 : by_id_[it->second].queued;
}

int WorkloadManager::QueuedInWorkload(WorkloadId id) const {
  return id < by_id_.size() ? by_id_[id].queued : 0;
}

const WorkloadCounters& WorkloadManager::counters(
    const std::string& workload) const {
  auto it = ids_.find(workload);
  return it == ids_.end() ? no_counters_ : by_id_[it->second].counters;
}

std::vector<const Request*> WorkloadManager::AllRequests() const {
  // A slot is live when the index maps its request's id back to it; a
  // retired slot's stale id maps nowhere, or to the slot reusing it.
  std::vector<const Request*> out;
  out.reserve(request_index_.size());
  for (uint32_t slot = 0; slot < requests_.size(); ++slot) {
    const Request* request = requests_[slot].get();
    if (request_index_.Find(request->spec.id) == slot) out.push_back(request);
  }
  std::ranges::sort(out, {}, &Request::sequence);
  return out;
}

std::vector<WorkloadManager::DrainedQuery> WorkloadManager::CrashDrain(
    const std::string& reason) {
  std::vector<DrainedQuery> drained;
  // Shed the whole wait queue before killing anything: the kill pass's
  // finish callbacks re-enter TryDispatch, which must find an empty queue
  // rather than promote doomed requests into the freed slots.
  std::vector<const Request*> waiting = Queued();
  queue_.clear();
  for (PriorityLevel& level : levels_) level.entries.clear();
  for (WorkloadState& state : by_id_) state.queued = 0;
  // Every drained request is out of the queue before the first shed's
  // listeners run.
  for (const Request* queued : waiting) {
    Lookup(queued->spec.id)->queue_seq = 0;
  }
  for (const Request* queued : waiting) {
    drained.push_back({queued->spec, queued->workload});
    ShedRequest(Lookup(queued->spec.id), reason);
  }
  // Each kill's finish callback erases from running_: walk a copy.
  std::vector<QueryId> running(running_.begin(), running_.end());
  for (QueryId id : running) {
    Request* request = Lookup(id);
    if (request == nullptr) continue;  // a listener already ended it
    drained.push_back({request->spec, request->workload});
    (void)KillRequest(id, /*resubmit=*/false);
  }
  return drained;
}

Status WorkloadManager::KillRequest(QueryId id, bool resubmit) {
  Request* request = Lookup(id);
  if (request == nullptr) return Status::NotFound("unknown request");
  // A queued (or suspended) victim never reached the engine, so the
  // engine can't kill it; retire it here instead: drive the same kKilled
  // terminal bookkeeping the engine's finish callback would have produced
  // for a running victim.
  if (Waiting(*request)) {
    Unqueue(request);
    resumable_.erase(id);
    if (!resubmit || !Resubmit(request, "after kill")) {
      QueryOutcome outcome;
      outcome.id = id;
      outcome.kind = OutcomeKind::kKilled;
      outcome.dispatch_time = sim_->Now();
      outcome.finish_time = sim_->Now();
      FinishTerminal(request, RequestState::kKilled, outcome);
    }
    return Status::OK();
  }
  if (resubmit) resubmit_on_kill_.insert(id);
  Status status = engine_->Kill(id);  // OnFinish fires synchronously
  if (!status.ok()) resubmit_on_kill_.erase(id);
  return status;
}

Status WorkloadManager::ThrottleRequest(QueryId id, double duty) {
  Status status = engine_->SetDuty(id, duty);
  if (status.ok()) {
    if (const Request* request = Lookup(id)) {
      telemetry_->OnThrottle(id, request->workload_id, request->workload,
                             duty);
    }
  }
  return status;
}

Status WorkloadManager::PauseRequest(QueryId id, double seconds) {
  Status status = engine_->Pause(id, seconds);
  if (status.ok()) {
    if (const Request* request = Lookup(id)) {
      telemetry_->OnPause(id, request->workload_id, request->workload,
                          seconds);
    }
  }
  return status;
}

Status WorkloadManager::SetRequestShares(QueryId id,
                                         const ResourceShares& shares) {
  Request* request = Lookup(id);
  if (request == nullptr) return Status::NotFound("unknown request");
  request->shares = shares;
  if (running_.count(id) > 0) return engine_->SetShares(id, shares);
  return Status::OK();
}

Status WorkloadManager::SetRequestPriority(QueryId id,
                                           BusinessPriority priority) {
  Request* request = Lookup(id);
  if (request == nullptr) return Status::NotFound("unknown request");
  if (static_cast<int>(priority) < 0 ||
      static_cast<int>(priority) >= kBusinessPriorityCount) {
    return Status::InvalidArgument("unknown business priority");
  }
  // A waiting request keeps its place in the queue: its entry moves to the
  // new level at its sequence position.
  if (LevelOf(request->priority).Erase(request)) {
    LevelOf(priority).Insert(request);
  }
  request->priority = priority;
  telemetry_->OnReprioritize(id, request->workload_id, request->workload,
                             BusinessPriorityToString(priority));
  return SetRequestShares(id, SharesForPriority(priority));
}

Status WorkloadManager::SuspendRequest(QueryId id, SuspendStrategy strategy) {
  if (Lookup(id) == nullptr) return Status::NotFound("unknown request");
  Status status = engine_->Suspend(id, strategy);
  if (status.ok()) {
    telemetry_->OnSuspendStart(id, SuspendStrategyToString(strategy));
  }
  return status;
}

void WorkloadManager::SetWorkloadShares(const std::string& workload,
                                        const ResourceShares& shares) {
  auto it = workloads_.find(workload);
  if (it != workloads_.end()) it->second.shares = shares;
  for (QueryId id : running_) {
    Request* request = Lookup(id);
    if (request->workload == workload) {
      request->shares = shares;
      // Ids in running_ are live in the engine; a failed update would only
      // mean the query finished this instant, which dispatch re-covers.
      (void)engine_->SetShares(id, shares);
    }
  }
  // Queued requests pick the new shares up at dispatch.
  for (const Request* queued : queue_) {
    if (queued->workload == workload) {
      Lookup(queued->spec.id)->shares = shares;
    }
  }
}

void WorkloadManager::NotifyFaultBegin(const std::string& kind,
                                       const std::string& detail) {
  ++active_faults_;
  telemetry_->OnFaultBegin(kind, detail);
  if (config_.resilience.enabled && active_faults_ == 1) EnterDegraded();
}

void WorkloadManager::NotifyFaultEnd(const std::string& kind,
                                     double started_at) {
  if (active_faults_ > 0) --active_faults_;
  telemetry_->OnFaultEnd(kind, started_at);
  if (config_.resilience.enabled && active_faults_ == 0) ExitDegraded();
}

Status WorkloadManager::AbortRequestByFault(QueryId id,
                                            const std::string& reason) {
  const Request* request = Lookup(id);
  if (request == nullptr) return Status::NotFound("unknown request");
  if (running_.count(id) == 0) {
    return Status::FailedPrecondition("request not running");
  }
  fault_aborted_.insert(id);
  telemetry_->OnFaultAbort(id, request->workload_id, request->workload,
                           reason);
  Status status = engine_->Kill(id);  // OnFinish fires synchronously
  if (!status.ok()) fault_aborted_.erase(id);
  return status;
}

double WorkloadManager::RetryBackoffDelay(const Request& request) const {
  return config_.resilience.retry_backoff_seconds *
         std::pow(config_.resilience.retry_backoff_multiplier,
                  request.resubmits);
}

bool WorkloadManager::FaultRetryAllowed(const Request& request, double delay,
                                        std::string* reason) {
  // Deadline-aware retry: if even an immediate-best-case rerun (backoff
  // plus the optimizer's elapsed estimate) lands past the deadline, the
  // retry can only burn capacity on a guaranteed SLO miss.
  if (config_.resilience.deadline_aware_retries && request.HasDeadline() &&
      sim_->Now() + delay + request.plan.est_elapsed_seconds >
          request.deadline) {
    *reason = "deadline";
    return false;
  }
  if (overload_ && !overload_->AllowRetry(request.workload, sim_->Now())) {
    *reason = "budget";
    return false;
  }
  return true;
}

void WorkloadManager::ScheduleFaultRetry(Request* request, double delay) {
  ++request->resubmits;
  ++StateOf(*request).counters.resubmitted;
  telemetry_->OnFaultRetry(request->spec.id, request->workload_id,
                           request->workload, delay);
  // Backoff limbo: queued state but not yet in the wait queue, so the
  // scheduler cannot dispatch it before the backoff elapses.
  request->state = RequestState::kQueued;
  QueryId id = request->spec.id;
  sim_->Schedule(delay, [this, id] {
    Request* r = Lookup(id);
    if (r == nullptr) return;
    if (r->state != RequestState::kQueued) return;
    if (r->queue_seq != 0) return;  // already requeued
    Requeue(r, /*reason=*/nullptr);
    TryDispatch();
  });
}

void WorkloadManager::EnterDegraded() {
  telemetry_->SetDegraded(true);
  const ResilienceOptions& res = config_.resilience;
  if (res.degraded_throttle_duty >= 1.0) return;
  for (const Request* request : Running()) {
    if (static_cast<int>(request->priority) >
        static_cast<int>(kDegradedThrottleMaxPriority)) {
      continue;
    }
    if (ThrottleRequest(request->spec.id, res.degraded_throttle_duty).ok()) {
      degraded_throttled_.insert(request->spec.id);
    }
  }
}

void WorkloadManager::ExitDegraded() {
  telemetry_->SetDegraded(false);
  std::set<QueryId> throttled;
  throttled.swap(degraded_throttled_);
  for (QueryId id : throttled) {
    if (running_.count(id) > 0) (void)ThrottleRequest(id, 1.0);
  }
  // The MPL shed lifted with the last fault window; fill freed slots.
  TryDispatch();
}

}  // namespace wlm
