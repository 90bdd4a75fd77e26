#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

namespace wlm {
namespace {

constexpr double kEps = 1e-12;

/// Weighted max-min fair allocation (water-filling): distributes `capacity`
/// across users with `demands` in proportion to `weights`, never granting
/// more than demanded, re-distributing slack from saturated users. Writes
/// one grant per user into `grants`.
void WeightedWaterFill(std::span<const double> demands,
                       std::span<const double> weights, double capacity,
                       std::span<double> grants, std::vector<char>* scratch) {
  size_t n = demands.size();
  std::vector<char>& open = *scratch;  // user still below its demand
  open.assign(n, 1);
  for (size_t i = 0; i < n; ++i) {
    grants[i] = 0.0;
    if (demands[i] <= kEps || weights[i] <= kEps) open[i] = 0;
  }
  while (capacity > kEps) {
    double weight_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (open[i]) weight_sum += weights[i];
    }
    if (weight_sum <= kEps) break;
    bool any_saturated = false;
    // First pass: saturate users whose fair share covers their demand.
    for (size_t i = 0; i < n; ++i) {
      if (!open[i]) continue;
      double share = capacity * weights[i] / weight_sum;
      double want = demands[i] - grants[i];
      if (share >= want - kEps) {
        grants[i] += want;
        capacity -= want;
        open[i] = 0;
        any_saturated = true;
      }
    }
    if (!any_saturated) {
      // Everyone is demand-unsaturated: split proportionally and finish.
      for (size_t i = 0; i < n; ++i) {
        if (!open[i]) continue;
        grants[i] += capacity * weights[i] / weight_sum;
      }
      break;
    }
  }
}

}  // namespace

DatabaseEngine::DatabaseEngine(Simulation* sim, EngineConfig config)
    : sim_(sim),
      config_(config),
      optimizer_(config.optimizer),
      memory_(config.memory_mb, config.spill_penalty),
      buffer_pool_(config.buffer_pool_pages),
      tick_(sim, config.tick_seconds, [this] { Tick(); }),
      deadlock_task_(sim, config.deadlock_check_period,
                     [this] { CheckDeadlocks(); }) {
  lock_manager_.set_grant_callback(
      [this](TxnId txn, LockKey key) { OnLockGranted(txn, key); });
  lock_manager_.set_time_source([this] { return sim_->Now(); });
}

DatabaseEngine::~DatabaseEngine() = default;

Status DatabaseEngine::Dispatch(const QuerySpec& spec, ExecutionContext ctx) {
  return DispatchWithPlan(spec, optimizer_.BuildPlan(spec), std::move(ctx));
}

Status DatabaseEngine::DispatchWithPlan(const QuerySpec& spec,
                                        const Plan& plan,
                                        ExecutionContext ctx) {
  auto hint = active_.lower_bound(spec.id);
  if (hint != active_.end() && hint->first == spec.id) {
    return Status::AlreadyExists("query id already executing");
  }
  ActiveMap::iterator it;
  if (spare_.empty()) {
    it = active_.try_emplace(hint, spec.id, spec, plan, std::move(ctx),
                             sim_->Now(), config_.io_ops_per_second);
  } else {
    // A finished execution's node: the spec, plan and operator buffers
    // keep their capacity.
    ActiveMap::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = spec.id;
    node.mapped().Reset(spec, plan, std::move(ctx), sim_->Now(),
                        config_.io_ops_per_second);
    it = active_.insert(hint, std::move(node));
  }
  ++counters_.dispatched;
  ContinueAcquiringLocks(&it->second);
  EnsureTicking();
  return Status::OK();
}

void DatabaseEngine::ContinueAcquiringLocks(QueryExecution* exec) {
  const QuerySpec& spec = exec->spec();
  while (!exec->AllLocksAcquired()) {
    const LockRequest& req = spec.locks[exec->lock_cursor()];
    bool granted = lock_manager_.Acquire(
        spec.id, req.key,
        req.exclusive ? LockMode::kExclusive : LockMode::kShared);
    if (!granted) return;  // OnLockGranted resumes the loop
    exec->AdvanceLockCursor();
  }
  MemoryGrant grant = memory_.Grant(exec->context().tag, spec.memory_mb);
  // Working set ~ the pages the query will read; hits shrink device I/O.
  double hit_ratio =
      buffer_pool_.Register(spec.id, exec->context().tag, spec.io_ops);
  exec->StartRunning(sim_->Now(), grant.spill_factor, hit_ratio,
                     grant.granted_mb);
}

void DatabaseEngine::OnLockGranted(TxnId txn, LockKey key) {
  (void)key;
  auto it = active_.find(txn);
  if (it == active_.end()) return;
  QueryExecution& exec = it->second;
  if (exec.state() != QueryExecution::State::kAcquiringLocks) return;
  exec.AdvanceLockCursor();
  ContinueAcquiringLocks(&exec);
}

void DatabaseEngine::EnsureTicking() {
  if (!tick_.running()) tick_.Start();
  if (!deadlock_task_.running()) deadlock_task_.Start();
}

void DatabaseEngine::Tick() {
  const double dt = config_.tick_seconds;
  const double now = sim_->Now();
  TickScratch& s = scratch_;

  s.ids.clear();
  s.execs.clear();
  for (auto& [id, exec] : active_) {
    exec.MaybeWake(now);
    s.ids.push_back(id);
    s.execs.push_back(&exec);
  }

  const size_t n = s.execs.size();
  s.cpu_demand.resize(n);
  s.io_demand.resize(n);
  s.cpu_weight.resize(n);
  s.io_weight.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s.cpu_demand[i] = s.execs[i]->CpuDemand(dt);
    s.io_demand[i] = s.execs[i]->IoDemand(dt, config_.io_ops_per_second);
    s.cpu_weight[i] = s.execs[i]->shares().cpu_weight;
    s.io_weight[i] = s.execs[i]->shares().io_weight;
  }
  GroupActive();

  // Injected degradation shrinks delivered capacity; utilization is
  // reported against the *degraded* capacity so controllers see the
  // resulting pressure.
  double cpu_capacity =
      static_cast<double>(config_.num_cpus - cpus_offline_) * dt;
  double io_capacity = config_.io_ops_per_second * io_rate_factor_ * dt;
  TwoLevelFill(s.cpu_demand, s.cpu_weight, s.group_cpu_weight, cpu_capacity,
               &s.cpu_grant);
  TwoLevelFill(s.io_demand, s.io_weight, s.group_io_weight, io_capacity,
               &s.io_grant);

  // Account *consumed* work, not grants: a pipeline-stalled query may
  // leave part of a grant unused (its CPU idles while it waits for I/O in
  // the same operator), and that slack must not count as usage.
  double cpu_used_total = 0.0;
  double io_used_total = 0.0;
  s.done.clear();
  for (size_t i = 0; i < n; ++i) {
    QueryExecution* exec = s.execs[i];
    double cpu_before = exec->cpu_used();
    double io_before = exec->io_used();
    bool finished = exec->Advance(s.cpu_grant[i], s.io_grant[i]);
    double cpu_delta = exec->cpu_used() - cpu_before;
    cpu_used_total += cpu_delta;
    io_used_total += exec->io_used() - io_before;
    exec->SettlePhases(now, cpu_delta);
    if (finished) s.done.push_back(s.ids[i]);
  }
  counters_.cpu_used_seconds += cpu_used_total;
  counters_.io_ops_done += io_used_total;
  cpu_utilization_ = cpu_capacity > 0.0 ? cpu_used_total / cpu_capacity : 0;
  io_utilization_ = io_capacity > 0.0 ? io_used_total / io_capacity : 0;
  // ~1 second smoothing horizon regardless of the tick length.
  double alpha = std::min(1.0, dt / 1.0);
  smoothed_cpu_ += alpha * (cpu_utilization_ - smoothed_cpu_);
  smoothed_io_ += alpha * (io_utilization_ - smoothed_io_);

  // Finish callbacks dispatch and kill, but never tick: `done` holds.
  for (QueryId id : s.done) {
    auto it = active_.find(id);
    if (it == active_.end()) continue;  // a callback already removed it
    if (it->second.state() == QueryExecution::State::kSuspending) {
      FinalizeSuspend(id);
    } else {
      FinishExecution(id, OutcomeKind::kCompleted);
    }
  }

  if (active_.empty()) {
    tick_.Stop();
    deadlock_task_.Stop();
    // Idle engine: report truthfully instead of leaving stale values.
    cpu_utilization_ = 0.0;
    io_utilization_ = 0.0;
  }
}

void DatabaseEngine::GroupActive() {
  // Two-level fair sharing: capacity is divided across *groups* first
  // (grouped tags use their group weights; an ungrouped query is its own
  // group), then within each group across its member queries.
  TickScratch& s = scratch_;
  const size_t n = s.execs.size();
  s.group_of.resize(n);
  s.group_cpu_weight.clear();
  s.group_io_weight.clear();
  s.tag_groups.clear();
  for (size_t i = 0; i < n; ++i) {
    auto shares_it = group_shares_.find(s.execs[i]->context().tag);
    if (shares_it == group_shares_.end()) {
      s.group_of[i] = s.group_cpu_weight.size();
      s.group_cpu_weight.push_back(s.cpu_weight[i]);
      s.group_io_weight.push_back(s.io_weight[i]);
      continue;
    }
    const ResourceShares* shares = &shares_it->second;
    auto seen =
        std::ranges::find(s.tag_groups, shares, &TickScratch::TagGroup::first);
    if (seen == s.tag_groups.end()) {
      seen = s.tag_groups.insert(seen, {shares, s.group_cpu_weight.size()});
      s.group_cpu_weight.push_back(shares->cpu_weight);
      s.group_io_weight.push_back(shares->io_weight);
    }
    s.group_of[i] = seen->second;
  }
  // Counting sort by group; each group's members stay in index order.
  const size_t groups = s.group_cpu_weight.size();
  s.group_begin.assign(groups + 1, 0);
  for (size_t g : s.group_of) ++s.group_begin[g + 1];
  for (size_t g = 0; g < groups; ++g) s.group_begin[g + 1] += s.group_begin[g];
  s.members.resize(n);
  for (size_t i = 0; i < n; ++i) s.members[s.group_begin[s.group_of[i]]++] = i;
  // Placing advanced each group's begin to the next group's: shift back.
  std::shift_right(s.group_begin.begin(), s.group_begin.end(), 1);
  s.group_begin[0] = 0;
}

void DatabaseEngine::TwoLevelFill(const std::vector<double>& demands,
                                  const std::vector<double>& weights,
                                  const std::vector<double>& group_weights,
                                  double capacity,
                                  std::vector<double>* grants) {
  TickScratch& s = scratch_;
  const size_t groups = group_weights.size();
  s.group_demand.assign(groups, 0.0);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t k = s.group_begin[g]; k < s.group_begin[g + 1]; ++k) {
      s.group_demand[g] += demands[s.members[k]];
    }
  }
  s.group_grant.resize(groups);
  WeightedWaterFill(s.group_demand, group_weights, capacity, s.group_grant,
                    &s.open);
  grants->assign(demands.size(), 0.0);
  for (size_t g = 0; g < groups; ++g) {
    const size_t begin = s.group_begin[g];
    const size_t end = s.group_begin[g + 1];
    if (end - begin == 1) {
      (*grants)[s.members[begin]] = s.group_grant[g];
      continue;
    }
    s.member_demand.clear();
    s.member_weight.clear();
    for (size_t k = begin; k < end; ++k) {
      s.member_demand.push_back(demands[s.members[k]]);
      s.member_weight.push_back(weights[s.members[k]]);
    }
    s.member_grant.resize(end - begin);
    WeightedWaterFill(s.member_demand, s.member_weight, s.group_grant[g],
                      s.member_grant, &s.open);
    for (size_t k = begin; k < end; ++k) {
      (*grants)[s.members[k]] = s.member_grant[k - begin];
    }
  }
}

void DatabaseEngine::CheckDeadlocks() {
  std::vector<TxnId> victims = lock_manager_.FindDeadlockVictims();
  for (TxnId victim : victims) {
    if (active_.count(victim) > 0) {
      FinishExecution(victim, OutcomeKind::kAbortedDeadlock);
    }
  }
}

QueryOutcome DatabaseEngine::MakeOutcome(const QueryExecution& exec,
                                         OutcomeKind kind) const {
  QueryOutcome out;
  out.id = exec.spec().id;
  out.kind = kind;
  out.dispatch_time = exec.dispatch_time();
  out.finish_time = sim_->Now();
  out.cpu_used = exec.cpu_used();
  out.io_used = exec.io_used();
  out.memory_granted_mb = exec.granted_mb();
  out.spill_factor = exec.spill_factor();
  out.buffer_hit_ratio = exec.buffer_hit_ratio();
  out.lock_wait_seconds = exec.lock_wait_seconds(sim_->Now());
  out.phases = exec.phases();
  return out;
}

void DatabaseEngine::FinishExecution(QueryId id, OutcomeKind kind) {
  auto it = active_.find(id);
  assert(it != active_.end());
  ActiveMap::node_type node = active_.extract(it);
  QueryExecution& exec = node.mapped();
  pending_suspend_.erase(id);
  exec.SettlePhases(sim_->Now(), 0.0);
  exec.MarkFinished();
  double lock_hold = lock_manager_.ReleaseAll(id);
  memory_.Release(exec.context().tag, exec.granted_mb());
  buffer_pool_.Unregister(id);
  switch (kind) {
    case OutcomeKind::kCompleted:
      ++counters_.completed;
      break;
    case OutcomeKind::kKilled:
      ++counters_.killed;
      break;
    case OutcomeKind::kAbortedDeadlock:
      ++counters_.deadlock_aborts;
      break;
    case OutcomeKind::kSuspended:
      break;  // handled by FinalizeSuspend
  }
  QueryOutcome outcome = MakeOutcome(exec, kind);
  outcome.lock_hold_seconds = lock_hold;
  Retire(std::move(node), outcome);
}

void DatabaseEngine::FinalizeSuspend(QueryId id) {
  auto it = active_.find(id);
  assert(it != active_.end());
  auto pending = pending_suspend_.find(id);
  assert(pending != pending_suspend_.end());
  ActiveMap::node_type node = active_.extract(it);
  QueryExecution& exec = node.mapped();
  SuspendedQuery bundle = std::move(pending->second);
  pending_suspend_.erase(pending);
  // Account the flush work into the bundle's "used before" totals so the
  // resumed execution's accounting is continuous.
  bundle.cpu_used_before = exec.cpu_used();
  bundle.io_used_before = exec.io_used();
  exec.SettlePhases(sim_->Now(), 0.0);
  exec.MarkFinished();
  double lock_hold = lock_manager_.ReleaseAll(id);
  memory_.Release(exec.context().tag, exec.granted_mb());
  buffer_pool_.Unregister(id);
  ++counters_.suspends;
  suspended_[id] = std::move(bundle);
  QueryOutcome outcome = MakeOutcome(exec, OutcomeKind::kSuspended);
  outcome.lock_hold_seconds = lock_hold;
  Retire(std::move(node), outcome);
}

void DatabaseEngine::Retire(ActiveMap::node_type node,
                            const QueryOutcome& outcome) {
  // The node is out of active_ and off the spare list while the callbacks
  // run, so a dispatch they make cannot reuse the execution under them.
  QueryExecution& exec = node.mapped();
  if (exec.context().on_finish) exec.context().on_finish(outcome);
  if (observer_) observer_(outcome);
  exec.ClearFinishCallback();
  spare_.push_back(std::move(node));
}

Status DatabaseEngine::Kill(QueryId id) {
  if (active_.count(id) == 0) return Status::NotFound("query not active");
  FinishExecution(id, OutcomeKind::kKilled);
  return Status::OK();
}

Status DatabaseEngine::Suspend(QueryId id, SuspendStrategy strategy) {
  auto it = active_.find(id);
  if (it == active_.end()) return Status::NotFound("query not active");
  SuspendedQuery bundle;
  WLM_RETURN_IF_ERROR(it->second.BeginSuspend(
      strategy, sim_->Now(), config_.io_ops_per_mb, &bundle));
  pending_suspend_[id] = std::move(bundle);
  return Status::OK();
}

Result<SuspendedQuery> DatabaseEngine::TakeSuspended(QueryId id) {
  auto it = suspended_.find(id);
  if (it == suspended_.end()) {
    return Status::NotFound("no suspended query with this id");
  }
  SuspendedQuery out = std::move(it->second);
  suspended_.erase(it);
  return out;
}

Status DatabaseEngine::Resume(const SuspendedQuery& suspended,
                              ExecutionContext ctx) {
  if (active_.count(suspended.spec.id) > 0) {
    return Status::AlreadyExists("query id already executing");
  }
  Plan plan = optimizer_.BuildPlan(suspended.spec);  // for estimate fields
  plan.operators.clear();
  // Reload saved state first, then the remaining work (redo already folded
  // into remaining_ops by BeginSuspend).
  PlanOperator reload;
  reload.type = OperatorType::kUtilityOp;
  reload.cpu_seconds = 0.0;
  reload.io_ops = suspended.resume_io_cost;
  plan.operators.push_back(reload);
  for (const PlanOperator& op : suspended.remaining_ops) {
    plan.operators.push_back(op);
  }
  ++counters_.resumes;
  return DispatchWithPlan(suspended.spec, plan, std::move(ctx));
}

Status DatabaseEngine::SetDuty(QueryId id, double duty) {
  auto it = active_.find(id);
  if (it == active_.end()) return Status::NotFound("query not active");
  // Close the open interval at the old duty before the change takes hold.
  it->second.SettlePhases(sim_->Now(), 0.0);
  it->second.set_duty(duty);
  return Status::OK();
}

Status DatabaseEngine::Pause(QueryId id, double seconds) {
  auto it = active_.find(id);
  if (it == active_.end()) return Status::NotFound("query not active");
  if (seconds < 0.0) return Status::InvalidArgument("negative pause");
  it->second.SettlePhases(sim_->Now(), 0.0);
  it->second.SleepUntil(sim_->Now() + seconds);
  return Status::OK();
}

Status DatabaseEngine::SetShares(QueryId id, const ResourceShares& shares) {
  if (shares.cpu_weight <= 0.0 || shares.io_weight <= 0.0) {
    return Status::InvalidArgument("weights must be positive");
  }
  auto it = active_.find(id);
  if (it == active_.end()) return Status::NotFound("query not active");
  it->second.set_shares(shares);
  return Status::OK();
}

void DatabaseEngine::SetGroupShares(const std::string& tag,
                                    const ResourceShares& shares) {
  group_shares_[tag] = shares;
}

void DatabaseEngine::ClearGroupShares(const std::string& tag) {
  group_shares_.erase(tag);
}

void DatabaseEngine::SetIoRateFactor(double factor) {
  io_rate_factor_ = std::clamp(factor, 0.0, 1.0);
}

void DatabaseEngine::SetCpusOffline(int cores) {
  cpus_offline_ = std::clamp(cores, 0, config_.num_cpus);
}

const ResourceShares* DatabaseEngine::FindGroupShares(
    const std::string& tag) const {
  auto it = group_shares_.find(tag);
  return it == group_shares_.end() ? nullptr : &it->second;
}

Result<ExecutionProgress> DatabaseEngine::GetProgress(QueryId id) const {
  auto it = active_.find(id);
  if (it == active_.end()) return Status::NotFound("query not active");
  return it->second.Snapshot(sim_->Now());
}

std::vector<ExecutionProgress> DatabaseEngine::Snapshot() const {
  std::vector<ExecutionProgress> out;
  out.reserve(active_.size());
  for (const auto& [id, exec] : active_) {
    (void)id;
    out.push_back(exec.Snapshot(sim_->Now()));
  }
  return out;
}

}  // namespace wlm
