#include "engine/execution.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wlm {

const char* SuspendStrategyToString(SuspendStrategy s) {
  switch (s) {
    case SuspendStrategy::kDumpState:
      return "DumpState";
    case SuspendStrategy::kGoBack:
      return "GoBack";
  }
  return "?";
}

QueryExecution::QueryExecution(const QuerySpec& spec, const Plan& plan,
                               ExecutionContext ctx, double dispatch_time,
                               double io_ops_per_second) {
  Reset(spec, plan, std::move(ctx), dispatch_time, io_ops_per_second);
}

void QueryExecution::Reset(const QuerySpec& spec, const Plan& plan,
                           ExecutionContext&& ctx, double dispatch_time,
                           double io_ops_per_second) {
  spec_ = spec;
  plan_ = plan;
  ctx_ = std::move(ctx);
  dispatch_time_ = dispatch_time;
  io_rate_ = io_ops_per_second;
  assert(io_rate_ > 0.0);
  state_ = State::kAcquiringLocks;
  lock_cursor_ = 0;
  lock_phase_start_ = dispatch_time;
  lock_wait_total_ = 0.0;
  ops_.clear();
  ops_.reserve(plan_.operators.size());
  for (const PlanOperator& op : plan_.operators) {
    ops_.push_back(OpState{op, op.cpu_seconds, op.io_ops});
  }
  op_index_ = 0;
  total_work_ = plan_.TotalWork(io_rate_);
  spill_factor_ = 1.0;
  buffer_hit_ratio_ = 0.0;
  granted_mb_ = 0.0;
  cpu_used_ = 0.0;
  io_used_ = 0.0;
  duty_ = 1.0;
  sleeping_until_ = -1.0;
  phases_ = ExecPhaseTotals{};
  last_account_time_ = dispatch_time;
  spill_io_fraction_ = 0.0;
}

void QueryExecution::StartRunning(double now, double spill_factor,
                                  double buffer_hit_ratio,
                                  double granted_mb) {
  assert(state_ == State::kAcquiringLocks);
  SettlePhases(now, 0.0);  // close the lock-wait interval
  lock_wait_total_ = now - lock_phase_start_;
  spill_factor_ = std::max(1.0, spill_factor);
  spill_io_fraction_ = (spill_factor_ - 1.0) / spill_factor_;
  buffer_hit_ratio_ = std::clamp(buffer_hit_ratio, 0.0, 0.99);
  granted_mb_ = granted_mb;
  // Spilling inflates the device I/O; buffer-pool hits avoid it.
  double io_factor = spill_factor_ * (1.0 - buffer_hit_ratio_);
  if (io_factor != 1.0) {
    for (OpState& op : ops_) {
      op.op.io_ops *= io_factor;
      op.remaining_io *= io_factor;
    }
  }
  total_work_ = 0.0;
  for (const OpState& op : ops_) {
    total_work_ += op.op.cpu_seconds + op.op.io_ops / io_rate_;
  }
  state_ = State::kRunning;
}

double QueryExecution::lock_wait_seconds(double now) const {
  if (state_ == State::kAcquiringLocks) return now - lock_phase_start_;
  return lock_wait_total_;
}

double QueryExecution::CpuDemand(double dt) const {
  if (state_ != State::kRunning && state_ != State::kSuspending) return 0.0;
  double cap = static_cast<double>(std::max(1, spec_.dop)) * dt * duty_;
  return std::min(cap, RemainingCpu());
}

double QueryExecution::IoDemand(double dt, double device_rate) const {
  if (state_ != State::kRunning && state_ != State::kSuspending) return 0.0;
  double cap = device_rate * dt * duty_;
  return std::min(cap, RemainingIo());
}

bool QueryExecution::Advance(double cpu_grant, double io_grant) {
  if (state_ != State::kRunning && state_ != State::kSuspending) return false;
  double cpu_left = cpu_grant;
  double io_left = io_grant;
  while (op_index_ < ops_.size()) {
    OpState& op = ops_[op_index_];
    double use_cpu = std::min(cpu_left, op.remaining_cpu);
    op.remaining_cpu -= use_cpu;
    cpu_left -= use_cpu;
    cpu_used_ += use_cpu;

    double use_io = std::min(io_left, op.remaining_io);
    op.remaining_io -= use_io;
    io_left -= use_io;
    io_used_ += use_io;

    if (op.remaining_cpu > 1e-12 || op.remaining_io > 1e-9) {
      break;  // current operator still has work; grants exhausted for it
    }
    op.remaining_cpu = 0.0;
    op.remaining_io = 0.0;
    ++op_index_;
  }
  return op_index_ >= ops_.size();
}

void QueryExecution::set_duty(double duty) {
  duty_ = std::clamp(duty, 0.0, 1.0);
}

void QueryExecution::SleepUntil(double until) {
  if (state_ == State::kRunning) {
    state_ = State::kSleeping;
    sleeping_until_ = until;
  }
}

bool QueryExecution::IsSleeping(double now) const {
  return state_ == State::kSleeping && now < sleeping_until_;
}

void QueryExecution::MaybeWake(double now) {
  if (state_ == State::kSleeping && now >= sleeping_until_) {
    SettlePhases(now, 0.0);  // close the pause interval before waking
    state_ = State::kRunning;
    sleeping_until_ = -1.0;
  }
}

void QueryExecution::SettlePhases(double now, double cpu_delta) {
  double dt = now - last_account_time_;
  last_account_time_ = now;
  if (dt <= 0.0) return;
  switch (state_) {
    case State::kAcquiringLocks:
      phases_.lock_wait_seconds += dt;
      return;
    case State::kSleeping:
      phases_.throttled_seconds += dt;
      return;
    case State::kSuspending:
      phases_.suspend_flush_seconds += dt;
      return;
    case State::kFinished:  // terminal settles happen before MarkFinished
      phases_.cpu_run_seconds += dt;
      return;
    case State::kRunning:
      break;
  }
  // The (1 - duty) slice of a duty-cycled interval is self-imposed sleep
  // no matter what the active slice did.
  double active = dt * duty_;
  phases_.throttled_seconds += dt - active;
  // On-CPU time is the granted CPU spread over the query's parallel
  // lanes; the rest of the active slice the query waited on the device
  // (or was starved of a grant). Spill-inflated I/O makes the governor's
  // short memory grant responsible for its share of that stall.
  double cpu_time = std::min(
      active, cpu_delta / static_cast<double>(std::max(1, spec_.dop)));
  double stall = active - cpu_time;
  double memory_stall = stall * spill_io_fraction_;
  phases_.cpu_run_seconds += cpu_time;
  phases_.memory_stall_seconds += memory_stall;
  phases_.io_stall_seconds += stall - memory_stall;
}

ExecPhaseTotals QueryExecution::PhasesAt(double now) const {
  ExecPhaseTotals out = phases_;
  double dt = now - last_account_time_;
  if (dt <= 0.0) return out;
  switch (state_) {
    case State::kAcquiringLocks:
      out.lock_wait_seconds += dt;
      break;
    case State::kSleeping:
      out.throttled_seconds += dt;
      break;
    case State::kSuspending:
      out.suspend_flush_seconds += dt;
      break;
    case State::kRunning:
    case State::kFinished:
      // Provisional: the grant for the open interval is unknown until the
      // next tick settles it, so show it as active time.
      out.throttled_seconds += dt * (1.0 - duty_);
      out.cpu_run_seconds += dt * duty_;
      break;
  }
  return out;
}

double QueryExecution::FractionDone() const {
  if (state_ == State::kSuspending) return 1.0;  // flush is its own work
  if (total_work_ <= 0.0) return 1.0;
  double remaining = 0.0;
  for (size_t i = op_index_; i < ops_.size(); ++i) {
    remaining += ops_[i].remaining_cpu + ops_[i].remaining_io / io_rate_;
  }
  return std::clamp(1.0 - remaining / total_work_, 0.0, 1.0);
}

double QueryExecution::RemainingCpu() const {
  double total = 0.0;
  for (size_t i = op_index_; i < ops_.size(); ++i) {
    total += ops_[i].remaining_cpu;
  }
  return total;
}

double QueryExecution::RemainingIo() const {
  double total = 0.0;
  for (size_t i = op_index_; i < ops_.size(); ++i) {
    total += ops_[i].remaining_io;
  }
  return total;
}

namespace {

// Work-normalized progress of one operator in [0, 1].
double OpProgress(const PlanOperator& op, double remaining_cpu,
                  double remaining_io, double io_rate) {
  double total = op.cpu_seconds + op.io_ops / io_rate;
  if (total <= 0.0) return 1.0;
  double remaining = remaining_cpu + remaining_io / io_rate;
  return std::clamp(1.0 - remaining / total, 0.0, 1.0);
}

// Last asynchronous checkpoint at or before `progress`.
double LastCheckpointAt(double progress, double checkpoint_fraction) {
  if (checkpoint_fraction <= 0.0) return progress;  // continuous checkpoints
  if (checkpoint_fraction >= 1.0) return 0.0;       // only at operator start
  return std::floor(progress / checkpoint_fraction) * checkpoint_fraction;
}

}  // namespace

double QueryExecution::CurrentStateMb() const {
  if (op_index_ >= ops_.size()) return 0.0;
  const OpState& op = ops_[op_index_];
  double p = OpProgress(op.op, op.remaining_cpu, op.remaining_io, io_rate_);
  return op.op.max_state_mb * p;
}

Status QueryExecution::BeginSuspend(SuspendStrategy strategy, double now,
                                    double io_ops_per_mb,
                                    SuspendedQuery* out) {
  if (state_ == State::kFinished) {
    return Status::FailedPrecondition("execution already finished");
  }
  if (state_ == State::kSuspending) {
    return Status::AlreadyExists("suspend already in progress");
  }
  SettlePhases(now, 0.0);  // close the pre-suspend interval in its state

  out->spec = spec_;
  out->strategy = strategy;
  out->suspended_at = now;
  out->progress_at_suspend = FractionDone();
  out->cpu_used_before = cpu_used_;
  out->io_used_before = io_used_;
  out->remaining_ops.clear();
  out->redo_cpu = 0.0;
  out->redo_io = 0.0;

  // Control-state overhead every strategy pays (plan state, cursors).
  constexpr double kControlStateMb = 0.5;
  double state_mb = kControlStateMb;

  for (size_t i = op_index_; i < ops_.size(); ++i) {
    const OpState& st = ops_[i];
    PlanOperator remaining = st.op;  // copy type/state/checkpoint metadata
    double rem_cpu = st.remaining_cpu;
    double rem_io = st.remaining_io;
    // A sleeping (interrupt-throttled) query has in-flight operator state
    // exactly like a running one.
    if (i == op_index_ &&
        (state_ == State::kRunning || state_ == State::kSleeping)) {
      double p = OpProgress(st.op, rem_cpu, rem_io, io_rate_);
      if (strategy == SuspendStrategy::kDumpState) {
        // Persist the operator's in-memory state; resume continues exactly
        // here.
        state_mb += st.op.max_state_mb * p;
      } else {
        // GoBack: roll the operator back to its last checkpoint and redo
        // the difference at resume. CPU and I/O drain at independent
        // rates within an operator, so each dimension rolls back
        // separately — and never *forward*: a dimension still behind the
        // checkpoint keeps its true remaining work (nothing is skipped).
        double c = LastCheckpointAt(p, st.op.checkpoint_fraction);
        double target_cpu = (1.0 - c) * st.op.cpu_seconds;
        double target_io = (1.0 - c) * st.op.io_ops;
        double new_rem_cpu = std::max(rem_cpu, target_cpu);
        double new_rem_io = std::max(rem_io, target_io);
        out->redo_cpu += new_rem_cpu - rem_cpu;
        out->redo_io += new_rem_io - rem_io;
        rem_cpu = new_rem_cpu;
        rem_io = new_rem_io;
        // Persist only state up to the checkpoint that already lives on
        // disk (async checkpointing wrote it); nothing extra to flush.
      }
    }
    // De-inflate spill/buffer effects: the resume re-requests memory and
    // buffer share and re-applies whatever factors it is granted then.
    double io_factor = spill_factor_ * (1.0 - buffer_hit_ratio_);
    remaining.cpu_seconds = rem_cpu;
    remaining.io_ops = rem_io / io_factor;
    out->remaining_ops.push_back(remaining);
  }

  out->saved_state_mb = state_mb;
  out->suspend_io_cost = state_mb * io_ops_per_mb;
  out->resume_io_cost = state_mb * io_ops_per_mb;
  out->redo_io /= spill_factor_ * (1.0 - buffer_hit_ratio_);

  // Replace remaining work with the state flush; once it drains the engine
  // finalizes the suspension.
  PlanOperator flush;
  flush.type = OperatorType::kUtilityOp;
  flush.cpu_seconds = 0.0;
  flush.io_ops = out->suspend_io_cost;
  flush.max_state_mb = 0.0;
  flush.checkpoint_fraction = 1.0;
  ops_.clear();
  ops_.push_back(OpState{flush, flush.cpu_seconds, flush.io_ops});
  op_index_ = 0;
  sleeping_until_ = -1.0;
  duty_ = 1.0;  // the flush is not subject to throttling
  state_ = State::kSuspending;
  return Status::OK();
}

ExecutionProgress QueryExecution::Snapshot(double now) const {
  ExecutionProgress p;
  p.id = spec_.id;
  p.tag = ctx_.tag;
  p.kind = spec_.kind;
  p.dispatch_time = dispatch_time_;
  p.elapsed = now - dispatch_time_;
  p.fraction_done = FractionDone();
  p.cpu_used = cpu_used_;
  p.io_used = io_used_;
  p.remaining_cpu = RemainingCpu();
  p.remaining_io = RemainingIo();
  p.current_op = static_cast<int>(std::min(op_index_, ops_.size()));
  p.num_ops = static_cast<int>(ops_.size());
  p.blocked_on_locks = state_ == State::kAcquiringLocks;
  p.sleeping = state_ == State::kSleeping;
  p.suspending = state_ == State::kSuspending;
  p.rows_emitted = static_cast<int64_t>(
      p.fraction_done * static_cast<double>(spec_.result_rows));
  p.duty = duty_;
  p.shares = ctx_.shares;
  p.phases = PhasesAt(now);
  return p;
}

}  // namespace wlm
