#include "execution/suspend_resume.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/workload_manager.h"

namespace wlm {
namespace {

constexpr double kControlStateMb = 0.5;
/// Queued requests at or above this priority trigger suspension.
constexpr BusinessPriority kTriggerPriority = BusinessPriority::kHigh;
/// Only running queries at or below this priority are victims.
constexpr BusinessPriority kVictimMaxPriority = BusinessPriority::kLow;
/// Don't bother suspending nearly finished queries.
constexpr double kMaxVictimFractionDone = 0.9;

// Locates the currently executing operator and its progress fraction from
// the total remaining work in the snapshot.
struct OpPosition {
  size_t index = 0;
  double progress = 1.0;  // progress of the current operator in [0, 1]
  bool finished = true;
};

OpPosition LocateCurrentOp(const Plan& plan, const ExecutionProgress& progress,
                           double io_rate) {
  double remaining =
      progress.remaining_cpu + progress.remaining_io / io_rate;
  OpPosition pos;
  if (remaining <= 0.0 || plan.operators.empty()) return pos;
  // Walk from the last operator backwards, accumulating whole-op work.
  double acc = 0.0;
  for (size_t i = plan.operators.size(); i-- > 0;) {
    const PlanOperator& op = plan.operators[i];
    double op_work = op.cpu_seconds + op.io_ops / io_rate;
    if (acc + op_work >= remaining - 1e-12) {
      double remaining_in_op = remaining - acc;
      pos.index = i;
      pos.progress = op_work > 0.0
                         ? std::clamp(1.0 - remaining_in_op / op_work, 0.0, 1.0)
                         : 1.0;
      pos.finished = false;
      return pos;
    }
    acc += op_work;
  }
  // More remaining than the plan's work (spill inflation): treat as at the
  // first operator's start.
  pos.index = 0;
  pos.progress = 0.0;
  pos.finished = false;
  return pos;
}

double LastCheckpointAt(double progress, double checkpoint_fraction) {
  if (checkpoint_fraction <= 0.0) return progress;
  if (checkpoint_fraction >= 1.0) return 0.0;
  return std::floor(progress / checkpoint_fraction) * checkpoint_fraction;
}

}  // namespace

SuspendCostEstimate EstimateSuspendCost(const Plan& plan,
                                        const ExecutionProgress& progress,
                                        SuspendStrategy strategy,
                                        double io_ops_per_mb, double io_rate) {
  SuspendCostEstimate est;
  est.strategy = strategy;
  OpPosition pos = LocateCurrentOp(plan, progress, io_rate);
  double state_mb = kControlStateMb;
  if (!pos.finished) {
    const PlanOperator& op = plan.operators[pos.index];
    if (strategy == SuspendStrategy::kDumpState) {
      state_mb += op.max_state_mb * pos.progress;
    } else {
      // Per-dimension rollback (mirrors QueryExecution::BeginSuspend):
      // each dimension rolls back to the checkpoint only if it is ahead.
      double c = LastCheckpointAt(pos.progress, op.checkpoint_fraction);
      double later_cpu = 0.0;
      double later_io = 0.0;
      for (size_t i = pos.index + 1; i < plan.operators.size(); ++i) {
        later_cpu += plan.operators[i].cpu_seconds;
        later_io += plan.operators[i].io_ops;
      }
      double rem_cpu_in_op =
          std::max(0.0, progress.remaining_cpu - later_cpu);
      double rem_io_in_op = std::max(0.0, progress.remaining_io - later_io);
      est.redo_cpu = std::max(
          0.0, (1.0 - c) * op.cpu_seconds - rem_cpu_in_op);
      est.redo_io = std::max(0.0, (1.0 - c) * op.io_ops - rem_io_in_op);
    }
  }
  est.suspend_io = state_mb * io_ops_per_mb;
  est.resume_io = state_mb * io_ops_per_mb;
  return est;
}

SuspendStrategy ChooseSuspendStrategy(const Plan& plan,
                                      const ExecutionProgress& progress,
                                      double io_ops_per_mb, double io_rate,
                                      double suspend_io_budget) {
  SuspendCostEstimate dump = EstimateSuspendCost(
      plan, progress, SuspendStrategy::kDumpState, io_ops_per_mb, io_rate);
  SuspendCostEstimate goback = EstimateSuspendCost(
      plan, progress, SuspendStrategy::kGoBack, io_ops_per_mb, io_rate);
  bool dump_fits = dump.suspend_io <= suspend_io_budget;
  bool goback_fits = goback.suspend_io <= suspend_io_budget;
  if (dump_fits && goback_fits) {
    return dump.TotalOverhead(io_rate) <= goback.TotalOverhead(io_rate)
               ? SuspendStrategy::kDumpState
               : SuspendStrategy::kGoBack;
  }
  if (dump_fits) return SuspendStrategy::kDumpState;
  return SuspendStrategy::kGoBack;  // cheapest suspend as fallback
}

SuspendResumeController::SuspendResumeController()
    : SuspendResumeController(Config()) {}

SuspendResumeController::SuspendResumeController(Config config)
    : config_(config) {}

void SuspendResumeController::OnSample(const SystemIndicators& indicators,
                                       WorkloadManager& manager) {
  if (indicators.cpu_utilization < config_.min_cpu_utilization) return;
  // Count high-priority demand waiting in the queue.
  int waiting_high = 0;
  for (const Request* r : manager.Queued()) {
    if (r->priority >= kTriggerPriority &&
        r->state == RequestState::kQueued) {
      ++waiting_high;
    }
  }
  if (waiting_high == 0) return;

  // Victims: lowest priority first, then least progress (cheapest loss).
  std::vector<std::pair<const Request*, ExecutionProgress>> victims;
  for (const ExecutionProgress& p : manager.engine()->Snapshot()) {
    if (p.suspending) continue;
    const Request* request = manager.Find(p.id);
    if (request == nullptr) continue;
    if (request->priority > kVictimMaxPriority) continue;
    if (p.fraction_done > kMaxVictimFractionDone) continue;
    if (request->suspend_count >= config_.max_suspends_per_query) continue;
    victims.emplace_back(request, p);
  }
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) {
              if (a.first->priority != b.first->priority) {
                return a.first->priority < b.first->priority;
              }
              return a.second.fraction_done < b.second.fraction_done;
            });

  int to_suspend = std::min<int>(waiting_high, static_cast<int>(victims.size()));
  for (int i = 0; i < to_suspend; ++i) {
    const Request* request = victims[i].first;
    if (manager.SuspendRequest(request->spec.id, config_.strategy).ok()) {
      ++suspensions_;
    }
  }
}

SuspendedResumeGate::SuspendedResumeGate()
    : SuspendedResumeGate(Config()) {}

SuspendedResumeGate::SuspendedResumeGate(Config config) : config_(config) {}

bool SuspendedResumeGate::AllowDispatch(const Request& request,
                                        const WorkloadManager& manager) {
  if (request.state != RequestState::kSuspended) return true;
  if (request.priority > kVictimMaxPriority) return true;
  double busy = std::max(manager.engine()->smoothed_cpu_utilization(),
                         manager.engine()->smoothed_io_utilization());
  if (busy < config_.min_cpu_utilization) return true;
  // "High-priority work present" must survive the instants between short
  // transactions: in-flight now, queued, or completing within the last
  // monitor interval.
  bool high_present = false;
  for (const Request* r : manager.Running()) {
    if (r->priority >= kTriggerPriority) {
      high_present = true;
      break;
    }
  }
  if (!high_present) {
    for (const Request* r : manager.Queued()) {
      if (r->priority >= kTriggerPriority &&
          r->state == RequestState::kQueued) {
        high_present = true;
        break;
      }
    }
  }
  if (!high_present) {
    for (const auto& [name, def] : manager.workloads()) {
      if (def.priority < kTriggerPriority) continue;
      if (manager.monitor()->tag_stats(name).last_interval_throughput >
          0.0) {
        high_present = true;
        break;
      }
    }
  }
  if (high_present) {
    ++holds_;
    return false;
  }
  return true;
}

TechniqueInfo SuspendedResumeGate::info() const {
  TechniqueInfo info;
  info.name = "Suspended-query resume gate";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kSuspendResume;
  info.description =
      "Holds suspended low-priority queries in the wait queue until the "
      "high-priority work that triggered their suspension has completed.";
  info.source = "Chandramouli et al. [10]";
  return info;
}

TechniqueInfo SuspendResumeController::info() const {
  TechniqueInfo info;
  info.name = "Query suspend-and-resume";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kSuspendResume;
  info.description =
      "Quickly suspends running low-priority queries when high-priority "
      "work is waiting, persisting enough state to resume them later "
      "with the configured strategy (DumpState or GoBack).";
  info.source = "Chandramouli et al. [10], Chaudhuri et al. [12]";
  return info;
}

}  // namespace wlm
