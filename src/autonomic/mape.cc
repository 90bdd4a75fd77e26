#include "autonomic/mape.h"

#include <algorithm>
#include <cmath>

#include "core/workload_manager.h"

namespace wlm {
namespace {

/// Workloads at or above this priority are protected.
constexpr BusinessPriority kProtectedMin = BusinessPriority::kHigh;
/// Need at least this many completions before trusting SLO stats.
constexpr int64_t kMinObservations = 5;
/// Additive duty restoration per interval when goals are met.
constexpr double kRelaxStep = 0.15;
/// Victims below this progress may be killed-and-resubmitted once
/// throttling and suspension are exhausted.
constexpr double kKillProgressCut = 0.25;
constexpr double kSuspendProgressCut = 0.8;
constexpr int kMaxSuspends = 1;

}  // namespace

AutonomicController::AutonomicController()
    : AutonomicController(Config()) {}

AutonomicController::AutonomicController(Config config) : config_(config) {}

std::vector<WorkloadHealth> AutonomicController::Analyze(
    const WorkloadManager& manager) const {
  std::vector<WorkloadHealth> out;
  for (const auto& [name, def] : manager.workloads()) {
    if (def.slos.empty()) continue;
    const TagStats& stats = manager.monitor()->tag_stats(name);
    WorkloadHealth health;
    health.workload = name;
    health.priority = def.priority;
    if (stats.completed < kMinObservations) {
      out.push_back(std::move(health));  // insufficient data: assume met
      continue;
    }
    for (const ServiceLevelObjective& slo : def.slos) {
      // Response and velocity SLOs are judged on the smoothed *recent*
      // signal instead of lifetime statistics, so the loop reacts to the
      // current state and releases pressure once the incident passes.
      SloEvaluation eval;
      if (slo.metric == ServiceLevelObjective::Metric::kAvgResponseTime &&
          !stats.recent_response.empty()) {
        eval.actual = stats.recent_response.value();
        eval.met = eval.actual <= slo.target;
        eval.attainment = eval.actual > 0.0 ? slo.target / eval.actual : 1.0;
      } else if (slo.metric == ServiceLevelObjective::Metric::kMinVelocity &&
                 !stats.recent_velocity.empty()) {
        eval.actual = stats.recent_velocity.value();
        eval.met = eval.actual >= slo.target;
        eval.attainment = slo.target > 0.0 ? eval.actual / slo.target : 1.0;
      } else {
        eval = EvaluateSlo(slo, stats);
      }
      health.all_met = health.all_met && eval.met;
      health.worst_attainment =
          std::min(health.worst_attainment, eval.attainment);
      health.evaluations.push_back(eval);
    }
    out.push_back(std::move(health));
  }
  return out;
}

void AutonomicController::OnSample(const SystemIndicators& indicators,
                                   WorkloadManager& manager) {
  (void)indicators;
  // Analyze. A protected workload only warrants intervention while it
  // actually has work in the system — a stale miss on an idle workload
  // must not starve the victims forever.
  bool protected_missing = false;
  for (const WorkloadHealth& h : Analyze(manager)) {
    if (h.priority < kProtectedMin || h.all_met) continue;
    // Short transactions come and go between samples, so "active" means
    // in-flight now *or* completing within the last interval.
    bool active = manager.RunningInWorkload(h.workload) +
                          manager.QueuedInWorkload(h.workload) >
                      0 ||
                  manager.monitor()->tag_stats(h.workload)
                          .last_interval_throughput > 0.0;
    if (active) {
      protected_missing = true;
      break;
    }
  }
  // Plan + Execute.
  if (protected_missing) {
    Escalate(manager);
  } else {
    Relax(manager);
  }
}

void AutonomicController::Escalate(WorkloadManager& manager) {
  double now = manager.sim()->Now();
  for (const ExecutionProgress& p : manager.engine()->Snapshot()) {
    const Request* request = manager.Find(p.id);
    if (request == nullptr) continue;
    if (request->priority >= kProtectedMin) continue;
    if (p.suspending) continue;

    // Decide from the engine's actual duty (a resubmitted victim restarts
    // at full speed even if the ledger remembers an old value).
    double& duty = duties_.try_emplace(p.id, 1.0).first->second;
    duty = p.duty;
    if (duty > config_.min_duty + 1e-9) {
      // Cheapest action first: throttle harder.
      duty = std::max(config_.min_duty, duty * config_.throttle_factor);
      (void)manager.ThrottleRequest(p.id, duty);
      log_.push_back({now, AutonomicAction::Type::kThrottle, p.id,
                      "duty=" + std::to_string(duty)});
      continue;
    }
    // Throttle saturated: free the resources entirely.
    if (request->suspend_count < kMaxSuspends &&
        p.fraction_done < kSuspendProgressCut) {
      if (manager.SuspendRequest(p.id, SuspendStrategy::kDumpState).ok()) {
        log_.push_back(
            {now, AutonomicAction::Type::kSuspend, p.id, "DumpState"});
      }
      continue;
    }
    if (p.fraction_done < kKillProgressCut &&
        request->resubmits == 0) {
      // One shot only: re-killing a resubmitted victim into the same
      // incident is pure churn — after that it waits at min duty.
      if (manager.KillRequest(p.id, /*resubmit=*/true).ok()) {
        log_.push_back({now, AutonomicAction::Type::kKillResubmit, p.id,
                        "young victim"});
      }
    }
    // Otherwise: the victim is nearly done (or already recycled once);
    // stalling it at min duty is the least destructive option.
  }
}

void AutonomicController::Relax(WorkloadManager& manager) {
  double now = manager.sim()->Now();
  for (auto it = duties_.begin(); it != duties_.end();) {
    QueryId id = it->first;
    double& duty = it->second;
    if (!manager.engine()->IsActive(id)) {
      it = duties_.erase(it);
      continue;
    }
    if (duty < 1.0) {
      duty = std::min(1.0, duty + kRelaxStep);
      (void)manager.ThrottleRequest(id, duty);
      log_.push_back({now, AutonomicAction::Type::kRelax, id,
                      "duty=" + std::to_string(duty)});
    }
    ++it;
  }
}

TechniqueInfo AutonomicController::info() const {
  TechniqueInfo info;
  info.name = "Autonomic MAPE-K controller";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kThrottling;
  info.description =
      "Monitor-Analyze-Plan-Execute loop: evaluates per-workload SLOs "
      "and escalates throttle -> suspend -> kill-and-resubmit against "
      "lower-importance work until protected objectives are met, then "
      "relaxes.";
  info.source = "Zhang et al. [80], Kephart & Chess [32] (Section 5.3)";
  return info;
}

}  // namespace wlm
