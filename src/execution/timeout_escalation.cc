#include "execution/timeout_escalation.h"

#include <unordered_set>
#include <vector>

#include "core/workload_manager.h"

namespace wlm {

TimeoutEscalationController::TimeoutEscalationController(Config config)
    : config_(std::move(config)) {}

const TimeoutEscalationController::Policy&
TimeoutEscalationController::PolicyFor(const std::string& workload) const {
  auto it = config_.per_workload.find(workload);
  return it == config_.per_workload.end() ? config_.default_policy
                                          : it->second;
}

void TimeoutEscalationController::OnSample(const SystemIndicators& indicators,
                                           WorkloadManager& manager) {
  (void)indicators;
  // Decide every action from one immutable snapshot, then act: suspends
  // and kills fire completion callbacks that mutate the running set.
  struct Action {
    QueryId id;
    const Request* request;  // owned by the manager for the whole run
    Stage stage;
    const Policy* policy;
    double dispatch_time;
    bool past_deadline = false;
  };
  std::vector<Action> actions;
  std::unordered_set<QueryId> alive;
  const double now = manager.sim()->Now();
  for (const ExecutionProgress& p : manager.engine()->Snapshot()) {
    alive.insert(p.id);
    const Request* request = manager.Find(p.id);
    if (request == nullptr) continue;
    const Policy& policy = PolicyFor(request->workload);
    Stage current = Stage::kNone;
    auto stage_it = stages_.find(p.id);
    if (stage_it != stages_.end() &&
        stage_it->second.dispatch_time == p.dispatch_time) {
      current = stage_it->second.stage;
    }
    if (current >= Stage::kSuspending) continue;  // terminal rungs pending

    // Deadline rung: sits above the elapsed-time rungs because a query
    // past its deadline cannot recover no matter how long it has run.
    bool past_deadline = policy.kill_past_deadline && request->HasDeadline() &&
                         now > request->deadline +
                                   policy.deadline_grace_seconds;
    Stage target = Stage::kNone;
    if (past_deadline || (policy.kill_after_seconds > 0.0 &&
                          p.elapsed > policy.kill_after_seconds)) {
      target = Stage::kKilled;
    } else if (policy.suspend_after_seconds > 0.0 &&
               p.elapsed > policy.suspend_after_seconds) {
      target = Stage::kSuspending;
    } else if (policy.throttle_after_seconds > 0.0 &&
               p.elapsed > policy.throttle_after_seconds) {
      target = Stage::kThrottled;
    }
    if (target > current) {
      actions.push_back({p.id, request, target, &policy, p.dispatch_time,
                         past_deadline});
    }
  }

  // Drop ladder state for queries no longer in the engine, so a
  // suspended query climbs from the bottom rung after it resumes.
  for (auto it = stages_.begin(); it != stages_.end();) {
    if (alive.count(it->first) == 0) {
      it = stages_.erase(it);
    } else {
      ++it;
    }
  }

  for (const Action& action : actions) {
    const WorkloadId workload_id = action.request->workload_id;
    const std::string& workload = action.request->workload;
    switch (action.stage) {
      case Stage::kThrottled:
        if (manager.ThrottleRequest(action.id, action.policy->throttle_duty)
                .ok()) {
          stages_[action.id] = {Stage::kThrottled, action.dispatch_time};
          ++throttles_;
          manager.telemetry().OnEscalation(action.id, workload_id, workload,
                                           "throttle");
        }
        break;
      case Stage::kSuspending:
        if (manager
                .SuspendRequest(action.id, action.policy->suspend_strategy)
                .ok()) {
          stages_[action.id] = {Stage::kSuspending, action.dispatch_time};
          ++suspends_;
          manager.telemetry().OnEscalation(action.id, workload_id, workload,
                                           "suspend");
        }
        break;
      case Stage::kKilled: {
        // A past-deadline victim is never resubmitted: its rerun would
        // also finish past the deadline.
        bool resubmit =
            action.policy->resubmit_on_kill && !action.past_deadline;
        if (manager.KillRequest(action.id, resubmit).ok()) {
          ++kills_;
          if (action.past_deadline) ++deadline_kills_;
          stages_.erase(action.id);
          manager.telemetry().OnEscalation(
              action.id, workload_id, workload,
              action.past_deadline ? "deadline_kill" : "kill");
        }
        break;
      }
      case Stage::kNone:
        break;
    }
  }
}

TechniqueInfo TimeoutEscalationController::info() const {
  TechniqueInfo info;
  info.name = "Timeout escalation (throttle/suspend/kill)";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kCancellation;
  info.description =
      "Per-workload execution timeouts enforced as an escalation ladder: "
      "overrunning queries are first throttled, then suspended, and "
      "finally killed, trading completion chances for resource release.";
  info.source = "escalation of Table 3 controls [30][39][50]";
  return info;
}

}  // namespace wlm
