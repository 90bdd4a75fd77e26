#include "execution/throttling.h"

#include <algorithm>

#include "core/workload_manager.h"

namespace wlm {
namespace {

/// Max throttle of both controllers (never stall the victims completely).
constexpr double kMaxThrottle = 0.95;
/// UtilityThrottleController's PI gains.
constexpr double kKp = 1.5;
constexpr double kKi = 0.8;
/// QueryThrottleController's first step: the step controller's initial
/// step and the black-box controller's probe step.
constexpr double kInitialStep = 0.2;

}  // namespace

UtilityThrottleController::UtilityThrottleController()
    : UtilityThrottleController(Config()) {}

UtilityThrottleController::UtilityThrottleController(Config config)
    : config_(config), pi_(kKp, kKi, 0.0, kMaxThrottle) {}

void UtilityThrottleController::OnSample(const SystemIndicators& indicators,
                                         WorkloadManager& manager) {
  (void)indicators;
  const TagStats& production =
      manager.monitor()->tag_stats(config_.production_workload);
  if (production.recent_velocity.empty()) return;  // no signal yet
  // Velocity baseline in an unloaded system is 1.0 by construction; the
  // degradation limit defines the setpoint.
  double setpoint = config_.degradation_limit;
  double measured = production.recent_velocity.value();
  // Positive error (production below goal) raises the throttle.
  double error = setpoint - measured;
  throttle_ = pi_.Update(error, manager.monitor()->interval());

  double duty = std::max(0.05, 1.0 - throttle_);
  for (const Request* r : manager.Running()) {
    if (r->workload == config_.utility_workload) {
      (void)manager.ThrottleRequest(r->spec.id, duty);
    }
  }
}

TechniqueInfo UtilityThrottleController::info() const {
  TechniqueInfo info;
  info.name = "Utility throttling (PI controller)";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kThrottling;
  info.description =
      "Self-imposed sleep slows online utilities; a Proportional-"
      "Integral controller sets the amount of throttling from the "
      "observed degradation of production work.";
  info.source = "Parekh et al. [64]";
  return info;
}

QueryThrottleController::QueryThrottleController()
    : QueryThrottleController(Config()) {}

QueryThrottleController::QueryThrottleController(Config config)
    : config_(config),
      step_(kInitialStep, 0.0, kMaxThrottle),
      blackbox_(0.0, kMaxThrottle, kInitialStep) {}

void QueryThrottleController::OnSample(const SystemIndicators& indicators,
                                       WorkloadManager& manager) {
  (void)indicators;
  const TagStats& protected_stats =
      manager.monitor()->tag_stats(config_.protected_workload);
  if (protected_stats.recent_response.empty()) return;
  double measured = protected_stats.recent_response.value();

  if (config_.controller == ControllerKind::kStep) {
    // Positive error = protected workload too slow = throttle harder.
    double error = measured - config_.target_response_seconds;
    throttle_ =
        step_.Update(error, 0.15 * config_.target_response_seconds);
  } else {
    throttle_ = blackbox_.Update(measured, config_.target_response_seconds);
  }

  for (const Request* r : manager.Running()) {
    if (r->workload != config_.victim_workload) continue;
    if (config_.method == Method::kConstant) {
      (void)manager.ThrottleRequest(r->spec.id, std::max(0.05, 1.0 - throttle_));
    } else {
      // Interrupt throttling: one pause per victim, sized by the current
      // throttling amount.
      if (interrupted_.insert(r->spec.id).second && throttle_ > 0.01) {
        (void)manager.PauseRequest(
            r->spec.id, throttle_ * config_.interrupt_horizon_seconds);
      }
    }
  }
}

TechniqueInfo QueryThrottleController::info() const {
  TechniqueInfo info;
  info.name = config_.controller == ControllerKind::kStep
                  ? "Query throttling (step controller)"
                  : "Query throttling (black-box controller)";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kThrottling;
  info.description =
      "Slows large queries with constant (duty-cycle) or interrupt "
      "(single long pause) self-imposed sleeps so high-priority work "
      "meets its service-level objectives.";
  info.source = "Powley et al. [65][66]";
  return info;
}

}  // namespace wlm
