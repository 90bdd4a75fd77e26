#ifndef WLM_EXECUTION_THROTTLING_H_
#define WLM_EXECUTION_THROTTLING_H_

#include <string>
#include <unordered_set>

#include "control/controllers.h"
#include "core/interfaces.h"

namespace wlm {

/// Utility throttling (Parekh et al. [64], Table 3 row 5 / Table 5 row 2):
/// all work is split into production applications and online utilities
/// (backup, reorg, statistics). The controller monitors production
/// performance degradation relative to a baseline and uses a
/// Proportional-Integral controller to set the utilities' throttling
/// level; a workload control function translates that level into a
/// self-imposed sleep fraction (duty cycle) for every running utility.
class UtilityThrottleController : public ExecutionController {
 public:
  struct Config {
    /// Workload containing the online utilities (the throttled class).
    std::string utility_workload = "utilities";
    /// Production workload whose performance is protected.
    std::string production_workload = "production";
    /// Acceptable degradation: production velocity must stay at or above
    /// this fraction of the (idle-system) baseline of 1.0.
    double degradation_limit = 0.9;
    double kp = 1.5;
    double ki = 0.8;
    /// Max throttle (never stall utilities completely).
    double max_throttle = 0.95;
  };

  UtilityThrottleController();
  explicit UtilityThrottleController(Config config);

  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  /// Current throttling level in [0, max_throttle].
  double throttle_level() const { return throttle_; }

 private:
  Config config_;
  PiController pi_;
  double throttle_ = 0.0;
};

/// Query throttling (Powley et al. [65][66]): slows down large queries so
/// high-priority work meets its goals. Two controllers — the diminishing
/// step function and the black-box linear model — and two throttle
/// methods: *constant* (many short evenly distributed pauses, modeled as
/// a duty cycle) and *interrupt* (one long pause per query).
class QueryThrottleController : public ExecutionController {
 public:
  enum class ControllerKind { kStep, kBlackBox };
  enum class Method { kConstant, kInterrupt };

  struct Config {
    /// The large queries being throttled.
    std::string victim_workload = "bi";
    /// The workload whose response-time goal must be met.
    std::string protected_workload = "oltp";
    double target_response_seconds = 1.0;
    ControllerKind controller = ControllerKind::kStep;
    Method method = Method::kConstant;
    /// Step controller initial step.
    double initial_step = 0.2;
    /// Interrupt method: pause length = throttle * horizon, applied once
    /// per victim query.
    double interrupt_horizon_seconds = 20.0;
    double max_throttle = 0.95;
  };

  QueryThrottleController();
  explicit QueryThrottleController(Config config);

  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  void OnRequestEnd(QueryId id) override { interrupted_.erase(id); }
  TechniqueInfo info() const override;

  double throttle_level() const { return throttle_; }

 private:
  Config config_;
  DiminishingStepController step_;
  BlackBoxLinearController blackbox_;
  double throttle_ = 0.0;
  std::unordered_set<QueryId> interrupted_;  // already-paused victims
};

}  // namespace wlm

#endif  // WLM_EXECUTION_THROTTLING_H_
