#ifndef WLM_EXECUTION_SUSPEND_RESUME_H_
#define WLM_EXECUTION_SUSPEND_RESUME_H_

#include <string>
#include <unordered_map>

#include "core/interfaces.h"
#include "engine/execution.h"
#include "engine/plan.h"

namespace wlm {

/// Pre-suspension cost estimate for one strategy, derived from the plan
/// and a progress snapshot (the model behind Chandramouli et al.'s
/// optimal-suspend-plan search [10]).
struct SuspendCostEstimate {
  SuspendStrategy strategy = SuspendStrategy::kDumpState;
  double suspend_io = 0.0;
  double resume_io = 0.0;
  double redo_cpu = 0.0;
  double redo_io = 0.0;
  /// Total overhead in work units (cpu + io/io_rate) — the objective the
  /// suspend-plan optimization minimizes.
  double TotalOverhead(double io_rate) const {
    return redo_cpu + (suspend_io + resume_io + redo_io) / io_rate;
  }
};

/// Estimates suspend/resume costs of `strategy` for a query at the state
/// described by `progress` (without suspending it). Mirrors the engine's
/// BeginSuspend accounting.
SuspendCostEstimate EstimateSuspendCost(const Plan& plan,
                                        const ExecutionProgress& progress,
                                        SuspendStrategy strategy,
                                        double io_ops_per_mb, double io_rate);

/// Chooses the strategy minimizing total overhead subject to a suspend-IO
/// budget (the "minimize suspend/resume overhead while meeting a given
/// suspend cost constraint" optimization). Falls back to GoBack (cheapest
/// suspend) when nothing fits the budget.
SuspendStrategy ChooseSuspendStrategy(const Plan& plan,
                                      const ExecutionProgress& progress,
                                      double io_ops_per_mb, double io_rate,
                                      double suspend_io_budget);

/// Query suspend-and-resume execution control (Table 3 row 4 [10][12]):
/// when high-priority requests are waiting and the system is loaded,
/// quickly suspends running low-priority queries; the suspended queries
/// re-enter the wait queue and resume when dispatched again (i.e., when
/// the high-priority burst has drained, given a priority-aware scheduler).
class SuspendResumeController : public ExecutionController {
 public:
  struct Config {
    /// How victims are suspended.
    SuspendStrategy strategy = SuspendStrategy::kDumpState;
    /// Per-query suspension cap (avoid thrashing a query in and out).
    int max_suspends_per_query = 2;
    /// Engine must be at least this busy for suspension to trigger.
    double min_cpu_utilization = 0.5;
  };

  SuspendResumeController();
  explicit SuspendResumeController(Config config);

  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  int64_t suspensions() const { return suspensions_; }

 private:
  Config config_;
  int64_t suspensions_ = 0;
};

/// Companion dispatch gate for SuspendResumeController: holds *suspended*
/// low-priority requests in the wait queue while high-priority work is
/// still present and the system is busy, so they "resume when the
/// high-priority work has completed" [10] instead of bouncing straight
/// back into the storm they were suspended for.
class SuspendedResumeGate : public AdmissionController {
 public:
  struct Config {
    /// Resume is only held while the engine is at least this busy.
    double min_cpu_utilization = 0.5;
  };

  SuspendedResumeGate();
  explicit SuspendedResumeGate(Config config);

  bool AllowDispatch(const Request& request,
                     const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  int64_t holds() const { return holds_; }

 private:
  Config config_;
  int64_t holds_ = 0;
};

}  // namespace wlm

#endif  // WLM_EXECUTION_SUSPEND_RESUME_H_
