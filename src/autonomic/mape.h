#ifndef WLM_AUTONOMIC_MAPE_H_
#define WLM_AUTONOMIC_MAPE_H_

#include <map>
#include <string>
#include <vector>

#include "core/interfaces.h"
#include "telemetry/slo.h"

namespace wlm {

/// Analyzer output for one workload: SLO evaluations against the monitor.
struct WorkloadHealth {
  std::string workload;
  BusinessPriority priority = BusinessPriority::kMedium;
  std::vector<SloEvaluation> evaluations;
  bool all_met = true;
  /// Minimum attainment across SLOs (>= 1 means everything met).
  double worst_attainment = 1.0;
};

/// One planner decision, for the knowledge log.
struct AutonomicAction {
  double time = 0.0;
  enum class Type { kThrottle, kRelax, kSuspend, kKillResubmit } type =
      Type::kThrottle;
  QueryId target = 0;
  std::string detail;
};

/// The paper's Section 5.3 vision made concrete: a MAPE-K feedback loop —
/// Monitor (the wlm::Monitor), Analyzer (per-workload SLO evaluation),
/// Planner (escalation ladder over the execution-control techniques,
/// guided by how much work each action destroys) and Effector (the
/// WorkloadManager's control actions). Protected (high-importance)
/// workloads missing their objectives cause progressively stronger
/// interventions against lower-importance running work: throttle first,
/// suspend if throttling saturates, kill-and-resubmit young queries as a
/// last resort; when objectives are met again the loop relaxes throttles.
class AutonomicController : public ExecutionController {
 public:
  struct Config {
    /// Multiplicative throttle escalation per interval.
    double throttle_factor = 0.5;
    double min_duty = 0.1;
  };

  AutonomicController();
  explicit AutonomicController(Config config);

  /// Analyze step, exposed for tests: evaluates every defined workload
  /// that has SLOs.
  std::vector<WorkloadHealth> Analyze(const WorkloadManager& manager) const;

  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  const std::vector<AutonomicAction>& action_log() const { return log_; }

 private:
  void Escalate(WorkloadManager& manager);
  void Relax(WorkloadManager& manager);

  Config config_;
  // Ordered: Relax() iterates this while throttling and appending to the
  // action log, so iteration order must be id order, not hash order.
  std::map<QueryId, double> duties_;  // current throttle per victim
  std::vector<AutonomicAction> log_;
};

}  // namespace wlm

#endif  // WLM_AUTONOMIC_MAPE_H_
