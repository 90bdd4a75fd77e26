#ifndef WLM_SCHEDULING_UTILITY_SCHEDULER_H_
#define WLM_SCHEDULING_UTILITY_SCHEDULER_H_

#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "control/utility.h"
#include "core/interfaces.h"

namespace wlm {

/// Niu et al.'s query scheduler [60]: multiple service classes with
/// per-class performance goals and business importance. The scheduler
/// periodically generates a *scheduling plan* — a cost limit per class
/// (the allowable total cost of that class's concurrently running
/// queries) — by hill-climbing an objective function built from
/// importance-weighted utility functions, with an analytic (M/M/1-PS)
/// model predicting each class's response time under a candidate plan.
/// Queued queries dispatch in priority order while their class has cost
/// headroom.
class UtilityScheduler : public Scheduler {
 public:
  struct ClassConfig {
    std::string workload;
    double target_response_seconds = 10.0;
    double importance = 1.0;
  };
  struct Config {
    std::vector<ClassConfig> classes;
    /// Total cost (timerons) the engine can sustain concurrently; class
    /// cost limits are fractions of this.
    double system_cost_capacity = 20000.0;
    /// Re-generate the plan every N monitor samples.
    int replan_every_samples = 5;
    /// Floor on any class's capacity fraction.
    double min_fraction = 0.05;
  };

  explicit UtilityScheduler(Config config);

  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager& manager) override;
  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  /// Current cost limit (timerons) for a class; infinity for unmanaged
  /// workloads.
  double CostLimit(const std::string& workload) const;
  /// Capacity fraction assigned by the last plan.
  double Fraction(const std::string& workload) const;
  /// Analytic response-time prediction for a class given a capacity
  /// fraction (exposed for tests).
  double PredictResponse(const std::string& workload, double fraction) const;
  int replans() const { return replans_; }

 private:
  struct ClassState {
    ClassConfig config;
    double fraction = 0.0;
    Ewma arrival_rate{0.3};     // completions/sec proxy
    Ewma service_seconds{0.3};  // standalone elapsed estimate
  };

  double PlanUtility(const std::vector<double>& fractions) const;
  void Replan();

  Config config_;
  std::vector<ClassState> classes_;
  std::map<std::string, size_t> index_;
  int samples_since_replan_ = 0;
  int replans_ = 0;
};

}  // namespace wlm

#endif  // WLM_SCHEDULING_UTILITY_SCHEDULER_H_
