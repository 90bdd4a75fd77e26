#ifndef WLM_TELEMETRY_SLO_WATCHDOG_H_
#define WLM_TELEMETRY_SLO_WATCHDOG_H_

#include <string>
#include <vector>

#include "engine/monitor.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/slo.h"

namespace wlm {

/// Watches workload SLOs against the Monitor's per-tag statistics at every
/// sampling instant. Transitions into violation are recorded as
/// kSloViolation events in the EventLog, carrying the offending indicator
/// values, and every violated sample bumps `wlm_slo_violation_samples_total`
/// — the library's analogue of DB2's threshold-violation event monitor.
class SloWatchdog {
 public:
  /// `sink` and `metrics` may be nullptr (violations are still kept here).
  SloWatchdog(Monitor* monitor, EventLog* sink, MetricsRegistry* metrics);

  /// Replaces the watched objectives of `workload`.
  void SetSlos(const std::string& workload,
               const std::vector<ServiceLevelObjective>& slos);

  /// Evaluates every watched objective; call at each monitor sample.
  /// Objectives of a workload with no completions yet are skipped (no
  /// data, no verdict).
  void Check(const SystemIndicators& indicators);

  struct Violation {
    double time = 0.0;
    std::string workload;
    ServiceLevelObjective slo;
    SloEvaluation evaluation;
    SystemIndicators indicators;
  };
  /// Transitions into violation, oldest first (bounded alongside the log).
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  struct Watched {
    std::string workload;
    ServiceLevelObjective slo;
    size_t index = 0;  // position within the workload's SLO list
    bool in_violation = false;
  };

  Monitor* monitor_;
  EventLog* sink_;
  MetricsRegistry* metrics_;
  std::vector<Watched> watched_;
  std::vector<Violation> violations_;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_SLO_WATCHDOG_H_
