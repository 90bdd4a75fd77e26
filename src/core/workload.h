#ifndef WLM_CORE_WORKLOAD_H_
#define WLM_CORE_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/stats.h"
#include "core/request.h"
#include "telemetry/slo.h"

namespace wlm {

/// A defined workload (the "workload object" of commercial facilities,
/// Section 2.2): a name for a class of requests plus the business
/// priority, SLOs and resource access rights its SLA confers. Which
/// requests map to it is the characterization module's job.
struct WorkloadDefinition {
  std::string name;
  BusinessPriority priority = BusinessPriority::kMedium;
  std::vector<ServiceLevelObjective> slos;
  /// Engine weights applied to this workload's requests; defaults from the
  /// priority when left at zero.
  ResourceShares shares{0.0, 0.0};

  ResourceShares EffectiveShares() const {
    if (shares.cpu_weight > 0.0 && shares.io_weight > 0.0) return shares;
    return SharesForPriority(priority);
  }
};

/// Workload-manager-level counters per workload (monitor holds the
/// response-time/velocity distributions; these add the lifecycle view).
struct WorkloadCounters {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t killed = 0;
  int64_t aborted = 0;
  int64_t resubmitted = 0;
  int64_t suspended = 0;
  /// Dropped by overload protection — tracked apart from rejected (an
  /// admission policy decision) and killed/aborted (fault outcomes).
  int64_t shed = 0;
  /// Retries denied by the retry budget or deadline-aware retry check.
  int64_t retries_denied = 0;
  OnlineStats queue_waits;
};

}  // namespace wlm

#endif  // WLM_CORE_WORKLOAD_H_
