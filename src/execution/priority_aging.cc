#include "execution/priority_aging.h"

#include <algorithm>
#include <cmath>

#include "core/workload_manager.h"

namespace wlm {
namespace {

/// Lowest level aging can reach.
constexpr BusinessPriority kFloor = BusinessPriority::kBackground;

}  // namespace

PriorityAgingController::PriorityAgingController()
    : PriorityAgingController(Config()) {}

PriorityAgingController::PriorityAgingController(Config config)
    : config_(std::move(config)) {}

void PriorityAgingController::OnSample(const SystemIndicators& indicators,
                                       WorkloadManager& manager) {
  (void)indicators;
  for (const ExecutionProgress& p : manager.engine()->Snapshot()) {
    const Request* request = manager.Find(p.id);
    if (request == nullptr) continue;
    if (!config_.workloads.empty() &&
        config_.workloads.count(request->workload) == 0) {
      continue;
    }

    int needed = 0;
    if (p.elapsed > config_.elapsed_threshold_seconds) {
      needed = 1;
      if (config_.repeat_every_seconds > 0.0) {
        needed += static_cast<int>(
            std::floor((p.elapsed - config_.elapsed_threshold_seconds) /
                       config_.repeat_every_seconds));
      }
    }
    if (config_.rows_threshold > 0 && p.rows_emitted > config_.rows_threshold) {
      needed = std::max(needed, 1);
    }
    int& applied = applied_[p.id];
    if (needed <= applied) continue;

    int target_level =
        static_cast<int>(request->priority) - (needed - applied);
    target_level =
        std::max(target_level, static_cast<int>(kFloor));
    if (target_level < static_cast<int>(request->priority) &&
        manager
            .SetRequestPriority(p.id,
                                static_cast<BusinessPriority>(target_level))
            .ok()) {
      ++demotions_;
    }
    applied = needed;
  }
}

TechniqueInfo PriorityAgingController::info() const {
  TechniqueInfo info;
  info.name = "Priority aging";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kReprioritization;
  info.description =
      "Demotes the resource-access priority of requests whose running "
      "time or returned rows violate their thresholds, one service level "
      "per violation.";
  info.source = "DB2 WLM [9][30]";
  return info;
}

}  // namespace wlm
