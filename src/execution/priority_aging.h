#ifndef WLM_EXECUTION_PRIORITY_AGING_H_
#define WLM_EXECUTION_PRIORITY_AGING_H_

#include <set>
#include <string>
#include <unordered_map>

#include "core/interfaces.h"

namespace wlm {

/// Priority aging (Table 3 row 1; the DB2 service-subclass remapping
/// mechanism [9][30]): dynamically downgrades the resource-access priority
/// of a request as it runs, triggered by threshold violations — running
/// longer than allowed or returning more rows than estimated. Each
/// violation moves the request one service level down (to the configured
/// floor), immediately shrinking its engine resource weights.
class PriorityAgingController : public ExecutionController {
 public:
  struct Config {
    /// First demotion when a request has been running this long.
    double elapsed_threshold_seconds = 10.0;
    /// Further demotions every this many seconds beyond the threshold.
    double repeat_every_seconds = 10.0;
    /// Demotion when the request emits more rows than this (0 disables).
    int64_t rows_threshold = 0;
    /// Lowest level aging can reach.
    BusinessPriority floor = BusinessPriority::kBackground;
    /// Only age requests of these workloads (empty = all).
    std::set<std::string> workloads;
  };

  PriorityAgingController();
  explicit PriorityAgingController(Config config);

  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  void OnRequestEnd(QueryId id) override { applied_.erase(id); }
  TechniqueInfo info() const override;

  int64_t demotions() const { return demotions_; }

 private:
  Config config_;
  std::unordered_map<QueryId, int> applied_;  // demotion levels applied
  int64_t demotions_ = 0;
};

}  // namespace wlm

#endif  // WLM_EXECUTION_PRIORITY_AGING_H_
