#ifndef WLM_SCHEDULING_BATCH_SCHEDULER_H_
#define WLM_SCHEDULING_BATCH_SCHEDULER_H_

#include <string>
#include <vector>

#include "core/interfaces.h"

namespace wlm {

/// Batch-workload scheduler in the spirit of Ahmad et al.'s
/// interaction-aware report-generation scheduling [2]: the whole batch is
/// known up front and the scheduler picks an execution *order* optimizing
/// a batch-level objective.
///
/// Two orderings are provided:
///  - plain WSPT (weighted shortest processing time): provably optimal
///    for minimizing importance-weighted total completion time on a
///    serial resource — the "linear programming based algorithm that
///    determines an execution order for all requests in a batch" stands
///    in for [2]'s optimization;
///  - interaction-aware WSPT: queries with the same statement template
///    (sql_digest) are run back-to-back, modeling positive interactions
///    (shared scans / warm caches) that [2] exploits. Groups are ordered
///    by WSPT over their aggregate weight/time.
class BatchScheduler : public Scheduler {
 public:
  struct Config {
    bool interaction_aware = true;
    /// Optional MPL (0 = unlimited); batch queries usually run at low
    /// concurrency so completion-order matters.
    int mpl = 1;
  };

  BatchScheduler();
  explicit BatchScheduler(Config config);

  /// Pure ordering helper (exposed for tests): returns indices of
  /// `requests` in execution order.
  std::vector<size_t> OrderBatch(
      const std::vector<const Request*>& requests) const;

  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

 private:
  static double WeightOf(const Request& request);
  static double TimeOf(const Request& request);

  bool interaction_aware_;
};

}  // namespace wlm

#endif  // WLM_SCHEDULING_BATCH_SCHEDULER_H_
