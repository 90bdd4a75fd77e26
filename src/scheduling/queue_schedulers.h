#ifndef WLM_SCHEDULING_QUEUE_SCHEDULERS_H_
#define WLM_SCHEDULING_QUEUE_SCHEDULERS_H_

#include "core/interfaces.h"

namespace wlm {

/// Baseline queue management: first-come-first-served, no concurrency
/// limit (the "no scheduling" commercial default the paper notes).
class FifoScheduler : public Scheduler {
 public:
  /// `mpl` <= 0 leaves concurrency uncapped.
  explicit FifoScheduler(int mpl = 0) : Scheduler(mpl) {}

  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager& manager) override;
  QueueDiscipline discipline() const override {
    return QueueDiscipline::kArrival;
  }
  TechniqueInfo info() const override;
};

/// Strict business-priority scheduling: higher priority first, FIFO within
/// a priority level.
class PriorityScheduler : public Scheduler {
 public:
  explicit PriorityScheduler(int mpl = 0) : Scheduler(mpl) {}

  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager& manager) override;
  QueueDiscipline discipline() const override {
    return QueueDiscipline::kPriority;
  }
  TechniqueInfo info() const override;
};

/// Rank-function scheduling in the style of Gupta et al.'s enterprise
/// data-warehouse scheduler [24]: each queued query gets a scalar rank
/// combining business importance, time spent waiting (aging, normalized by
/// the query's estimated size so short queries age faster) and a penalty
/// for sheer size; the queue dispatches by descending rank. Balances
/// fairness, effectiveness and differentiation.
class RankScheduler : public Scheduler {
 public:
  struct Weights {
    double importance = 1.0;
    double aging = 0.5;
    double size_penalty = 0.25;
  };

  RankScheduler();
  explicit RankScheduler(int mpl, Weights weights);

  /// The rank of one request at time `now` (exposed for tests/benches).
  double RankOf(const Request& request, double now) const;

  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

 private:
  Weights weights_;
};

}  // namespace wlm

#endif  // WLM_SCHEDULING_QUEUE_SCHEDULERS_H_
