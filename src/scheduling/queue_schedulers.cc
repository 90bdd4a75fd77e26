#include "scheduling/queue_schedulers.h"

#include <algorithm>
#include <cmath>

#include "core/workload_manager.h"

namespace wlm {
namespace {

std::vector<QueryId> IdsOf(const std::vector<const Request*>& queued) {
  std::vector<QueryId> ids;
  ids.reserve(queued.size());
  for (const Request* r : queued) ids.push_back(r->spec.id);
  return ids;
}

}  // namespace

std::vector<QueryId> FifoScheduler::Order(
    const std::vector<const Request*>& queued, const WorkloadManager& manager) {
  (void)manager;
  return IdsOf(queued);  // the manager's queue is already in arrival order
}

TechniqueInfo FifoScheduler::info() const {
  TechniqueInfo info;
  info.name = "FIFO wait queue";
  info.technique_class = TechniqueClass::kScheduling;
  info.subclass = TechniqueSubclass::kQueueManagement;
  info.description = "Dispatches queued requests in arrival order, "
                     "optionally capped at a fixed MPL.";
  info.source = "baseline";
  return info;
}

std::vector<QueryId> PriorityScheduler::Order(
    const std::vector<const Request*>& queued, const WorkloadManager& manager) {
  (void)manager;
  std::vector<const Request*> sorted = queued;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Request* a, const Request* b) {
                     return a->priority > b->priority;
                   });
  return IdsOf(sorted);
}

TechniqueInfo PriorityScheduler::info() const {
  TechniqueInfo info;
  info.name = "Priority wait queues";
  info.technique_class = TechniqueClass::kScheduling;
  info.subclass = TechniqueSubclass::kQueueManagement;
  info.description =
      "Orders the wait queue by business priority, FIFO within a level.";
  info.source = "classic priority queueing [2][18]";
  return info;
}

RankScheduler::RankScheduler() : RankScheduler(0, Weights()) {}

RankScheduler::RankScheduler(int mpl, Weights weights)
    : Scheduler(mpl), weights_(weights) {}

double RankScheduler::RankOf(const Request& request, double now) const {
  double wait = std::max(0.0, now - request.arrival_time);
  double est = std::max(1e-3, request.plan.est_elapsed_seconds);
  return weights_.importance * static_cast<double>(request.priority) +
         weights_.aging * (wait / est) -
         weights_.size_penalty * std::log1p(est);
}

std::vector<QueryId> RankScheduler::Order(
    const std::vector<const Request*>& queued, const WorkloadManager& manager) {
  double now = manager.sim()->Now();
  std::vector<std::pair<double, const Request*>> ranked;
  ranked.reserve(queued.size());
  for (const Request* r : queued) ranked.emplace_back(RankOf(*r, now), r);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<QueryId> ids;
  ids.reserve(ranked.size());
  for (const auto& [rank, r] : ranked) {
    (void)rank;
    ids.push_back(r->spec.id);
  }
  return ids;
}

TechniqueInfo RankScheduler::info() const {
  TechniqueInfo info;
  info.name = "Rank-function scheduler";
  info.technique_class = TechniqueClass::kScheduling;
  info.subclass = TechniqueSubclass::kQueueManagement;
  info.description =
      "Scores queued queries by importance, normalized waiting time and "
      "size, dispatching by descending rank.";
  info.source = "Gupta et al. [24]";
  return info;
}

}  // namespace wlm
