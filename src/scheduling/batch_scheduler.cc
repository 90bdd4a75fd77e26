#include "scheduling/batch_scheduler.h"

#include <algorithm>
#include <map>

#include "core/workload_manager.h"

namespace wlm {

BatchScheduler::BatchScheduler() : BatchScheduler(Config()) {}

BatchScheduler::BatchScheduler(Config config)
    : Scheduler(config.mpl), interaction_aware_(config.interaction_aware) {}

double BatchScheduler::WeightOf(const Request& request) {
  // Business priority as the completion-time weight.
  return static_cast<double>(request.priority) + 1.0;
}

double BatchScheduler::TimeOf(const Request& request) {
  return std::max(1e-3, request.plan.est_elapsed_seconds);
}

std::vector<size_t> BatchScheduler::OrderBatch(
    const std::vector<const Request*>& requests) const {
  std::vector<size_t> order(requests.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  if (!interaction_aware_) {
    // WSPT: descending weight/time ratio.
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return WeightOf(*requests[a]) / TimeOf(*requests[a]) >
             WeightOf(*requests[b]) / TimeOf(*requests[b]);
    });
    return order;
  }

  // Group by statement template; order groups by aggregate WSPT; keep
  // WSPT order within a group.
  struct Group {
    double weight = 0.0;
    double time = 0.0;
    std::vector<size_t> members;
  };
  std::map<std::string, Group> groups;
  for (size_t i = 0; i < requests.size(); ++i) {
    Group& group = groups[requests[i]->spec.sql_digest];
    group.weight += WeightOf(*requests[i]);
    group.time += TimeOf(*requests[i]);
    group.members.push_back(i);
  }
  std::vector<Group*> ordered_groups;
  ordered_groups.reserve(groups.size());
  for (auto& [digest, group] : groups) {
    (void)digest;
    std::stable_sort(group.members.begin(), group.members.end(),
                     [&](size_t a, size_t b) {
                       return WeightOf(*requests[a]) / TimeOf(*requests[a]) >
                              WeightOf(*requests[b]) / TimeOf(*requests[b]);
                     });
    ordered_groups.push_back(&group);
  }
  std::stable_sort(ordered_groups.begin(), ordered_groups.end(),
                   [](const Group* a, const Group* b) {
                     return a->weight / a->time > b->weight / b->time;
                   });
  std::vector<size_t> order_out;
  order_out.reserve(requests.size());
  for (const Group* group : ordered_groups) {
    for (size_t member : group->members) order_out.push_back(member);
  }
  return order_out;
}

std::vector<QueryId> BatchScheduler::Order(
    const std::vector<const Request*>& queued, const WorkloadManager& manager) {
  (void)manager;
  std::vector<size_t> indices = OrderBatch(queued);
  std::vector<QueryId> ids;
  ids.reserve(indices.size());
  for (size_t index : indices) ids.push_back(queued[index]->spec.id);
  return ids;
}

TechniqueInfo BatchScheduler::info() const {
  TechniqueInfo info;
  info.name = "Interaction-aware batch scheduler";
  info.technique_class = TechniqueClass::kScheduling;
  info.subclass = TechniqueSubclass::kQueueManagement;
  info.description =
      "Orders a known batch to minimize importance-weighted completion "
      "time (WSPT), grouping queries with the same template back-to-back "
      "to exploit positive interactions.";
  info.source = "Ahmad et al. [2]";
  return info;
}

}  // namespace wlm
